"""Tests for cache snapshots and warm-start restoration."""

import pytest

from repro.core import (
    ATIME,
    KeyPolicy,
    SIZE,
    SimCache,
    load_cache,
    restore_cache,
    save_cache,
    simulate,
    snapshot_cache,
)
from repro.trace import Request


def req(t, url, size):
    return Request(timestamp=float(t), url=url, size=size)


def warmed_cache():
    cache = SimCache(capacity=10_000, policy=KeyPolicy([SIZE]))
    cache.access(req(0, "a", 1000))
    cache.access(req(10, "b", 2000))
    cache.access(req(20, "a", 1000))  # hit: bumps a's nref/atime
    return cache


class TestSnapshot:
    def test_roundtrip_preserves_entries(self):
        cache = warmed_cache()
        restored = restore_cache(
            snapshot_cache(cache), policy=KeyPolicy([SIZE]),
        )
        assert len(restored) == len(cache)
        assert restored.used_bytes == cache.used_bytes
        for entry in cache.entries():
            twin = restored.get(entry.url)
            assert twin.size == entry.size
            assert twin.etime == entry.etime
            assert twin.atime == entry.atime
            assert twin.nref == entry.nref
            assert twin.random_stamp == entry.random_stamp

    def test_counters_preserved(self):
        cache = SimCache(capacity=2500, policy=KeyPolicy([SIZE]))
        cache.access(req(0, "a", 2000))
        cache.access(req(1, "b", 2000))  # evicts a
        restored = restore_cache(
            snapshot_cache(cache), policy=KeyPolicy([SIZE]),
        )
        assert restored.eviction_count == 1
        assert restored.evicted_bytes == 2000
        assert restored.max_used_bytes == cache.max_used_bytes

    def test_restored_cache_continues_identically(self):
        """A restored cache evicts exactly like the original from the
        snapshot point on (same policy, same stamps)."""
        tail = [req(30 + i, f"u{i}", 700 + i * 13) for i in range(30)]

        original = warmed_cache()
        for request in tail:
            original.access(request)

        restored = restore_cache(
            snapshot_cache(warmed_cache()), policy=KeyPolicy([SIZE]),
        )
        for request in tail:
            restored.access(request)

        assert sorted(e.url for e in restored.entries()) == sorted(
            e.url for e in original.entries()
        )
        assert restored.used_bytes == original.used_bytes
        assert restored.eviction_count == original.eviction_count

    def test_file_roundtrip(self, tmp_path):
        cache = warmed_cache()
        path = save_cache(cache, tmp_path / "cache.json")
        restored = load_cache(path, policy=KeyPolicy([SIZE]))
        assert len(restored) == len(cache)

    def test_mutable_policy_restoration(self):
        cache = SimCache(capacity=3000, policy=KeyPolicy([ATIME]))
        cache.access(req(0, "old", 1000))
        cache.access(req(50, "new", 1000))
        restored = restore_cache(
            snapshot_cache(cache), policy=KeyPolicy([ATIME]),
        )
        result = restored.access(req(60, "incoming", 1500))
        assert [e.url for e in result.evicted] == ["old"]


class TestFileEnvelope:
    """The checksummed format-2 on-disk envelope (atomic writes)."""

    def test_envelope_round_trip(self, tmp_path):
        import json

        cache = warmed_cache()
        path = save_cache(cache, tmp_path / "cache.json")
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["format"] == 2
        assert set(document) == {"format", "checksum", "snapshot"}
        restored = load_cache(path, policy=KeyPolicy([SIZE]))
        assert len(restored) == len(cache)
        assert restored.used_bytes == cache.used_bytes

    def test_checksum_detects_corruption(self, tmp_path):
        cache = warmed_cache()
        path = save_cache(cache, tmp_path / "cache.json")
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace('"nref": 2', '"nref": 7'))
        with pytest.raises(ValueError, match="checksum"):
            load_cache(path, policy=KeyPolicy([SIZE]))

    def test_bare_snapshot_is_rejected(self, tmp_path):
        """A file without the envelope carries no checksum; loading it
        would restore unverified bytes."""
        import json

        path = tmp_path / "bare.json"
        path.write_text(
            json.dumps(snapshot_cache(warmed_cache())), encoding="utf-8",
        )
        with pytest.raises(ValueError, match="not a checksummed snapshot"):
            load_cache(path, policy=KeyPolicy([SIZE]))

    def test_envelope_missing_its_format_key_is_rejected(self, tmp_path):
        import json

        path = save_cache(warmed_cache(), tmp_path / "cache.json")
        document = json.loads(path.read_text(encoding="utf-8"))
        del document["format"]
        document["snapshot"]["entries"][0]["nref"] = 7   # and tampered
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ValueError, match="not a checksummed snapshot"):
            load_cache(path, policy=KeyPolicy([SIZE]))

    def test_save_is_atomic_under_torn_write(self, tmp_path):
        from repro.durability import atomic_write_text
        from repro.faults import FaultKind, FaultPlan, FaultRule

        cache = warmed_cache()
        path = save_cache(cache, tmp_path / "cache.json")
        plan = FaultPlan(
            rules=(FaultRule(kind=FaultKind.TORN_WRITE, truncate_to=10),),
        )
        with pytest.raises(OSError):
            atomic_write_text(
                path, '{"replacement": true}\n', faults=plan.disk_injector(),
            )
        # The original (valid) snapshot is still fully loadable.
        restored = load_cache(path, policy=KeyPolicy([SIZE]))
        assert len(restored) == len(cache)


class TestValidation:
    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            restore_cache({"format": 99, "entries": []})

    def test_duplicate_urls_rejected(self):
        snapshot = snapshot_cache(warmed_cache())
        snapshot["entries"].append(dict(snapshot["entries"][0]))
        with pytest.raises(ValueError):
            restore_cache(snapshot, policy=KeyPolicy([SIZE]))

    def test_over_capacity_rejected(self):
        snapshot = snapshot_cache(warmed_cache())
        snapshot["capacity"] = 100
        with pytest.raises(ValueError):
            restore_cache(snapshot, policy=KeyPolicy([SIZE]))

    def test_infinite_cache_snapshot(self):
        cache = SimCache(capacity=None)
        cache.access(req(0, "a", 10))
        restored = restore_cache(snapshot_cache(cache))
        assert restored.capacity is None
        assert "a" in restored


class TestWarmStart:
    def test_warm_start_raises_early_hit_rate(self):
        """Warm-starting with day-one state lifts the second day's HR —
        quantifying the cold-start transient the paper's curves include."""
        from repro.workloads import generate_valid
        from repro.trace.tools import split_by_day
        trace = generate_valid("C", seed=31, scale=0.05)
        days = split_by_day(trace)
        ordered_days = sorted(days)
        first = [r for d in ordered_days[: len(ordered_days) // 2]
                 for r in days[d]]
        second = [r for d in ordered_days[len(ordered_days) // 2:]
                  for r in days[d]]

        cold = simulate(second, SimCache(capacity=None))

        warm_cache = SimCache(capacity=None)
        for request in first:
            warm_cache.access(request)
        warm = simulate(
            second,
            restore_cache(snapshot_cache(warm_cache)),
        )
        assert warm.hit_rate > cold.hit_rate
