"""Tests for the deterministic profiler: sample aggregation, the cache
phase timer, and the instrumented-vs-plain differential (profiling can
never change simulation results)."""

import pytest

from repro.core import SimCache, simulate
from repro.core.cache import MISS, MISS_MODIFIED
from repro.obs.metrics import Registry
from repro.obs.profile import CachePhaseTimer, Profiler
from repro.workloads import generate_valid


class TestProfiler:
    def test_record_aggregates_by_stack(self):
        profiler = Profiler()
        profiler.record(("a", "b"), 0.5)
        profiler.record(("a", "b"), 0.25, count=3)
        profiler.record(("a",), 1.0)
        assert profiler.collapsed()[("a", "b")] == (0.75, 4)
        assert profiler.collapsed()[("a",)] == (1.0, 1)

    def test_disabled_profiler_records_nothing(self):
        profiler = Profiler(enabled=False)
        profiler.record(("a",), 1.0)
        assert profiler.collapsed() == {}

    def test_total_seconds_prefix_filter(self):
        profiler = Profiler()
        profiler.record(("sim", "lookup"), 1.0)
        profiler.record(("sim", "admit"), 2.0)
        profiler.record(("other",), 4.0)
        assert profiler.total_seconds("sim") == pytest.approx(3.0)
        assert profiler.total_seconds() == pytest.approx(7.0)


class TestCachePhaseTimer:
    def test_feeds_profiler_and_histogram(self):
        registry = Registry()
        profiler = Profiler()
        timer = CachePhaseTimer(
            policy="SIZE", registry=registry, profiler=profiler,
        )
        timer.observe("lookup", 0.002)
        timer.observe("lookup", 0.001)
        timer.observe("admit", 0.004)
        assert timer.summary()["lookup"] == {
            "seconds": pytest.approx(0.003), "count": 2,
        }
        assert profiler.collapsed()[
            ("sim.replay", "cache.access", "lookup")
        ] == (pytest.approx(0.003), 2)
        snapshot = registry.snapshot()["repro_sim_phase_seconds"]
        counts = {
            (sample["labels"]["policy"], sample["labels"]["phase"]):
                sample["count"]
            for sample in snapshot["samples"]
        }
        assert counts[("SIZE", "lookup")] == 2
        assert counts[("SIZE", "admit")] == 1

    def test_custom_prefix(self):
        profiler = Profiler()
        timer = CachePhaseTimer(
            policy="SIZE", profiler=profiler,
            prefix=("proxy.request", "store.access"),
        )
        timer.observe("evict", 0.001)
        assert ("proxy.request", "store.access", "evict") in (
            profiler.collapsed()
        )


class TestInstrumentedDifferential:
    def test_profiling_never_changes_results(self):
        """The instrumented access path performs the same operations in
        the same order, so HR/WHR/evictions/outcomes match the plain
        path exactly."""
        trace = generate_valid("BL", seed=42, scale=0.01)

        def run(profiler):
            cache = SimCache(capacity=64 * 1024, seed=0)
            return simulate(trace, cache, profiler=profiler)

        plain = run(None)
        profiler = Profiler()
        timed = run(profiler)
        assert timed.hit_rate == plain.hit_rate
        assert timed.weighted_hit_rate == plain.weighted_hit_rate
        assert timed.outcomes == plain.outcomes
        assert timed.cache.eviction_count == plain.cache.eviction_count
        assert timed.cache.evicted_bytes == plain.cache.evicted_bytes
        # ... and the profile actually measured the replay.
        lookups = profiler.collapsed()[
            ("sim.replay", "cache.access", "lookup")
        ]
        assert lookups[1] == plain.metrics.total_requests
        assert profiler.total_seconds("sim.replay") > 0.0

    def test_profiled_run_goes_through_the_one_access_path(self):
        """There is no instrumented twin: a cache with a phase timer
        attached runs the same ``access_code`` function, and the timer
        sees one lookup per request and one evict + admit per admitted
        document."""
        assert not [
            name for name in vars(SimCache) if name.startswith("_timed")
        ]
        trace = generate_valid("BL", seed=42, scale=0.01)
        plain = SimCache(capacity=64 * 1024, seed=0)
        timed = SimCache(capacity=64 * 1024, seed=0)
        timer = CachePhaseTimer(policy=timed.policy.name)
        timed.set_phase_timer(timer)
        assert timed.access_code.__func__ is plain.access_code.__func__
        assert "access_code" not in vars(timed)
        codes = [timed.access_code(request) for request in trace]
        assert codes == [plain.access_code(request) for request in trace]
        # Every MISS stores the document; a MISS_MODIFIED does unless the
        # new copy is larger than the whole cache.
        admits = sum(
            1 for request, code in zip(trace, codes)
            if code == MISS
            or (code == MISS_MODIFIED and request.size <= timed.capacity)
        )
        assert timer.counts["lookup"] == len(trace)
        assert timer.counts["evict"] == timer.counts["admit"]
        assert timer.counts["admit"] == admits > 0
