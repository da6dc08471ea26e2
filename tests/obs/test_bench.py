"""Tests for the ``repro bench`` payload and regression gate: quantile
estimation, schema round trips, and the comparator — it must pass an unchanged tree and catch an
injected 2x slowdown in a sentinel policy."""

import copy
import json

import pytest

from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    BenchError,
    bench_meta,
    compare_bench,
    histogram_quantile,
    load_bench,
    render_comparison,
    write_payload,
)


def make_payload(rps=100_000.0, seconds=None):
    """A minimal current-schema payload, six equal policies by default."""
    seconds = seconds or {
        f"P{i}/RANDOM": 10.0 for i in range(6)
    }
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "kind": "repro-bench",
        "meta": bench_meta(workers=1),
        "grid": {"workload": "BL", "policies": sorted(seconds)},
        "throughput": {
            "wall_seconds": sum(seconds.values()),
            "simulated_requests": 1_000_000,
            "requests_per_second": rps,
        },
        "policies": {
            name: {"seconds": value, "phases": {}}
            for name, value in seconds.items()
        },
    }


class TestHistogramQuantile:
    def test_empty_is_zero(self):
        assert histogram_quantile(0.5, [0.001, 0.01], [0, 0]) == 0.0

    def test_interpolates_within_bucket(self):
        # 10 observations all landing in (0.0, 1.0]: p50 -> 0.5.
        assert histogram_quantile(0.5, [1.0], [10]) == pytest.approx(0.5)

    def test_spans_buckets(self):
        # 5 in (0,1], 5 in (1,2]: p95 lands in the second bucket.
        value = histogram_quantile(0.95, [1.0, 2.0], [5, 5])
        assert 1.0 < value <= 2.0

    def test_inf_bucket_clamps_to_highest_edge(self):
        assert histogram_quantile(
            0.99, [1.0, 2.0], [1, 0], inf_count=99,
        ) == 2.0


class TestLoadBench:
    def test_round_trip(self, tmp_path):
        payload = make_payload()
        path = tmp_path / "BENCH.json"
        write_payload(payload, path)
        assert load_bench(path) == payload

    def test_missing_file(self, tmp_path):
        with pytest.raises(BenchError, match="cannot read"):
            load_bench(tmp_path / "absent.json")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("", encoding="utf-8")
        with pytest.raises(BenchError, match="is empty"):
            load_bench(path)

    def test_truncated_json(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text('{"schema": 2, "thr', encoding="utf-8")
        with pytest.raises(BenchError, match="not valid JSON"):
            load_bench(path)

    def test_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(BenchError, match="not a JSON object"):
            load_bench(path)

    def test_unsupported_schema(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text('{"schema": 99}', encoding="utf-8")
        with pytest.raises(BenchError, match="unsupported schema"):
            load_bench(path)

    def test_committed_baseline_loads(self):
        """The checked-in baseline must stay readable — CI compares
        against it on every push."""
        payload = load_bench("benchmarks/results/BENCH_sweep.json")
        assert payload["schema"] == BENCH_SCHEMA_VERSION
        assert set(payload["policies"]) == {
            "SIZE/RANDOM", "LOG2SIZE/RANDOM", "ETIME/RANDOM",
            "ATIME/RANDOM", "DAY(ATIME)/RANDOM", "NREF/RANDOM",
        }
        for stats in payload["policies"].values():
            assert stats["seconds"] > 0
            assert set(stats["phases"]) == {"lookup", "evict", "admit"}
        # The schema-3 addition: the single-pass MRC curve-set timing.
        mrc = payload["mrc"]
        assert len(mrc["keys"]) == 6
        assert len(mrc["fractions"]) == 8
        assert mrc["speedup"] >= 5.0
        assert mrc["exact_grid_seconds"] > mrc["single_pass_seconds"] > 0


class TestCompareBench:
    def test_identical_payloads_pass(self):
        payload = make_payload()
        assert compare_bench(payload, copy.deepcopy(payload)) == []

    def test_small_noise_passes(self):
        baseline = make_payload(rps=100_000.0)
        current = make_payload(rps=95_000.0)  # -5%, under the 15% gate
        for stats in current["policies"].values():
            stats["seconds"] *= 1.08
        assert compare_bench(baseline, current) == []

    def test_throughput_regression_detected(self):
        baseline = make_payload(rps=100_000.0)
        current = make_payload(rps=80_000.0)  # -20%
        regressions = compare_bench(baseline, current)
        assert [r["kind"] for r in regressions] == ["throughput"]
        assert regressions[0]["change_pct"] == pytest.approx(-20.0)

    def test_threshold_is_a_floor_not_a_ratio(self):
        """A 15% threshold passes a 14% drop and fails a 16% drop —
        the gate is ``current < baseline * (1 - threshold)``."""
        baseline = make_payload(rps=100_000.0)
        assert compare_bench(baseline, make_payload(rps=86_000.0)) == []
        assert compare_bench(baseline, make_payload(rps=84_000.0))

    def test_sentinel_policy_slowdown_detected(self):
        """Acceptance check: inject a 2x slowdown into one sentinel
        policy; the per-policy gate catches it (both absolute seconds
        and share of grid grow past the threshold)."""
        baseline = make_payload()
        current = copy.deepcopy(baseline)
        sentinel = "P3/RANDOM"
        current["policies"][sentinel]["seconds"] *= 2.0
        regressions = compare_bench(baseline, current)
        assert len(regressions) == 1
        (regression,) = regressions
        assert regression["kind"] == "policy"
        assert regression["policy"] == sentinel
        assert regression["seconds_ratio"] == pytest.approx(2.0)
        assert regression["share_ratio"] > 1.15
        text = render_comparison(regressions, baseline, current)
        assert f"FAIL policy {sentinel}" in text

    def test_uniform_machine_slowdown_passes(self):
        """A uniformly slower runner doubles every policy's seconds but
        leaves shares flat — the per-policy gate must not fire (only the
        throughput gate judges overall speed, against req/s)."""
        baseline = make_payload()
        current = copy.deepcopy(baseline)
        for stats in current["policies"].values():
            stats["seconds"] *= 2.0
        regressions = compare_bench(baseline, current)
        assert [r for r in regressions if r["kind"] == "policy"] == []

    def test_invalid_threshold(self):
        with pytest.raises(BenchError, match="positive"):
            compare_bench(make_payload(), make_payload(), threshold_pct=0)

    def test_render_pass_verdict(self):
        payload = make_payload()
        text = render_comparison([], payload, payload)
        assert "PASS: no regression beyond threshold" in text
