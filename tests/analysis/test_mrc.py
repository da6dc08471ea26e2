"""Differential and statistical tests for the single-pass MRC engine.

The differential harness is the measuring stick ROADMAP item 2 demands:
the exact sweep grid and the single-pass estimator run over the same
seeded trace, and every (key, fraction) point of both the HR and WHR
curves must agree within the documented bound.  The statistical class
then checks the *error bars*: the exact value must fall inside the
reported confidence interval for at least 90% of points.

Everything here is pinned — trace seed, scale, salts (0..replicates-1),
tie-break seed — so the assertions are deterministic, not flaky.
"""

import pytest

from repro.analysis.mrc import (
    MRCCurvesError,
    single_pass_mrc,
    read_curves,
    write_curves,
)
from repro.analysis.sweeps import miss_ratio_curve
from repro.core import SimCache, simulate
from repro.core.experiments import max_needed_for
from repro.core.keys import TAXONOMY_KEYS
from repro.core.policy import KeyPolicy
from repro.workloads import generate_valid

# The pinned differential configuration: 10% base sampling on the seeded
# BL trace, all six primary keys over the default 8-fraction grid.
MRC_TRACE_SEED = 19
MRC_SCALE = 0.2
MRC_RATE = 0.10
MRC_REPLICATES = 8
MRC_CONFIDENCE = 0.99
MRC_FRACTIONS = (0.02, 0.05, 0.10, 0.20, 0.35, 0.50, 0.75, 1.0)

#: The acceptance bound: every point within 2 percentage points.
MAX_ERROR_PP = 2.0

#: The error-bar acceptance: exact inside the CI for >= 90% of points.
MIN_COVERAGE = 0.90


@pytest.fixture(scope="module")
def pinned():
    """The exact grid and the single-pass estimate over one seeded trace
    (computed once; every differential/statistical test reads it)."""
    trace = generate_valid("BL", seed=MRC_TRACE_SEED, scale=MRC_SCALE)
    max_needed = max_needed_for(trace)
    exact = {}
    for key in TAXONOMY_KEYS:
        for fraction in MRC_FRACTIONS:
            cache = SimCache(
                capacity=max(1, int(fraction * max_needed)),
                policy=KeyPolicy([key]),
                seed=0,
            )
            result = simulate(trace, cache)
            exact[(key.name, fraction)] = (
                result.hit_rate, result.weighted_hit_rate,
            )
    estimate = single_pass_mrc(
        trace, max_needed,
        rate=MRC_RATE, replicates=MRC_REPLICATES,
        fractions=MRC_FRACTIONS, confidence=MRC_CONFIDENCE, seed=0,
    )
    return trace, max_needed, exact, estimate


@pytest.fixture(scope="module")
def small_run():
    """A cheap run for API/envelope/wiring tests (accuracy not asserted)."""
    trace = generate_valid("BL", seed=7, scale=0.05)
    max_needed = max_needed_for(trace)
    result = single_pass_mrc(
        trace, max_needed, rate=0.25, replicates=2,
        fractions=(0.10, 0.50), keys=["SIZE", "ATIME"],
    )
    return trace, max_needed, result


class TestDifferential:
    """Single-pass vs exact, all six keys, HR and WHR, every fraction."""

    @pytest.mark.parametrize("key", [k.name for k in TAXONOMY_KEYS])
    def test_hr_within_bound(self, pinned, key):
        _, _, exact, estimate = pinned
        for fraction, hr, _ in estimate.curve(key):
            exact_hr, _ = exact[(key, fraction)]
            assert hr == pytest.approx(exact_hr, abs=MAX_ERROR_PP), (
                f"{key}@{fraction}: single-pass HR {hr:.2f} vs "
                f"exact {exact_hr:.2f}"
            )

    @pytest.mark.parametrize("key", [k.name for k in TAXONOMY_KEYS])
    def test_whr_within_bound(self, pinned, key):
        _, _, exact, estimate = pinned
        for fraction, whr, _ in estimate.curve(key, weighted=True):
            _, exact_whr = exact[(key, fraction)]
            assert whr == pytest.approx(exact_whr, abs=MAX_ERROR_PP), (
                f"{key}@{fraction}: single-pass WHR {whr:.2f} vs "
                f"exact {exact_whr:.2f}"
            )

    def test_every_point_estimated(self, pinned):
        _, _, exact, estimate = pinned
        estimated = {(p.key, p.fraction) for p in estimate.points}
        assert estimated == set(exact)


class TestStatisticalCoverage:
    """The error bars must be honest: across the pinned salts, the exact
    curve falls inside mean +/- CI for >= 90% of (key, fraction) points."""

    def test_replicate_count(self, pinned):
        _, _, _, estimate = pinned
        assert estimate.replicates >= 8

    def test_hr_coverage(self, pinned):
        _, _, exact, estimate = pinned
        covered = total = 0
        for point in estimate.points:
            exact_hr, _ = exact[(point.key, point.fraction)]
            total += 1
            if abs(point.hr - exact_hr) <= point.hr_ci:
                covered += 1
        assert covered / total >= MIN_COVERAGE, (
            f"HR coverage {covered}/{total}"
        )

    def test_whr_coverage(self, pinned):
        _, _, exact, estimate = pinned
        covered = total = 0
        for point in estimate.points:
            _, exact_whr = exact[(point.key, point.fraction)]
            total += 1
            if abs(point.whr - exact_whr) <= point.whr_ci:
                covered += 1
        assert covered / total >= MIN_COVERAGE, (
            f"WHR coverage {covered}/{total}"
        )


class TestResultShape:
    def test_points_follow_caller_order(self, small_run):
        _, _, result = small_run
        assert [f for f, _, _ in result.curve("SIZE")] == [0.10, 0.50]

    def test_unsorted_fractions_preserved(self):
        trace = generate_valid("BL", seed=7, scale=0.05)
        max_needed = max_needed_for(trace)
        result = single_pass_mrc(
            trace, max_needed, rate=0.5, replicates=1,
            fractions=(0.50, 0.10), keys=["SIZE"],
        )
        assert [p.fraction for p in result.points] == [0.50, 0.10]

    def test_unknown_key_raises(self, small_run):
        _, _, result = small_run
        with pytest.raises(KeyError):
            result.curve("NREF")

    def test_single_replicate_has_no_bars(self):
        trace = generate_valid("BL", seed=7, scale=0.05)
        max_needed = max_needed_for(trace)
        result = single_pass_mrc(
            trace, max_needed, rate=0.5, replicates=1,
            fractions=(0.10,), keys=["SIZE"],
        )
        point = result.points[0]
        assert point.hr_ci is None and point.whr_ci is None

    def test_estimates_in_range(self, small_run):
        _, _, result = small_run
        for point in result.points:
            assert 0.0 <= point.hr <= 100.0
            assert 0.0 <= point.whr <= 100.0
            assert 0.0 < point.rate <= 1.0

    def test_full_fraction_tracks_infinite(self):
        """At fraction 1.0 nothing starves, so the estimate lands on the
        infinite cache's hit rate regardless of key."""
        trace = generate_valid("BL", seed=7, scale=0.05)
        max_needed = max_needed_for(trace)
        infinite = simulate(trace, SimCache(capacity=None))
        result = single_pass_mrc(
            trace, max_needed, rate=0.5, replicates=4,
            fractions=(1.0,), keys=["SIZE", "NREF"],
        )
        for point in result.points:
            assert point.hr == pytest.approx(infinite.hit_rate, abs=2.0)


class TestValidation:
    def setup_method(self):
        self.trace = generate_valid("BL", seed=7, scale=0.05)
        self.max_needed = max_needed_for(self.trace)

    def test_bad_rate(self):
        for rate in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                single_pass_mrc(self.trace, self.max_needed, rate=rate)

    def test_bad_replicates(self):
        with pytest.raises(ValueError):
            single_pass_mrc(self.trace, self.max_needed, replicates=0)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            single_pass_mrc(self.trace, self.max_needed, fractions=())
        with pytest.raises(ValueError):
            single_pass_mrc(self.trace, self.max_needed, fractions=(0.0,))

    def test_bad_confidence(self):
        with pytest.raises(ValueError):
            single_pass_mrc(self.trace, self.max_needed, confidence=0.5)

    def test_bad_max_needed(self):
        with pytest.raises(ValueError):
            single_pass_mrc(self.trace, 0)

    def test_salts_must_match_replicates(self):
        with pytest.raises(ValueError):
            single_pass_mrc(
                self.trace, self.max_needed, replicates=2, salts=(1,),
            )

    def test_empty_trace(self):
        with pytest.raises(ValueError):
            single_pass_mrc([], self.max_needed)


class TestCurvesEnvelope:
    """The --curves-out JSONL carries the PR-4 style checksum trailer."""

    def test_round_trip(self, small_run, tmp_path):
        _, _, result = small_run
        path = tmp_path / "curves.jsonl"
        count = write_curves(result, path)
        records = read_curves(path)
        assert count == len(records) == len(result.points)
        assert records == result.records()

    def test_missing_file(self, tmp_path):
        with pytest.raises(MRCCurvesError, match="cannot read"):
            read_curves(tmp_path / "nope.jsonl")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "curves.jsonl"
        path.write_text("")
        with pytest.raises(MRCCurvesError, match="empty"):
            read_curves(path)

    def test_truncated(self, small_run, tmp_path):
        _, _, result = small_run
        path = tmp_path / "curves.jsonl"
        write_curves(result, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the trailer
        with pytest.raises(MRCCurvesError, match="missing checksum"):
            read_curves(path)

    def test_corrupted_line(self, small_run, tmp_path):
        _, _, result = small_run
        path = tmp_path / "curves.jsonl"
        write_curves(result, path)
        text = path.read_text().replace('"hr"', '"hx"', 1)
        path.write_text(text)
        with pytest.raises(MRCCurvesError, match="checksum mismatch"):
            read_curves(path)

    def test_trailing_garbage(self, small_run, tmp_path):
        _, _, result = small_run
        path = tmp_path / "curves.jsonl"
        write_curves(result, path)
        with path.open("a") as handle:
            handle.write('{"day": 1}\n')
        with pytest.raises(MRCCurvesError, match="after the checksum"):
            read_curves(path)


class TestObservability:
    def test_counters_and_phases_recorded(self):
        from repro.obs import Obs

        obs = Obs.create()
        trace = generate_valid("BL", seed=7, scale=0.05)
        max_needed = max_needed_for(trace)
        result = single_pass_mrc(
            trace, max_needed, rate=0.5, replicates=2,
            fractions=(0.10, 0.50), keys=["SIZE"], obs=obs,
        )
        snapshot = obs.registry.snapshot()

        def value(name):
            return snapshot[name]["samples"][0]["value"]

        assert value("repro_mrc_requests_total") == len(trace)
        assert value("repro_mrc_replicates_total") == 2
        assert value("repro_mrc_points_total") == len(result.points) == 2
        assert value("repro_mrc_shadow_accesses_total") > 0
        phases = {
            tuple(sorted(s["labels"].items()))
            for s in snapshot["repro_mrc_phase_seconds"]["samples"]
        }
        assert phases == {
            (("phase", "scan"),),
            (("phase", "shadow_bank"),),
            (("phase", "estimate"),),
        }

    def test_profiler_phase_stacks(self):
        from repro.obs import Obs
        from repro.obs.profile import Profiler

        obs = Obs.create()
        obs.profiler = Profiler()
        trace = generate_valid("BL", seed=7, scale=0.05)
        max_needed = max_needed_for(trace)
        single_pass_mrc(
            trace, max_needed, rate=0.5, replicates=1,
            fractions=(0.10,), keys=["SIZE"], obs=obs,
        )
        stacks = obs.profiler.collapsed()
        assert ("mrc", "shadow_bank") in stacks


class TestSweepsWiring:
    """miss_ratio_curve(engine='single-pass') rides the same engine."""

    def test_matches_engine_directly(self):
        from repro.core.policy import policy_from_names

        trace = generate_valid("BL", seed=7, scale=0.05)
        max_needed = max_needed_for(trace)
        via_sweeps = miss_ratio_curve(
            trace, lambda: policy_from_names("SIZE"), max_needed,
            fractions=(0.10, 0.50), engine="single-pass",
            sample_rate=0.5, replicates=2,
        )
        direct = single_pass_mrc(
            trace, max_needed, rate=0.5, replicates=2,
            fractions=(0.10, 0.50), keys=["SIZE"],
        )
        assert via_sweeps == direct.miss_curve("SIZE")

    def test_rejects_stateful_policies(self):
        from repro.core import GreedyDualSize

        trace = generate_valid("BL", seed=7, scale=0.05)
        max_needed = max_needed_for(trace)
        with pytest.raises(ValueError, match="single-key KeyPolicy"):
            miss_ratio_curve(
                trace, GreedyDualSize, max_needed,
                fractions=(0.10,), engine="single-pass",
            )

    def test_rejects_unknown_engine(self):
        from repro.core import size_policy

        trace = generate_valid("BL", seed=7, scale=0.05)
        max_needed = max_needed_for(trace)
        with pytest.raises(ValueError, match="unknown engine"):
            miss_ratio_curve(
                trace, size_policy, max_needed,
                fractions=(0.10,), engine="sideways",
            )


class TestBenchSpeedup:
    def test_bench_records_speedup(self):
        """The acceptance gate: the single-pass estimate of the
        8-fraction x 6-key curve set beats the exact grid by >= 5x.

        The single pass runs the speed configuration — one replicate, no
        size floor — because this measures *hot-path cost*, not
        estimation error (the differential classes above own accuracy).
        """
        import gc
        import time

        trace = generate_valid("BL", seed=1996, scale=0.05)
        max_needed = max_needed_for(trace)

        def exact_grid():
            for key in TAXONOMY_KEYS:
                for fraction in MRC_FRACTIONS:
                    cache = SimCache(
                        capacity=max(1, int(fraction * max_needed)),
                        policy=KeyPolicy([key]),
                        seed=0,
                    )
                    simulate(trace, cache)

        def single_pass():
            single_pass_mrc(
                trace, max_needed, rate=MRC_RATE, replicates=1,
                fractions=MRC_FRACTIONS, seed=0, size_floor=0.0,
            )

        # Each side's time is its least over interleaved repeats: the
        # single pass takes tens of milliseconds on this trace, so one
        # scheduler stall in a lone reading would halve the ratio.  The
        # collector is off while timing, as in ``timeit``: what a full
        # collection costs depends on the test runner's heap, not on the
        # code being timed.
        exact_seconds = single_pass_seconds = float("inf")
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(3):
                started = time.perf_counter()
                exact_grid()
                middle = time.perf_counter()
                single_pass()
                finished = time.perf_counter()
                exact_seconds = min(exact_seconds, middle - started)
                single_pass_seconds = min(
                    single_pass_seconds, finished - middle,
                )
        finally:
            if gc_was_enabled:
                gc.enable()
        assert exact_seconds / single_pass_seconds >= 5.0
