"""Differential tests pinning the day series' guarantees:

* one job has one day series and one figure — from ``simulate()``, from
  ``run_sweep`` and from a result-cache hit — even when the trace clock
  steps backwards, and nothing builds a recorder until it is read,
* a parallel sweep's recorders (built from worker exports) are
  identical to the serial path's, sample for sample, and
* a result-cache round trip gives the same recorder.
"""

import json

import pytest

from repro.analysis.figures import fig3_7_infinite_cache
from repro.core import RANDOM, SIZE, KeyPolicy, SimCache, simulate
from repro.core.experiments import max_needed_for, run_two_level
from repro.core.partitioned import simulate_partitioned
from repro.core.sweep import (
    PolicySpec,
    ResultCache,
    SimOptions,
    SweepJob,
    record_to_result,
    result_to_record,
    run_sweep,
)
from repro.obs.timeseries import TimeSeriesRecorder
from repro.trace import Request
from repro.workloads import generate_valid

SEED = 1996


@pytest.fixture(scope="module")
def trace():
    return generate_valid("BL", seed=SEED, scale=0.04)


@pytest.fixture(scope="module")
def capacity(trace):
    return max(1, int(0.10 * max_needed_for(trace)))


def grid_jobs(capacity):
    return [
        SweepJob(
            spec=PolicySpec(keys=(primary, "RANDOM")),
            capacity=capacity,
            options=SimOptions(seed=SEED),
        )
        for primary in ("SIZE", "NREF", "ATIME")
    ]


def backwards_clock_trace():
    """Five requests whose clock steps back over midnight: day 0 gets
    two requests, then day 1 two, then day 0 three more."""
    return [
        Request(timestamp=10.0, url="http://a/x", size=100),
        Request(timestamp=86405.0, url="http://a/x", size=100),
        Request(timestamp=86406.0, url="http://a/y", size=50),
        Request(timestamp=20.0, url="http://a/y", size=50),
        Request(timestamp=30.0, url="http://a/z", size=10),
    ]


class TestOneJobOneFigure:
    def test_live_sweep_and_cached_results_agree(self, tmp_path):
        """A job has one day series however its result was obtained.

        At the parent the live recorder (ticked at each boundary the
        clock crossed) read day 0 as 40.0 % while the collector, and the
        recorder every ``run_sweep`` result was rebuilt with, read
        33.3 %."""
        trace = backwards_clock_trace()
        job = SweepJob(spec=PolicySpec(keys=("SIZE", "RANDOM")), capacity=None)
        cache = ResultCache(tmp_path / "results")
        live = simulate(trace, SimCache(capacity=None), name="SIZE")
        swept = run_sweep(trace, [job], result_cache=cache).results[0]
        served = run_sweep(trace, [job], result_cache=cache).results[0]
        assert not swept.from_cache and served.from_cache

        assert live.metrics.days[0].hit_rate == pytest.approx(100.0 / 3.0)
        samples = live.timeseries.samples()
        day0 = {
            sample["metric"]: sample["value"]
            for sample in samples if sample["day"] == 0
        }
        assert day0["repro_sim_ts_hits_total"] == 1.0
        assert day0["repro_sim_ts_requests_total"] == 3.0
        figure = json.dumps(
            fig3_7_infinite_cache(live, "U").series, sort_keys=True,
        )
        for other in (swept.result, served.result):
            assert other.metrics == live.metrics
            assert other.timeseries.samples() == samples
            assert json.dumps(
                fig3_7_infinite_cache(other, "U").series, sort_keys=True,
            ) == figure

    def test_no_recorder_is_built_until_the_series_is_read(
        self, trace, capacity, tmp_path, monkeypatch,
    ):
        built = []
        original = TimeSeriesRecorder.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(TimeSeriesRecorder, "__init__", counting_init)
        small = trace[:400]
        result = simulate(small, SimCache(capacity=capacity, seed=SEED))
        two_level = run_two_level(small, 10 * capacity)
        split = simulate_partitioned(
            small, capacity, {"audio": 0.5, "non-audio": 0.5},
            policy_factory=lambda: KeyPolicy([SIZE, RANDOM]),
        )
        record_to_result(result_to_record(result))
        cache = ResultCache(tmp_path / "results")
        run_sweep(small, grid_jobs(capacity), result_cache=cache)
        warm = run_sweep(small, grid_jobs(capacity), result_cache=cache)
        fig3_7_infinite_cache(result, "BL")
        assert built == []
        for holder in (result, two_level, split, warm.results[0].result):
            assert holder.timeseries.samples()
        assert len(built) == 4


class TestSweepRecorderIdentity:
    def test_serial_and_parallel_recorders_identical(self, trace, capacity):
        """Workers rebuild each job's recorder from exported day
        counters; the reconstruction must be indistinguishable from the
        in-process original — same samples, same checksum."""
        serial = run_sweep(trace, grid_jobs(capacity), workers=1)
        parallel = run_sweep(trace, grid_jobs(capacity), workers=2)
        for ours, theirs in zip(serial.results, parallel.results):
            assert ours.result.name == theirs.result.name
            a = ours.result.timeseries
            b = theirs.result.timeseries
            assert a is not None and b is not None
            assert a.samples() == b.samples(), ours.result.name
            assert a.checksum() == b.checksum(), ours.result.name

    def test_result_cache_round_trip_rebuilds_recorder(
        self, trace, capacity, tmp_path,
    ):
        cache = ResultCache(tmp_path / "results")
        cold = run_sweep(trace, grid_jobs(capacity), result_cache=cache)
        warm = run_sweep(trace, grid_jobs(capacity), result_cache=cache)
        assert any(jr.from_cache for jr in warm.results)
        for ours, theirs in zip(cold.results, warm.results):
            assert ours.result.timeseries.samples() == (
                theirs.result.timeseries.samples()
            )
            assert ours.result.timeseries.checksum() == (
                theirs.result.timeseries.checksum()
            )
