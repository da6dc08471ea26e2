"""Differential tests: observability must never perturb results.

Three invariants, all consequences of the instrumentation rules in
DESIGN.md §8 (read state only, flush metrics after the replay loop,
absorb worker telemetry in job order):

* a simulation run with an obs context attached is bit-identical to the
  same run without one;
* a sweep run serially and a sweep run over a process pool produce not
  only bit-identical results but *byte-identical event streams*;
* worker telemetry (metrics, spans, events) aggregates losslessly into
  the parent run's context.
"""

import json

import pytest

from repro.core.cache import AccessOutcome, SimCache
from repro.core.experiments import max_needed_for
from repro.core.policy import taxonomy_policies
from repro.core.simulator import simulate
from repro.core.sweep import (
    RESULT_SCHEMA_VERSION,
    RESULTS_KIND,
    RESULTS_NAME,
    PolicySpec,
    ResultCache,
    SimOptions,
    SweepJob,
    run_sweep,
)
from repro.durability import read_journal, rewrite_journal
from repro.obs import EventLog, Obs, Profiler
from repro.workloads import generate_valid

SEED = 31415
FRACTION = 0.10
N_JOBS = 6


@pytest.fixture(scope="module")
def trace():
    return generate_valid("G", seed=SEED, scale=0.02)


@pytest.fixture(scope="module")
def capacity(trace):
    return max(1, int(FRACTION * max_needed_for(trace)))


def grid_jobs(capacity):
    return [
        SweepJob(
            spec=PolicySpec.from_policy(policy),
            capacity=capacity,
            options=SimOptions(seed=SEED),
            name=policy.name,
        )
        for policy in taxonomy_policies()[:N_JOBS]
    ]


def assert_results_identical(a, b):
    assert a.hit_rate == b.hit_rate
    assert a.weighted_hit_rate == b.weighted_hit_rate
    assert a.outcomes == b.outcomes
    assert a.cache.eviction_count == b.cache.eviction_count
    assert a.cache.max_used_bytes == b.cache.max_used_bytes
    assert a.metrics.hr_series() == b.metrics.hr_series()
    assert a.metrics.whr_series() == b.metrics.whr_series()


class TestSimulateDifferential:
    def _fresh_cache(self, capacity):
        return SimCache(
            capacity=capacity,
            policy=PolicySpec(("LOG2SIZE", "RANDOM")).build(),
            seed=SEED,
        )

    def test_instrumented_matches_uninstrumented(self, trace, capacity):
        plain = simulate(trace, self._fresh_cache(capacity), name="x")
        obs = Obs.create(log_level="debug")
        instrumented = simulate(
            trace, self._fresh_cache(capacity), name="x", obs=obs,
        )
        assert_results_identical(plain, instrumented)
        # The context really collected: replay metrics, events, a span.
        assert obs.registry.value("repro_sim_replays_total") == 1.0
        assert len(obs.events.events(event="replay.done")) == 1
        assert [s["name"] for s in obs.tracer.spans()] == ["sim.replay"]
        # Debug level streams eviction decisions too.
        evictions = obs.events.events(channel="sim", event="evict")
        assert len(evictions) == instrumented.cache.eviction_count

    def test_profiled_matches_plain_through_the_one_path(self, trace, capacity):
        """Phase profiling has no twin access path to drift: the same
        ``access_code`` runs with a timer attached, results are equal,
        and the phase counts are hits + misses lookups and one
        evict + admit per stored document."""
        assert not hasattr(SimCache, "_timed_access")
        assert not hasattr(SimCache, "_timed_admit")
        plain = simulate(trace, self._fresh_cache(capacity), name="x")
        obs = Obs(profiler=Profiler())
        profiled = simulate(
            trace, self._fresh_cache(capacity), name="x", obs=obs,
        )
        assert_results_identical(plain, profiled)
        counts = {
            stack[-1]: count
            for stack, (_, count) in obs.profiler.collapsed().items()
            if stack[:2] == ("sim.replay", "cache.access")
        }
        assert counts["lookup"] == profiled.metrics.total_requests
        # Stored documents are still cached, were evicted, or were
        # replaced by a modified copy.
        stored = (
            len(profiled.cache) + profiled.cache.eviction_count
            + profiled.outcomes[AccessOutcome.MISS_MODIFIED]
        )
        assert counts["evict"] == counts["admit"] == stored

    def test_replay_done_carries_the_headline_numbers(self, trace, capacity):
        obs = Obs.create()
        result = simulate(
            trace, self._fresh_cache(capacity), name="x", obs=obs,
        )
        (event,) = obs.events.events(event="replay.done")
        assert event["hit_rate"] == round(result.hit_rate, 4)
        assert event["requests"] == result.metrics.total_requests
        assert event["eviction_count"] == result.cache.eviction_count


class TestSweepDifferential:
    def test_serial_and_parallel_streams_are_byte_identical(
        self, trace, capacity,
    ):
        serial = run_sweep(trace, grid_jobs(capacity), workers=1)
        parallel = run_sweep(trace, grid_jobs(capacity), workers=2)

        for a, b in zip(serial.results, parallel.results):
            assert_results_identical(a.result, b.result)

        # The event streams — seq, channels, every field — match byte
        # for byte: worker exports are absorbed in job order, and
        # completion events carry no timings.
        assert (
            json.dumps(serial.obs.events.to_dicts(), sort_keys=True)
            == json.dumps(parallel.obs.events.to_dicts(), sort_keys=True)
        )
        # Counter families agree exactly (histogram sums carry wall
        # time, so compare observation counts instead).
        for name in ("repro_sweep_jobs_total",):
            assert (
                serial.obs.registry.value(name, source="computed")
                == parallel.obs.registry.value(name, source="computed")
                == N_JOBS
            )
        assert (
            serial.obs.registry.value("repro_sim_replays_total")
            == parallel.obs.registry.value("repro_sim_replays_total")
            == N_JOBS
        )
        serial_h = serial.obs.registry.get("repro_sweep_job_seconds")
        parallel_h = parallel.obs.registry.get("repro_sweep_job_seconds")
        assert serial_h.count == parallel_h.count == N_JOBS


class TestWorkerTelemetryAggregation:
    def test_parallel_run_collects_everything(self, trace, capacity):
        caller = Obs.create()
        report = run_sweep(
            trace, grid_jobs(capacity), workers=2, obs=caller,
        )
        # Without a result cache every job is computed.
        assert report.cache_misses == N_JOBS
        assert report.cache_hits == 0
        assert report.retried_jobs == 0

        # One replay.done per job (from the workers), one job.done per
        # grid cell (from the parent), in job order.
        done = report.obs.events.events(event="job.done")
        assert [e["index"] for e in done] == list(range(N_JOBS))
        assert len(report.obs.events.events(event="replay.done")) == N_JOBS

        # Spans: the run, and a sweep.job + sim.replay pair per job;
        # worker spans keep their own pid for the Perfetto row split.
        names = [s["name"] for s in report.obs.tracer.spans()]
        assert names.count("sweep.run") == 1
        assert names.count("sweep.job") == N_JOBS
        assert names.count("sim.replay") == N_JOBS
        import os

        pids = {s["pid"] for s in report.obs.tracer.spans()}
        assert os.getpid() in pids
        assert len(pids) > 1  # at least one real worker process

        # The caller's context absorbed the run's totals.
        assert (
            caller.registry.value("repro_sweep_jobs_total", source="computed")
            == N_JOBS
        )
        assert len(caller.events.events(event="job.done")) == N_JOBS

    def test_worker_log_level_inherited(self, trace, capacity):
        caller = Obs(events=EventLog(level="warning"))
        report = run_sweep(
            trace, grid_jobs(capacity)[:2], workers=2, obs=caller,
        )
        # info-level events (replay.done, job.done) were filtered in the
        # workers and the parent alike.
        assert report.obs.events.events(event="replay.done") == []
        assert report.obs.events.events(event="job.done") == []


class TestResultCacheTelemetry:
    def test_hits_misses_stores_quarantined_in_report(
        self, trace, capacity, tmp_path,
    ):
        jobs = grid_jobs(capacity)
        cache = ResultCache(tmp_path / "results")
        cold = run_sweep(trace, jobs, workers=1, result_cache=cache)
        assert cold.cache_misses == N_JOBS
        assert cold.cache_stores == N_JOBS
        assert cold.cache_hits == 0
        assert cold.summary()["result_cache"] == {
            "hits": 0, "misses": N_JOBS, "stores": N_JOBS, "quarantined": 0,
        }

        warm = run_sweep(trace, jobs, workers=1, result_cache=cache)
        assert warm.cache_hits == N_JOBS
        assert warm.cache_misses == 0
        assert warm.summary()["result_cache"]["hits"] == N_JOBS

        # Damage the journal's last record four ways: each time it is
        # quarantined, recomputed and re-stored (as the last record
        # again) — and the report says so.  A stale schema is the
        # header's, so it costs every record.
        journal = tmp_path / "results" / RESULTS_NAME

        def last_line(edit):
            lines = journal.read_bytes().splitlines(keepends=True)
            journal.write_bytes(b"".join(lines[:-1]) + edit(lines[-1]))

        def tamper(line):
            envelope = json.loads(line)
            envelope["rec"]["record"]["totals"][1] += 1
            return json.dumps(envelope).encode() + b"\n"

        def stale_schema():
            records = read_journal(journal, kind=RESULTS_KIND).records
            rewrite_journal(
                journal, records, kind=RESULTS_KIND,
                header={"schema": RESULT_SCHEMA_VERSION - 1},
            ).close()

        for damage, lost in (
            (lambda: last_line(lambda line: b"{not json\n"), 1),
            (lambda: last_line(tamper), 1),
            (lambda: last_line(lambda line: line[:-20]), 1),
            (stale_schema, N_JOBS),
        ):
            damage()
            third = run_sweep(trace, jobs, workers=1, result_cache=cache)
            assert third.cache_quarantined == lost
            assert third.cache_hits == N_JOBS - lost
            assert third.cache_misses == third.cache_stores == lost
            for fresh, served in zip(cold.results, third.results):
                assert_results_identical(fresh.result, served.result)
            warnings = third.obs.events.events(event="cache.quarantined")
            assert [event["entries"] for event in warnings] == [lost]
