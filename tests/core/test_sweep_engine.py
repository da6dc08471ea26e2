"""Unit tests for the parallel multi-policy sweep engine.

Covers the three pillars of :mod:`repro.core.sweep`:

* :class:`PolicySpec` — policies survive the spec round-trip;
* :class:`ResultCache` — every simulation input (trace content, policy,
  capacity, simulator options, engine version) is part of the key, so a
  changed option busts the cache instead of returning a stale result;
* :func:`run_sweep` — serial, parallel, and cached replays agree.
"""

import json
from pathlib import Path

import pytest

from repro.core import KeyPolicy, SimCache, simulate
from repro.core.keys import ATIME, NREF, SIZE
from repro.core.literature import hyper_g, lru
from repro.core.sweep import (
    CHECKPOINT_KIND,
    CHECKPOINT_NAME,
    PolicySpec,
    ResultCache,
    SimOptions,
    SweepJob,
    record_to_result,
    result_to_record,
    run_sweep,
    trace_fingerprint,
)
from repro.durability import read_journal
from repro.obs import Obs
from repro.trace import TraceValidator, read_clf_lines, write_clf_lines
from repro.trace.record import Request
from repro.workloads import generate_valid

FINGERPRINTS = (
    Path(__file__).resolve().parents[1] / "fixtures"
    / "trace_fingerprint_parent.json"
)


@pytest.fixture(scope="module")
def trace():
    return generate_valid("C", seed=33, scale=0.03)


@pytest.fixture(scope="module")
def jobs():
    return [
        SweepJob(
            spec=PolicySpec(("SIZE", "RANDOM")),
            capacity=50_000,
            options=SimOptions(seed=9),
            name="SIZE",
        ),
        SweepJob(
            spec=PolicySpec(("ATIME", "NREF")),
            capacity=120_000,
            options=SimOptions(seed=9),
            name="ATIME/NREF",
        ),
    ]


class TestPolicySpec:
    def test_round_trip_plain(self):
        policy = KeyPolicy([SIZE, ATIME])
        spec = PolicySpec.from_policy(policy)
        rebuilt = spec.build()
        assert rebuilt.name == policy.name
        assert [k.name for k in rebuilt.keys] == [
            k.name for k in policy.keys
        ]

    def test_round_trip_named(self):
        """Literature policies carry custom names and extra tie-breaks."""
        for factory in (lru, hyper_g):
            policy = factory()
            rebuilt = PolicySpec.from_policy(policy).build()
            assert rebuilt.name == policy.name
            assert [k.name for k in rebuilt.keys] == [
                k.name for k in policy.keys
            ]

    def test_spec_is_picklable_and_hashable(self):
        import pickle

        spec = PolicySpec(("SIZE", "RANDOM"))
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert len({spec, PolicySpec(("SIZE", "RANDOM"))}) == 1


class TestRecordRoundTrip:
    def test_result_survives_serialisation(self, trace):
        cache = SimCache(capacity=60_000, policy=KeyPolicy([NREF]), seed=2)
        original = simulate(trace, cache, name="round-trip",
                            track_positions_every=10)
        rebuilt = record_to_result(result_to_record(original))
        assert rebuilt.name == original.name
        assert rebuilt.policy_name == original.policy_name
        assert rebuilt.hit_rate == original.hit_rate
        assert rebuilt.weighted_hit_rate == original.weighted_hit_rate
        assert rebuilt.max_used_bytes == original.max_used_bytes
        assert rebuilt.cache.eviction_count == original.cache.eviction_count
        assert rebuilt.outcomes == original.outcomes
        assert rebuilt.hit_positions == original.hit_positions
        assert rebuilt.metrics.smoothed_hr() == original.metrics.smoothed_hr()
        assert rebuilt.summary() == original.summary()


class TestTraceFingerprint:
    def test_stable_for_equal_traces(self, trace):
        assert trace_fingerprint(trace) == trace_fingerprint(list(trace))

    def test_sensitive_to_any_simulated_field(self):
        base = [Request(timestamp=1.0, url="http://a/x.html", size=10)]
        baseline = trace_fingerprint(base)
        variants = [
            [Request(timestamp=2.0, url="http://a/x.html", size=10)],
            [Request(timestamp=1.0, url="http://a/y.html", size=10)],
            [Request(timestamp=1.0, url="http://a/x.html", size=11)],
        ]
        assert len({baseline} | {trace_fingerprint(v) for v in variants}) == 4

    def test_digest_is_the_one_recorded_before_columns(self):
        """An existing ``--cache-dir`` stays warm: the digest over the
        columns is byte-identical to the one taken over ``Request`` rows
        (recorded at commit ``216dfe6``, before the trace became columns:
        BR generated, and BR after a plain-CLF write and read)."""
        golden = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
        generated = generate_valid("BR", seed=1996, scale=0.05)
        read = TraceValidator().validate(
            read_clf_lines(write_clf_lines(generated))
        )
        for name, trace in (("generated", generated), ("clf", read)):
            want = golden[f"BR:seed=1996:scale=0.05:{name}"]
            assert len(trace) == want["requests"]
            assert trace_fingerprint(trace) == want["sha256"]
            assert trace_fingerprint(list(trace)) == want["sha256"]


class TestRunSweep:
    def test_serial_equals_parallel(self, trace, jobs):
        serial = run_sweep(trace, jobs, workers=1)
        parallel = run_sweep(trace, jobs, workers=2)
        for left, right in zip(serial.results, parallel.results):
            assert left.result.hit_rate == right.result.hit_rate
            assert (left.result.weighted_hit_rate
                    == right.result.weighted_hit_rate)
            assert (left.result.cache.eviction_count
                    == right.result.cache.eviction_count)

    def test_results_align_with_jobs(self, trace, jobs):
        report = run_sweep(trace, jobs, workers=1)
        assert [jr.job for jr in report.results] == list(jobs)
        assert [jr.result.name for jr in report.results] == [
            "SIZE", "ATIME/NREF",
        ]
        assert report.trace_requests == len(trace)

    def test_workers_validated(self, trace, jobs):
        with pytest.raises(ValueError):
            run_sweep(trace, jobs, workers=0)


def span_names(spans):
    return sorted({span["name"] for span in spans})


class TestSpanRetention:
    """A sweep records spans only for a caller whose tracer records them;
    with no caller context the report's ``obs`` is the only view, so it
    records.  The names are the ones recorded before the switch."""

    NAMES = ["sim.replay", "sweep.job", "sweep.run"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_private_obs_records_no_span(
        self, trace, jobs, tmp_path, workers,
    ):
        caller = Obs.private()
        report = run_sweep(
            trace, jobs, workers=workers, obs=caller,
            checkpoint_dir=tmp_path / "ck",
        )
        assert report.obs.tracer.spans() == []
        assert caller.tracer.spans() == []
        # No job recorded any: the flag reached the serial path and
        # every pool worker (the journal keeps each job's own export).
        exports = [
            record["export"] for record in read_journal(
                tmp_path / "ck" / CHECKPOINT_NAME, kind=CHECKPOINT_KIND,
            ).records
        ]
        assert len(exports) == len(jobs)
        assert all(export["spans"] == [] for export in exports)
        # Metrics and events are collected as before.
        assert report.obs.events.to_dicts()
        assert caller.registry.snapshot()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_recording_caller_and_no_caller_keep_every_span(
        self, trace, jobs, workers,
    ):
        caller = Obs()
        report = run_sweep(trace, jobs, workers=workers, obs=caller)
        assert span_names(report.obs.tracer.spans()) == self.NAMES
        assert len(report.obs.tracer.spans()) == 1 + 2 * len(jobs)
        assert span_names(caller.tracer.spans()) == self.NAMES
        alone = run_sweep(trace, jobs, workers=workers)
        assert span_names(alone.obs.tracer.spans()) == self.NAMES
        assert len(alone.obs.tracer.spans()) == 1 + 2 * len(jobs)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_job_resumed_without_spans_gets_one_resumed_span(
        self, trace, jobs, tmp_path, workers,
    ):
        """A checkpoint journaled with no spans resumes with one
        ``sweep.job`` span a job, marked ``resumed``; one journaled with
        spans resumes with the spans it recorded."""
        spanless, recorded = tmp_path / "private", tmp_path / "recorded"
        run_sweep(trace, jobs, workers=workers, obs=Obs.private(),
                  checkpoint_dir=spanless)
        first = run_sweep(trace, jobs, workers=workers, obs=Obs(),
                          checkpoint_dir=recorded)
        for directory in (spanless, recorded):
            caller = Obs()
            report = run_sweep(
                trace, jobs, workers=workers, obs=caller,
                checkpoint_dir=directory, resume=True,
            )
            assert report.resumed_jobs == len(jobs)
            spans = caller.tracer.spans()
            job_spans = [s for s in spans if s["name"] == "sweep.job"]
            assert len(job_spans) == len(jobs)
            if directory == spanless:
                assert span_names(spans) == ["sweep.job", "sweep.run"]
                assert [s["args"] for s in job_spans] == [
                    {"policy": job.spec.label, "capacity": job.capacity,
                     "resumed": True}
                    for job in jobs
                ]
            else:
                assert span_names(spans) == self.NAMES
                assert [
                    (s["name"], s["args"]) for s in spans
                    if s["name"] != "sweep.run"
                ] == [
                    (s["name"], s["args"]) for s in first.obs.tracer.spans()
                    if s["name"] != "sweep.run"
                ]


class TestResultCache:
    def test_second_sweep_is_all_hits(self, trace, jobs, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_sweep(trace, jobs, workers=1, result_cache=cache)
        second = run_sweep(trace, jobs, workers=1, result_cache=cache)
        assert (first.cache_hits, first.cache_misses) == (0, len(jobs))
        assert (second.cache_hits, second.cache_misses) == (len(jobs), 0)
        for fresh, cached in zip(first.results, second.results):
            assert not fresh.from_cache and cached.from_cache
            assert fresh.result.hit_rate == cached.result.hit_rate
            assert (fresh.result.metrics.smoothed_hr()
                    == cached.result.metrics.smoothed_hr())
        assert len(cache) == len(jobs)

    def test_changed_option_busts_cache(self, trace, jobs, tmp_path):
        """A simulator option is part of the key: changing it must
        recompute, never return the stale result."""
        cache = ResultCache(tmp_path)
        run_sweep(trace, jobs, workers=1, result_cache=cache)
        for mutate in (
            lambda o: SimOptions(seed=o.seed + 1,
                                 use_heap_index=o.use_heap_index,
                                 track_positions_every=o.track_positions_every),
            lambda o: SimOptions(seed=o.seed,
                                 use_heap_index=not o.use_heap_index,
                                 track_positions_every=o.track_positions_every),
            lambda o: SimOptions(seed=o.seed,
                                 use_heap_index=o.use_heap_index,
                                 track_positions_every=25),
        ):
            mutated = [
                SweepJob(job.spec, job.capacity, mutate(job.options), job.name)
                for job in jobs
            ]
            report = run_sweep(trace, mutated, workers=1, result_cache=cache)
            assert report.cache_hits == 0, mutated[0].options

    def test_every_option_is_part_of_the_key(self):
        assert set(SimOptions.__dataclass_fields__) == set(
            SimOptions().cache_fields()
        )

    def test_changed_trace_busts_cache(self, trace, jobs, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(trace, jobs, workers=1, result_cache=cache)
        report = run_sweep(trace[:-1], jobs, workers=1, result_cache=cache)
        assert report.cache_hits == 0

    def test_changed_capacity_busts_cache(self, trace, jobs, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(trace, jobs, workers=1, result_cache=cache)
        resized = [
            SweepJob(job.spec, job.capacity + 1, job.options, job.name)
            for job in jobs
        ]
        report = run_sweep(trace, resized, workers=1, result_cache=cache)
        assert report.cache_hits == 0

    def test_display_name_is_not_part_of_key(self, trace, jobs, tmp_path):
        """Relabelling the same simulation still hits, and the hit is
        returned under the new label."""
        cache = ResultCache(tmp_path)
        run_sweep(trace, jobs, workers=1, result_cache=cache)
        relabelled = [
            SweepJob(job.spec, job.capacity, job.options, f"new-{i}")
            for i, job in enumerate(jobs)
        ]
        report = run_sweep(trace, relabelled, workers=1, result_cache=cache)
        assert report.cache_hits == len(jobs)
        assert [jr.result.name for jr in report.results] == [
            "new-0", "new-1",
        ]

    def test_corrupt_entry_is_a_miss(self, trace, jobs, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(trace, jobs, workers=1, result_cache=cache)
        for path in cache.root.glob("*.json"):
            path.write_text("{not json", encoding="utf-8")
        report = run_sweep(trace, jobs, workers=1, result_cache=cache)
        assert report.cache_hits == 0
        assert report.cache_misses == len(jobs)
