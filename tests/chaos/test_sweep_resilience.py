"""Resilience tests for the sweep engine and its result cache.

Covers the :class:`ResultCache` journal's integrity (unparseable,
tampered, stale-schema and torn records are counted and recomputed,
never silently reused) and :func:`run_sweep`'s crash recovery (killed
workers, retry accounting, and the in-process fallback path).
"""

import json

import pytest

from repro.core.sweep import (
    RESULT_SCHEMA_VERSION,
    RESULTS_KIND,
    RESULTS_NAME,
    PolicySpec,
    ResultCache,
    SimOptions,
    SweepJob,
    run_sweep,
    trace_fingerprint,
)
from repro.durability import read_journal, rewrite_journal
from repro.faults import FaultKind, FaultPlan, FaultRule
from repro.workloads import generate_valid

SEED = 20260806


@pytest.fixture(scope="module")
def trace():
    return generate_valid("BL", seed=SEED, scale=0.01)


def make_job(name="SIZE", capacity=50_000):
    return SweepJob(
        spec=PolicySpec(("SIZE", "ATIME")),
        capacity=capacity,
        options=SimOptions(seed=SEED),
        name=name,
    )


def unparseable(path):
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]) + b"{ this is not json\n")


def tampered(path):
    lines = path.read_bytes().splitlines(keepends=True)
    line = json.loads(lines[-1])
    line["rec"]["record"]["totals"][1] += 1  # nudge the hit count
    path.write_bytes(b"".join(lines[:-1]) + json.dumps(line).encode() + b"\n")


def stale_schema(path):
    records = read_journal(path, kind=RESULTS_KIND).records
    rewrite_journal(
        path, records, kind=RESULTS_KIND,
        header={"schema": RESULT_SCHEMA_VERSION - 1},
    ).close()


def torn(path):
    path.write_bytes(path.read_bytes()[:-20])


class TestResultCacheIntegrity:
    def seed_entry(self, tmp_path, trace):
        """A cache holding one genuine record, plus the pieces to break it."""
        cache = ResultCache(tmp_path / "cache")
        job = make_job()
        trace_hash = trace_fingerprint(trace)
        run_sweep(trace, [job], workers=1, result_cache=cache,
                  trace_hash=trace_hash)
        path = cache.root / RESULTS_NAME
        assert read_journal(path, kind=RESULTS_KIND).replayed == 1
        return cache, job, trace_hash, path

    def test_round_trip_hits(self, tmp_path, trace):
        cache, job, trace_hash, _ = self.seed_entry(tmp_path, trace)
        fresh = ResultCache(cache.root)
        assert fresh.get(job, trace_hash) is not None
        assert fresh.hits == 1
        assert fresh.corrupt_entries == 0

    def check_quarantined(self, tmp_path, trace, damage):
        """A damaged record is never served: the sweep's open counts it,
        the job is recomputed, and its record is stored again."""
        cache, job, trace_hash, path = self.seed_entry(tmp_path, trace)
        reference = ResultCache(cache.root).get(job, trace_hash)
        damage(path)
        report = run_sweep(trace, [job], workers=1, result_cache=cache,
                           trace_hash=trace_hash)
        assert not report.results[0].from_cache
        assert report.cache_hits == 0
        assert report.cache_quarantined == 1
        assert report.cache_stores == 1
        assert cache.corrupt_entries == 1
        healed = ResultCache(cache.root)
        assert healed.get(job, trace_hash) == reference
        assert healed.corrupt_entries == 0
        assert len(healed) == 1

    def test_unparseable_json_is_quarantined(self, tmp_path, trace):
        self.check_quarantined(tmp_path, trace, unparseable)

    def test_checksum_tamper_is_quarantined(self, tmp_path, trace):
        self.check_quarantined(tmp_path, trace, tampered)

    def test_stale_schema_is_quarantined(self, tmp_path, trace):
        self.check_quarantined(tmp_path, trace, stale_schema)

    def test_torn_record_is_quarantined(self, tmp_path, trace):
        self.check_quarantined(tmp_path, trace, torn)

    def test_corrupt_entry_is_recomputed_and_restored(self, tmp_path, trace):
        """A sweep over a corrupted cache self-heals: the garbage line is
        dropped and counted, the job reruns, and a pristine record is
        journaled again — the only one a fresh open keeps."""
        cache, job, trace_hash, path = self.seed_entry(tmp_path, trace)
        reference = ResultCache(cache.root).get(job, trace_hash)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + b"garbage\n")
        report = run_sweep(trace, [job], workers=1, result_cache=cache,
                           trace_hash=trace_hash)
        assert report.cache_hits == 0
        assert cache.corrupt_entries == 1
        healed = ResultCache(cache.root)
        assert healed.open() == [
            {"key": ResultCache.key_for(job, trace_hash), "record": reference},
        ]
        healed.close()

    def test_records_after_a_bad_one_are_recomputed_too(
        self, tmp_path, trace,
    ):
        """The journal keeps only its verified prefix: a record torn in
        the middle costs the records behind it, never a wrong result."""
        cache = ResultCache(tmp_path / "cache")
        jobs = [make_job(capacity=c) for c in (30_000, 50_000, 70_000)]
        baseline = run_sweep(trace, jobs, workers=1, result_cache=cache)
        path = cache.root / RESULTS_NAME
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2]) + b"garbage\n" + lines[3])
        report = run_sweep(trace, jobs, workers=1, result_cache=cache)
        assert (report.cache_hits, report.cache_misses) == (1, 2)
        assert report.cache_quarantined == 2
        assert [jr.result.hit_rate for jr in report.results] == [
            jr.result.hit_rate for jr in baseline.results
        ]
        warnings = report.obs.events.events(event="cache.quarantined")
        assert [event["entries"] for event in warnings] == [2]

    def test_quarantine_does_not_count_as_cache_entries(self, tmp_path, trace):
        """A fresh handle over a damaged journal holds nothing it could
        serve: the torn record is counted, not kept."""
        cache, job, trace_hash, path = self.seed_entry(tmp_path, trace)
        torn(path)
        fresh = ResultCache(cache.root)
        assert fresh.get(job, trace_hash) is None
        assert fresh.corrupt_entries == 1
        assert len(fresh) == 0
        fresh.close()

    def test_a_parent_result_file_is_a_cold_start(self, tmp_path, trace):
        """A ``<key>.json`` envelope of the one-file-per-key layout is
        neither read nor deleted: the job is computed and journaled."""
        root = tmp_path / "cache"
        root.mkdir()
        job = make_job()
        trace_hash = trace_fingerprint(trace)
        old = root / f"{ResultCache.key_for(job, trace_hash)}.json"
        old.write_text(json.dumps({
            "schema": RESULT_SCHEMA_VERSION, "checksum": "0" * 64,
            "record": {"totals": [1, 1, 1, 1]},
        }), encoding="utf-8")
        before = old.read_bytes()
        report = run_sweep(trace, [job], workers=1,
                           result_cache=ResultCache(root),
                           trace_hash=trace_hash)
        assert (report.cache_hits, report.cache_misses) == (0, 1)
        assert report.cache_quarantined == 0
        assert old.read_bytes() == before
        assert sorted(p.name for p in root.iterdir()) == sorted(
            [old.name, RESULTS_NAME],
        )


class TestWorkerCrashRecovery:
    def jobs_for(self, count, capacity=50_000):
        return [make_job(name=f"SIZE#{i}", capacity=capacity)
                for i in range(count)]

    def test_killed_worker_jobs_are_retried(self, trace):
        jobs = self.jobs_for(4)
        plan = FaultPlan(rules=(
            FaultRule(FaultKind.KILL_WORKER, at=(1,)),
        ))
        report = run_sweep(trace, jobs, workers=2, fault_plan=plan)
        assert len(report.results) == 4
        assert report.pool_restarts == 1
        assert report.retried_jobs >= 1
        assert report.recovered_jobs >= 1
        assert report.fallback_jobs == 0
        rates = {
            (jr.result.hit_rate, jr.result.weighted_hit_rate)
            for jr in report.results
        }
        assert len(rates) == 1  # identical jobs -> identical numbers

    def test_recovery_fields_appear_in_summary(self, trace):
        plan = FaultPlan(rules=(
            FaultRule(FaultKind.KILL_WORKER, at=(0,)),
        ))
        report = run_sweep(trace, self.jobs_for(2), workers=2,
                           fault_plan=plan)
        summary = report.summary()
        for field in ("retried_jobs", "recovered_jobs", "pool_restarts",
                      "fallback_jobs"):
            assert field in summary
        assert summary["retried_jobs"] >= 1

    def test_fallback_runs_in_process_when_restarts_exhausted(self, trace):
        """With no pool-restart budget, lost jobs finish on the serial
        fallback path instead of being dropped."""
        jobs = self.jobs_for(3)
        plan = FaultPlan(rules=(
            FaultRule(FaultKind.KILL_WORKER, at=(2,)),
        ))
        report = run_sweep(trace, jobs, workers=2, fault_plan=plan,
                           max_pool_restarts=0)
        assert len(report.results) == 3
        assert report.fallback_jobs >= 1
        assert report.recovered_jobs >= 1
        rates = {
            (jr.result.hit_rate, jr.result.weighted_hit_rate)
            for jr in report.results
        }
        assert len(rates) == 1

    def test_fault_free_sweep_reports_clean_telemetry(self, trace):
        report = run_sweep(trace, self.jobs_for(2), workers=2)
        assert report.retried_jobs == 0
        assert report.recovered_jobs == 0
        assert report.pool_restarts == 0
        assert report.fallback_jobs == 0

    def test_crash_recovered_results_are_cached_normally(self, trace, tmp_path):
        """Results salvaged from a crashed round land in the result cache
        like any other: the rerun is all cache hits."""
        cache = ResultCache(tmp_path / "cache")
        jobs = self.jobs_for(3)
        plan = FaultPlan(rules=(
            FaultRule(FaultKind.KILL_WORKER, at=(1,)),
        ))
        first = run_sweep(trace, jobs, workers=2, fault_plan=plan,
                          result_cache=cache)
        assert first.pool_restarts == 1
        second = run_sweep(trace, jobs, workers=2, result_cache=cache)
        assert second.cache_hits == 3
        assert second.retried_jobs == 0
