"""The sweep's one store of finished jobs (:class:`ResultCache`).

A result cache and a checkpoint are one journal each, kept by one class:
a checkpoint recorded by the tree that still had two stores resumes
unchanged, a write fault on the result cache degrades durability and
never the sweep, handles sharing a directory never serve a wrong record,
and one directory can hold a sweep's cache and its checkpoint at once.
"""

import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.sweep import (
    CHECKPOINT_KIND,
    CHECKPOINT_NAME,
    RESULTS_NAME,
    PolicySpec,
    ResultCache,
    SimOptions,
    SweepJob,
    result_to_record,
    run_sweep,
    trace_fingerprint,
)
from repro.durability import read_journal
from repro.faults import FaultKind, FaultPlan, FaultRule
from repro.workloads import generate_valid

SEED = 20260806
FIXTURES = Path(__file__).parent.parent / "fixtures"


@pytest.fixture(scope="module")
def trace():
    return generate_valid("BL", seed=SEED, scale=0.01)


def make_jobs(capacities=(50_000,), keys=(("SIZE", "ATIME"),)):
    return [
        SweepJob(
            spec=PolicySpec(spec), capacity=capacity,
            options=SimOptions(seed=SEED), name="/".join(spec),
        )
        for capacity in capacities for spec in keys
    ]


def records_of(report):
    return [result_to_record(jr.result) for jr in report.results]


def test_a_checkpoint_recorded_before_the_one_store_resumes(
    trace, tmp_path,
):
    """``sweep_checkpoint_parent.jsonl`` was written by the tree whose
    checkpoint was its own class: two jobs, BL at scale 0.01."""
    fixture = FIXTURES / "sweep_checkpoint_parent.jsonl"
    jobs = make_jobs(keys=(("SIZE", "ATIME"), ("ATIME", "SIZE")))
    root = tmp_path / "ck"
    root.mkdir()
    shutil.copy(fixture, root / CHECKPOINT_NAME)
    resumed = run_sweep(trace, jobs, checkpoint_dir=root, resume=True)
    assert resumed.resumed_jobs == 2
    recorded = read_journal(fixture, kind=CHECKPOINT_KIND).records
    assert records_of(resumed) == [entry["record"] for entry in recorded]
    assert records_of(resumed) == records_of(run_sweep(trace, jobs))


@pytest.mark.parametrize("fault", [
    FaultRule(kind=FaultKind.ENOSPC, at=(2,)),
    FaultRule(kind=FaultKind.TORN_WRITE, at=(2,), truncate_to=8),
])
def test_a_result_cache_write_fault_degrades_durability_not_results(
    trace, tmp_path, fault,
):
    """Disk-fault event 0 is the cache's opening rewrite, event 1 its
    first put; the fault on the second put latches the cache broken
    and the sweep still returns every result."""
    jobs = make_jobs(capacities=(30_000, 50_000, 70_000))
    baseline = run_sweep(trace, jobs)
    faults = FaultPlan(rules=(fault,), seed=5).disk_injector()
    cache = ResultCache(tmp_path / "cache", faults=faults)
    report = run_sweep(trace, jobs, result_cache=cache)
    assert records_of(report) == records_of(baseline)
    assert cache.broken

    trace_hash = trace_fingerprint(trace)
    fresh = ResultCache(tmp_path / "cache")
    kept = fresh.open()
    assert [entry["key"] for entry in kept] == [
        ResultCache.key_for(jobs[0], trace_hash),
    ]
    assert fresh.corrupt_entries == (
        1 if fault.kind == FaultKind.TORN_WRITE else 0
    )
    assert fresh.get(jobs[0], trace_hash) == records_of(baseline)[0]
    assert [fresh.get(job, trace_hash) for job in jobs[1:]] == [None, None]
    fresh.close()


def test_two_handles_on_one_directory_never_serve_a_wrong_record(
    trace, tmp_path,
):
    """Each handle appends to the generation its own open wrote: the
    last open wins, so a record can be lost (and recomputed), but what
    a fresh open serves for a job is that job's record."""
    jobs = make_jobs(capacities=(20_000, 40_000, 60_000, 80_000))
    records = records_of(run_sweep(trace, jobs))
    assert len({repr(record) for record in records}) == len(jobs)
    trace_hash = trace_fingerprint(trace)
    first, second = ResultCache(tmp_path), ResultCache(tmp_path)
    for handle, job, record in zip(
        (first, second, first, second), jobs, records,
    ):
        handle.put(job, trace_hash, record)
    first.close()
    second.close()

    fresh = ResultCache(tmp_path)
    served = [fresh.get(job, trace_hash) for job in jobs]
    fresh.close()
    assert fresh.corrupt_entries == 0
    assert served == [records[0], records[1], None, records[3]]


def test_one_directory_holds_a_cache_and_a_checkpoint(tmp_path, capsys):
    """``--cache-dir`` and ``--checkpoint-dir`` may name one directory:
    the two journals sit side by side."""
    state = str(tmp_path / "state")
    sweep = ["sweep", "--workload", "C", "--scale", "0.01"]
    outputs = []
    for extra in (
        ["--cache-dir", state, "--checkpoint-dir", state],
        ["--cache-dir", state, "--resume", state],
        ["--cache-dir", state],
    ):
        out = tmp_path / f"results{len(outputs)}.json"
        assert main(sweep + extra + ["--results-out", str(out)]) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert sorted(p.name for p in (tmp_path / "state").iterdir()) == [
        CHECKPOINT_NAME, RESULTS_NAME,
    ]
    assert "0 hits / 36 misses" in outputs[0][0]
    assert "36 resumed from checkpoint" in outputs[1][0]
    assert "36 hits / 0 misses" in outputs[2][0]
    assert outputs[0][1] == outputs[1][1] == outputs[2][1]
