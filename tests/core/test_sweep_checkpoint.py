"""Checkpoint/resume behaviour of :func:`repro.core.sweep.run_sweep`.

The durability contract under test: a sweep that checkpoints can die at
any point — coordinator kill, SIGINT mid-grid, a torn journal tail —
and a ``--resume`` run completes the grid with a report and event
stream **byte-identical** to an uninterrupted run's.
"""

import json
import os
import signal

import pytest

from repro.core.sweep import (
    CHECKPOINT_KIND,
    ENGINE_VERSION,
    PolicySpec,
    ResultCache,
    SimOptions,
    SweepInterrupted,
    SweepJob,
    jobs_fingerprint,
    run_sweep,
)
from repro.durability import (
    ManifestError,
    checksum,
    read_journal,
    rewrite_journal,
)
from repro.faults import FaultKind, FaultPlan, FaultRule
from repro.workloads import generate_valid


class Killed(Exception):
    """Stand-in for the coordinator's os._exit(75)."""


@pytest.fixture(scope="module")
def trace():
    return generate_valid("C", seed=21, scale=0.03)


def make_jobs():
    specs = [
        ("SIZE", "RANDOM"),
        ("ATIME", "NREF"),
        ("NREF", "SIZE"),
        ("SIZE", "ATIME"),
        ("ATIME", "SIZE"),
        ("NREF", "ATIME"),
    ]
    return [
        SweepJob(
            spec=PolicySpec(keys),
            capacity=60_000,
            options=SimOptions(seed=4),
            name="/".join(keys),
        )
        for keys in specs
    ]


def records_of(report):
    """Timing-free comparable form of a report's results."""
    return [
        (jr.result.name, jr.result.hit_rate, jr.result.weighted_hit_rate,
         jr.result.cache.eviction_count)
        for jr in report.results
    ]


def events_of(report):
    return json.dumps(report.obs.events.to_dicts(), sort_keys=True)


def kill_plan(*indices, seed=3):
    return FaultPlan(
        rules=(
            FaultRule(kind=FaultKind.KILL_COORDINATOR, at=tuple(indices)),
        ),
        seed=seed,
    )


class TestCheckpointLifecycle:
    def test_complete_run_seals_manifest(self, trace, tmp_path):
        """The journal's header is the seal: it names the sweep, and a
        complete checkpoint replays ``total`` jobs."""
        jobs = make_jobs()
        report = run_sweep(trace, jobs, checkpoint_dir=tmp_path / "ck")
        recovery = read_journal(
            tmp_path / "ck" / "journal.jsonl", kind=CHECKPOINT_KIND,
        )
        header = recovery.header
        assert header["kind"] == CHECKPOINT_KIND
        assert header["total"] == len(jobs)
        assert header["trace_hash"] == report.trace_hash
        assert header["jobs"] == jobs_fingerprint(jobs, report.trace_hash)
        assert recovery.replayed == header["total"]
        assert not recovery.truncated

    def test_a_checkpoint_is_one_file(self, trace, tmp_path):
        """A complete run, a SIGINT drain and a coordinator kill each
        leave only the journal behind."""
        run_sweep(trace, make_jobs(), checkpoint_dir=tmp_path / "done")

        def interrupt(index):
            os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(SweepInterrupted):
            run_sweep(
                trace, make_jobs(), fault_plan=kill_plan(1),
                checkpoint_dir=tmp_path / "drained", kill_hook=interrupt,
            )

        def kill(index):
            raise Killed(index)

        with pytest.raises(Killed):
            run_sweep(
                trace, make_jobs(), fault_plan=kill_plan(1),
                checkpoint_dir=tmp_path / "killed", kill_hook=kill,
            )
        for name in ("done", "drained", "killed"):
            assert [p.name for p in (tmp_path / name).iterdir()] == [
                "journal.jsonl",
            ]

    def test_a_parent_format_checkpoint_is_a_cold_start(
        self, trace, tmp_path,
    ):
        """A checkpoint written when the identity lived in a
        ``MANIFEST.json`` beside a bare-header journal: the resume starts
        cold, and the old manifest is neither read nor touched."""
        jobs = make_jobs()
        baseline = run_sweep(trace, jobs)
        root = tmp_path / "ck"
        trace_hash = run_sweep(trace, jobs, checkpoint_dir=root).trace_hash
        journal = root / "journal.jsonl"
        records = read_journal(journal, kind=CHECKPOINT_KIND).records
        rewrite_journal(journal, records, kind=CHECKPOINT_KIND).close()
        payload = {
            "kind": CHECKPOINT_KIND, "engine": ENGINE_VERSION,
            "trace_hash": trace_hash,
            "jobs": jobs_fingerprint(jobs, trace_hash),
            "total": len(jobs), "status": "complete",
            "completed": len(jobs),
        }
        manifest = root / "MANIFEST.json"
        manifest.write_text(json.dumps(
            {"format": 1, "sha": checksum(payload), "manifest": payload},
            sort_keys=True, indent=1,
        ) + "\n")
        before = manifest.read_bytes()
        resumed = run_sweep(
            trace, make_jobs(), checkpoint_dir=root, resume=True,
        )
        assert resumed.resumed_jobs == 0
        assert records_of(resumed) == records_of(baseline)
        assert manifest.read_bytes() == before
        recovery = read_journal(journal, kind=CHECKPOINT_KIND)
        assert recovery.header["total"] == len(jobs)
        assert recovery.replayed == len(jobs)

    def test_resume_requires_checkpoint_dir(self, trace):
        with pytest.raises(ValueError):
            run_sweep(trace, make_jobs(), resume=True)

    def test_resume_of_complete_checkpoint_recomputes_nothing(
        self, trace, tmp_path,
    ):
        jobs = make_jobs()
        baseline = run_sweep(trace, jobs, checkpoint_dir=tmp_path / "ck")
        resumed = run_sweep(
            trace, make_jobs(), checkpoint_dir=tmp_path / "ck", resume=True,
        )
        assert resumed.resumed_jobs == len(jobs)
        assert records_of(resumed) == records_of(baseline)
        assert events_of(resumed) == events_of(baseline)


class TestCoordinatorKill:
    def test_kill_fires_after_journaling(self, trace, tmp_path):
        jobs = make_jobs()

        def hook(index):
            raise Killed(index)

        with pytest.raises(Killed):
            run_sweep(
                trace, jobs,
                fault_plan=kill_plan(2),
                checkpoint_dir=tmp_path / "ck",
                kill_hook=hook,
            )
        recovery = read_journal(
            tmp_path / "ck" / "journal.jsonl", kind=CHECKPOINT_KIND,
        )
        # Jobs 0..2 are journaled: the kill fired *after* job 2 landed.
        assert [r["index"] for r in recovery.records] == [0, 1, 2]

    def test_killed_then_resumed_matches_uninterrupted(
        self, trace, tmp_path,
    ):
        jobs = make_jobs()
        baseline = run_sweep(trace, jobs)

        def hook(index):
            raise Killed(index)

        with pytest.raises(Killed):
            run_sweep(
                trace, make_jobs(),
                fault_plan=kill_plan(1),
                checkpoint_dir=tmp_path / "ck",
                kill_hook=hook,
            )
        resumed = run_sweep(
            trace, make_jobs(), checkpoint_dir=tmp_path / "ck", resume=True,
        )
        assert resumed.resumed_jobs == 2  # jobs 0 and 1 were journaled
        assert records_of(resumed) == records_of(baseline)
        assert events_of(resumed) == events_of(baseline)
        assert resumed.summary()["resumed_jobs"] == 2

    def test_torn_tail_recomputes_partial_job(self, trace, tmp_path):
        jobs = make_jobs()
        baseline = run_sweep(trace, jobs)

        def hook(index):
            raise Killed(index)

        with pytest.raises(Killed):
            run_sweep(
                trace, make_jobs(),
                fault_plan=kill_plan(2),
                checkpoint_dir=tmp_path / "ck",
                kill_hook=hook,
            )
        # Tear the last journal line: a crash mid-append.
        journal = tmp_path / "ck" / "journal.jsonl"
        text = journal.read_text()
        journal.write_text(text[: len(text) - 20])
        resumed = run_sweep(
            trace, make_jobs(), checkpoint_dir=tmp_path / "ck", resume=True,
        )
        # Job 2's record was torn: only jobs 0 and 1 resume, 2 recomputes.
        assert resumed.resumed_jobs == 2
        assert records_of(resumed) == records_of(baseline)
        assert events_of(resumed) == events_of(baseline)
        # The rewritten journal now holds the full, clean grid.
        recovery = read_journal(journal, kind=CHECKPOINT_KIND)
        assert recovery.replayed == len(jobs)
        assert not recovery.truncated


class TestManifestGuards:
    def test_resume_with_different_grid_refuses(self, trace, tmp_path):
        run_sweep(trace, make_jobs(), checkpoint_dir=tmp_path / "ck")
        other = make_jobs()[:3]
        with pytest.raises(ManifestError):
            run_sweep(
                trace, other, checkpoint_dir=tmp_path / "ck", resume=True,
            )

    def test_resume_with_different_trace_refuses(self, trace, tmp_path):
        run_sweep(trace, make_jobs(), checkpoint_dir=tmp_path / "ck")
        other_trace = generate_valid("C", seed=99, scale=0.03)
        with pytest.raises(ManifestError):
            run_sweep(
                other_trace, make_jobs(),
                checkpoint_dir=tmp_path / "ck", resume=True,
            )

    def test_fresh_open_truncates_previous_state(self, trace, tmp_path):
        jobs = make_jobs()
        run_sweep(trace, jobs, checkpoint_dir=tmp_path / "ck")
        # A non-resume run over the same dir starts a fresh generation.
        run_sweep(trace, jobs[:2], checkpoint_dir=tmp_path / "ck")
        recovery = read_journal(
            tmp_path / "ck" / "journal.jsonl", kind=CHECKPOINT_KIND,
        )
        assert recovery.header["total"] == 2
        assert recovery.replayed == 2


class TestSigintDrain:
    def test_sigint_drains_checkpoints_and_raises(self, trace, tmp_path):
        jobs = make_jobs()
        baseline = run_sweep(trace, jobs)

        # Deliver a real SIGINT to ourselves right after job 1 is
        # journaled; the installed handler requests a graceful stop.
        def hook(index):
            os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(SweepInterrupted) as info:
            run_sweep(
                trace, make_jobs(),
                fault_plan=kill_plan(1),
                checkpoint_dir=tmp_path / "ck",
                kill_hook=hook,
            )
        interrupt = info.value
        assert interrupt.signum == signal.SIGINT
        assert interrupt.completed == 2
        assert interrupt.total == len(jobs)
        assert interrupt.checkpoint_dir == tmp_path / "ck"
        recovery = read_journal(
            tmp_path / "ck" / "journal.jsonl", kind=CHECKPOINT_KIND,
        )
        assert recovery.header["total"] == len(jobs)
        assert recovery.replayed == 2
        # The default SIGINT disposition is restored after the sweep.
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler

        resumed = run_sweep(
            trace, make_jobs(), checkpoint_dir=tmp_path / "ck", resume=True,
        )
        assert resumed.resumed_jobs == 2
        assert records_of(resumed) == records_of(baseline)
        assert events_of(resumed) == events_of(baseline)


class TestCheckpointBrokenLatch:
    def test_disk_fault_degrades_checkpoint_not_results(
        self, trace, tmp_path,
    ):
        jobs = make_jobs()
        baseline = run_sweep(trace, jobs)
        # Disk-fault event 0 is the journal's opening rewrite; event 1 is
        # the first journal append.  Tearing it latches the checkpoint
        # broken for the rest of the run.
        plan = FaultPlan(
            rules=(
                FaultRule(kind=FaultKind.TORN_WRITE, at=(1,), truncate_to=8),
            ),
            seed=5,
        )
        report = run_sweep(
            trace, jobs, fault_plan=plan, checkpoint_dir=tmp_path / "ck",
        )
        # Results are complete and correct; only durability degraded.
        assert records_of(report) == records_of(baseline)
        recovery = read_journal(
            tmp_path / "ck" / "journal.jsonl", kind=CHECKPOINT_KIND,
        )
        assert recovery.replayed == 0
        assert recovery.truncated

    def test_disk_fault_on_resume_rewrite_latches_broken(
        self, trace, tmp_path,
    ):
        jobs = make_jobs()
        baseline = run_sweep(trace, jobs)

        def hook(index):
            raise Killed(index)

        with pytest.raises(Killed):
            run_sweep(
                trace, make_jobs(),
                fault_plan=kill_plan(2),
                checkpoint_dir=tmp_path / "ck",
                kill_hook=hook,
            )
        journal = tmp_path / "ck" / "journal.jsonl"
        journal.write_bytes(journal.read_bytes()[:-20])  # torn tail
        torn = journal.read_bytes()
        # Disk-fault event 0 is the rewrite of the verified prefix: it
        # fails, the checkpoint latches broken, and the sweep carries on.
        plan = FaultPlan(
            rules=(FaultRule(kind=FaultKind.ENOSPC, at=(0,)),), seed=5,
        )
        resumed = run_sweep(
            trace, make_jobs(), fault_plan=plan,
            checkpoint_dir=tmp_path / "ck", resume=True,
        )
        assert resumed.resumed_jobs == 2
        assert records_of(resumed) == records_of(baseline)
        assert journal.read_bytes() == torn  # the rewrite left it whole

    def test_disk_fault_on_fresh_open_keeps_the_previous_checkpoint(
        self, trace, tmp_path,
    ):
        jobs = make_jobs()
        baseline = run_sweep(trace, jobs, checkpoint_dir=tmp_path / "ck")
        journal = tmp_path / "ck" / "journal.jsonl"
        complete = journal.read_bytes()
        # A fresh 2-job sweep over the same directory: its opening
        # rewrite is disk-fault event 0 and fails, so the old grid's
        # journal stays whole and resumable.
        plan = FaultPlan(
            rules=(FaultRule(kind=FaultKind.ENOSPC, at=(0,)),), seed=5,
        )
        run_sweep(
            trace, jobs[:2], fault_plan=plan, checkpoint_dir=tmp_path / "ck",
        )
        assert journal.read_bytes() == complete
        resumed = run_sweep(
            trace, make_jobs(), checkpoint_dir=tmp_path / "ck", resume=True,
        )
        assert resumed.resumed_jobs == len(jobs)
        assert records_of(resumed) == records_of(baseline)


class TestCheckpointUnit:
    def test_duplicate_and_rogue_indices_are_filtered(self, trace, tmp_path):
        jobs = make_jobs()[:2]
        run_sweep(trace, jobs, checkpoint_dir=tmp_path / "ck")
        from repro.core.sweep import trace_fingerprint
        from repro.durability import Journal

        # Append a duplicate of job 0 and an out-of-range index to the
        # (valid) journal; open() must keep the first occurrence of each
        # valid index and drop the rest.
        with Journal(
            tmp_path / "ck" / "journal.jsonl", kind=CHECKPOINT_KIND,
        ) as journal:
            journal.append({
                "index": 0, "seconds": 9.9, "from_cache": True,
                "record": {}, "export": None,
            })
            journal.append({
                "index": 99, "seconds": 0.0, "from_cache": False,
                "record": {}, "export": None,
            })
        trace_hash = trace_fingerprint(trace)
        checkpoint = ResultCache(tmp_path / "ck")
        try:
            records = checkpoint.open(trace_hash, jobs, resume=True)
            assert [r["index"] for r in records] == [0, 1]
            # The first (real) record for index 0 won, not the duplicate.
            assert records[0]["seconds"] != 9.9
        finally:
            checkpoint.close()
