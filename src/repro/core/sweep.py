"""Parallel multi-policy sweep engine with an on-disk result cache.

The paper's central experiment is a grid: 36 primary/secondary key
combinations x five traces x two cache fractions.  The naive driver
replays the trace once per policy, serially; this module turns that into
a *sweep*:

* the trace is decoded and validated **once** and the in-memory request
  list is shared across every policy run;
* the policy x capacity grid fans out over a
  :class:`concurrent.futures.ProcessPoolExecutor` (``workers > 1``) or a
  plain loop (``workers = 1`` — the safe serial fallback, bit-identical
  to the parallel path because every job seeds its own RNG);
* completed runs are memoized in an on-disk :class:`ResultCache` keyed by
  ``(trace content hash, policy spec, capacity, simulator options,
  engine version)``, so re-running a sweep only computes the delta.

Determinism guarantee: a :class:`SweepJob` fully describes one
simulation.  Workers rebuild the policy from its :class:`PolicySpec` and
construct a fresh :class:`~repro.core.cache.SimCache` seeded from the
job's :class:`SimOptions`; no RNG state is ever shared between jobs, so
serial, parallel, and cached replays of the same job produce identical
HR/WHR, eviction counts, and day series.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal as _signal
import time
from collections import Counter
from concurrent.futures import (
    CancelledError,
    ProcessPoolExecutor,
    as_completed,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.cache import AccessOutcome, SimCache
from repro.core.metrics import DayStats, MetricsCollector
from repro.core.policy import KeyPolicy
from repro.core.simulator import SimulationResult, simulate
from repro.durability import (
    ManifestError,
    atomic_write_text,
    checksum as _checksum,
    read_journal,
    rewrite_journal,
    Journal,
)
from repro.obs import EventLog, Obs
from repro.obs.catalog import sweep_metrics
from repro.trace.record import Request

__all__ = [
    "ENGINE_VERSION",
    "RESULT_SCHEMA_VERSION",
    "PolicySpec",
    "SimOptions",
    "SweepJob",
    "JobResult",
    "SweepCheckpoint",
    "SweepInterrupted",
    "SweepReport",
    "ResultCache",
    "CacheStats",
    "jobs_fingerprint",
    "run_sweep",
    "trace_fingerprint",
]

#: Bumped whenever simulation semantics change in a way that invalidates
#: previously cached results.  Part of every result-cache key.
ENGINE_VERSION = 1

#: On-disk envelope format of :class:`ResultCache` entries.  Bumped when
#: the envelope (not the simulation) changes; entries with any other
#: version are quarantined and recomputed, never silently reinterpreted.
#: v3 added the per-day ``occupancy`` map (end-of-day used bytes and
#: document count, the collector's day stamps).
RESULT_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class PolicySpec:
    """A picklable, hashable description of one :class:`KeyPolicy`.

    Policies themselves close over lambdas (the sort keys) and cannot
    cross a process boundary; the spec carries only key *names* and is
    rebuilt into a fresh policy inside each worker.
    """

    keys: Tuple[str, ...]
    name: Optional[str] = None

    @classmethod
    def from_policy(cls, policy: KeyPolicy) -> "PolicySpec":
        """Describe an existing key policy (including its tie-breaks)."""
        derived = "/".join(k.name for k in policy.keys[:2])
        return cls(
            keys=tuple(key.name for key in policy.keys),
            name=None if policy.name == derived else policy.name,
        )

    def build(self) -> KeyPolicy:
        """Rebuild the concrete policy (fresh instance, never shared)."""
        from repro.core.keys import key_by_name

        return KeyPolicy(
            [key_by_name(name) for name in self.keys], name=self.name,
        )

    @property
    def label(self) -> str:
        """Display name, matching what the built policy reports."""
        return self.name or "/".join(self.keys[:2])


@dataclass(frozen=True)
class SimOptions:
    """Simulator options that shape the outcome of a run.

    Every field is part of the result-cache key: changing one **must**
    bust the cache rather than return a stale result.
    """

    seed: int = 0
    use_heap_index: bool = True
    track_positions_every: int = 0

    def cache_fields(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "use_heap_index": self.use_heap_index,
            "track_positions_every": self.track_positions_every,
        }


@dataclass(frozen=True)
class SweepJob:
    """One cell of the sweep grid: a policy at a capacity, with options.

    ``name`` is a display label only — it is *not* part of the cache key,
    so the same simulation labelled differently is still one cached run.
    """

    spec: PolicySpec
    capacity: Optional[int]
    options: SimOptions = SimOptions()
    name: str = ""

    def cache_fields(self, trace_hash: str) -> Dict[str, object]:
        fields: Dict[str, object] = {
            "engine": ENGINE_VERSION,
            "trace": trace_hash,
            "keys": list(self.spec.keys),
            "policy_name": self.spec.name,
            "capacity": self.capacity,
        }
        fields.update(self.options.cache_fields())
        return fields


def trace_fingerprint(trace: Sequence[Request]) -> str:
    """Content hash of a decoded trace (the fields the simulator reads).

    Hashes ``(timestamp, url, size, doc_type)`` per request, so any
    change that could perturb a simulation changes the fingerprint while
    re-decoding an identical log file does not.
    """
    digest = hashlib.sha256()
    for request in trace:
        doc_type = request.doc_type.value if request.doc_type else ""
        digest.update(
            f"{request.timestamp!r}\x1f{request.url}\x1f"
            f"{request.size}\x1f{doc_type}\n".encode("utf-8")
        )
    return digest.hexdigest()


# -- portable results ---------------------------------------------------------


@dataclass
class CacheStats:
    """Occupancy/eviction counters standing in for a live ``SimCache``.

    Results that crossed a process boundary or were loaded from the
    result cache cannot carry the cache object itself; this shim exposes
    the fields reports and figures actually read.
    """

    capacity: Optional[int]
    used_bytes: int
    max_used_bytes: int
    eviction_count: int
    evicted_bytes: int
    policy: KeyPolicy


def result_to_record(result: SimulationResult) -> dict:
    """Flatten a simulation result into a JSON-serialisable record.

    The per-day ``days`` counters and the ``occupancy`` map (day ->
    ``[used_bytes, documents]`` at end of day) are the collector's whole
    day history, so the result's sample stream survives the result cache
    and the worker boundary byte-identically.
    """
    metrics = result.metrics
    return {
        "occupancy": {
            str(day): list(pair)
            for day, pair in sorted(metrics.occupancy.items())
        },
        "name": result.name,
        "policy_name": result.policy_name,
        "capacity": result.capacity,
        "days": {
            str(day): [
                stats.requests, stats.hits,
                stats.bytes_requested, stats.bytes_hit,
            ]
            for day, stats in metrics.days.items()
        },
        "totals": [
            metrics.total_requests, metrics.total_hits,
            metrics.total_bytes_requested, metrics.total_bytes_hit,
        ],
        "outcomes": {
            outcome.value: count
            for outcome, count in result.outcomes.items()
        },
        "hit_positions": [list(pair) for pair in result.hit_positions],
        "cache": {
            "used_bytes": result.cache.used_bytes,
            "max_used_bytes": result.cache.max_used_bytes,
            "eviction_count": result.cache.eviction_count,
            "evicted_bytes": result.cache.evicted_bytes,
        },
        "policy_keys": (
            [key.name for key in result.cache.policy.keys]
            if isinstance(result.cache.policy, KeyPolicy) else []
        ),
    }


def record_to_result(record: dict) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` (with a :class:`CacheStats`
    shim in place of the live cache) from a flattened record.

    The collector comes back whole — day counters, totals and the
    end-of-day occupancy stamps — so ``result.timeseries`` of the
    rebuilt result gives the samples the original run's would (the
    serial/parallel/cached differential tests pin this).  A record
    written before the ``occupancy`` map existed rebuilds without stamps.
    """
    metrics = MetricsCollector()
    for day, (requests, hits, bytes_requested, bytes_hit) in sorted(
        record["days"].items(), key=lambda item: int(item[0]),
    ):
        metrics.days[int(day)] = DayStats(
            requests=requests, hits=hits,
            bytes_requested=bytes_requested, bytes_hit=bytes_hit,
        )
    for day, pair in record.get("occupancy", {}).items():
        metrics.occupancy[int(day)] = tuple(pair)
    (metrics.total_requests, metrics.total_hits,
     metrics.total_bytes_requested, metrics.total_bytes_hit) = (
        record["totals"]
    )
    outcomes: Counter = Counter({
        AccessOutcome(value): count
        for value, count in record["outcomes"].items()
    })
    keys = record.get("policy_keys") or []
    if keys:
        policy = PolicySpec(
            keys=tuple(keys),
            name=record["policy_name"],
        ).build()
    else:  # pragma: no cover - key policies always carry their keys
        policy = KeyPolicy.__new__(KeyPolicy)
        policy.name = record["policy_name"]
    shim = CacheStats(capacity=record["capacity"], policy=policy,
                      **record["cache"])
    return SimulationResult(
        name=record["name"],
        policy_name=record["policy_name"],
        capacity=record["capacity"],
        metrics=metrics,
        cache=shim,  # type: ignore[arg-type]
        outcomes=outcomes,
        hit_positions=[tuple(pair) for pair in record["hit_positions"]],
    )


# -- the on-disk result cache -------------------------------------------------


class ResultCache:
    """Directory of memoized sweep runs, one JSON file per cache key.

    The key covers the trace content hash, the full policy spec, the
    capacity, every simulator option, and :data:`ENGINE_VERSION` — any
    input that could change a result busts the cache (see
    :meth:`SweepJob.cache_fields`).  Display names are excluded, so
    relabelled reruns of the same simulation still hit.

    Integrity: entries are stored in an envelope carrying
    :data:`RESULT_SCHEMA_VERSION` and a SHA-256 checksum of the record.
    A file that fails to parse, fails the checksum, or carries another
    schema version is *quarantined* — moved into a ``quarantine/``
    subdirectory, counted in ``corrupt_entries``, and treated as a miss
    so the run is recomputed rather than crashing or silently skipping.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt_entries = 0

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    @staticmethod
    def key_for(job: SweepJob, trace_hash: str) -> str:
        """Deterministic key for one job against one trace."""
        return _checksum(job.cache_fields(trace_hash))

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a bad entry aside (kept for post-mortems, never reread)."""
        self.corrupt_entries += 1
        try:
            self.quarantine_dir.mkdir(exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:  # pragma: no cover - racing cleanup
            try:
                path.unlink()
            except OSError:
                pass

    def get(self, job: SweepJob, trace_hash: str) -> Optional[dict]:
        """The stored record for a job, or ``None`` (counted as a miss).

        Corrupt, truncated, tampered, or stale-schema entries are
        quarantined and reported as misses.
        """
        path = self._path(self.key_for(job, trace_hash))
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self.misses += 1
            return None
        try:
            envelope = json.loads(text)
            if not isinstance(envelope, dict) or "record" not in envelope:
                raise ValueError("not a result envelope")
            if envelope.get("schema") != RESULT_SCHEMA_VERSION:
                raise ValueError("stale schema version")
            record = envelope["record"]
            if envelope.get("checksum") != _checksum(record):
                raise ValueError("checksum mismatch")
        except (ValueError, TypeError):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, job: SweepJob, trace_hash: str, record: dict) -> Path:
        """Store a completed run (atomically, for concurrent sweeps)."""
        path = self._path(self.key_for(job, trace_hash))
        envelope = {
            "schema": RESULT_SCHEMA_VERSION,
            "checksum": _checksum(record),
            "record": record,
        }
        atomic_write_text(path, json.dumps(envelope))
        self.stores += 1
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt_entries": self.corrupt_entries,
        }


# -- crash-safe checkpoints ---------------------------------------------------


#: Journal ``kind`` tag for sweep checkpoints.
CHECKPOINT_KIND = "sweep-checkpoint"


def jobs_fingerprint(jobs: Sequence[SweepJob], trace_hash: str) -> str:
    """Content hash of a job grid against one trace.

    Covers every cache-key field *and* the display names (a resumed run
    must reproduce the original byte-for-byte, labels included), in grid
    order — a checkpoint only resumes the exact sweep that wrote it.
    """
    return _checksum([
        dict(job.cache_fields(trace_hash), name=job.name)
        for job in jobs
    ])


class SweepInterrupted(RuntimeError):
    """A sweep stopped on SIGINT/SIGTERM after draining and checkpointing.

    Carries everything the caller needs to report and resume: the state
    directory, how much finished, and which signal stopped the run.
    """

    def __init__(
        self,
        checkpoint_dir: Path,
        completed: int,
        total: int,
        signum: int,
    ) -> None:
        super().__init__(
            f"sweep interrupted by signal {signum}: "
            f"{completed}/{total} jobs checkpointed in {checkpoint_dir}"
        )
        self.checkpoint_dir = Path(checkpoint_dir)
        self.completed = completed
        self.total = total
        self.signum = signum


class SweepCheckpoint:
    """Crash-safe progress record of one sweep: one journal,
    ``<root>/journal.jsonl``, one record per finished job.

    The journal's header pins the checkpoint to a specific sweep —
    engine version, trace fingerprint, the full job-grid fingerprint
    and the job count — so ``--resume`` against a different trace,
    grid, or engine refuses loudly instead of splicing mismatched
    results; the checkpoint is complete when it replays ``total``
    jobs.  Each record carries the job's flattened result, its timing,
    its provenance (computed vs cached) and the worker's obs export;
    replaying them in index order reproduces the original run's slots
    *and* event stream byte-for-byte.

    Crash semantics: a record is durable once :meth:`record` returns
    (the journal fsyncs per append).  A crash mid-append leaves a torn
    tail; :meth:`open` discards it with the rest of what it does not
    keep, so the at-most-one partially-journaled job is simply
    recomputed.  A write fault (injected or real) latches the
    checkpoint ``broken``: the sweep carries on uncheckpointed rather
    than aborting — durability degrades, results never do.
    """

    JOURNAL_NAME = "journal.jsonl"

    def __init__(
        self,
        root: Union[str, Path],
        fsync: bool = True,
        faults=None,
    ) -> None:
        self.root = Path(root)
        self.fsync = fsync
        self.faults = faults
        self.broken = False
        self.tail_discarded = 0
        self._journal: Optional[Journal] = None

    @property
    def journal_path(self) -> Path:
        return self.root / self.JOURNAL_NAME

    def open(
        self,
        trace_hash: str,
        jobs: Sequence[SweepJob],
        resume: bool = False,
    ) -> List[dict]:
        """Start (or resume) checkpointing; returns replayable records.

        A resume reads the journal; when its header names a sweep, that
        identity must be this one's (else :class:`ManifestError`) and
        the first record of each valid job index is kept.  A journal
        naming no sweep (missing, torn header, or written before the
        header carried one) is a cold start.  Either way the journal is
        replaced by one :func:`rewrite_journal` of this sweep's header
        and the kept records — one disk-fault event that leaves the
        previous file whole when it fails, latching ``broken``.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        identity = {
            "engine": ENGINE_VERSION,
            "trace_hash": trace_hash,
            "jobs": jobs_fingerprint(jobs, trace_hash),
            "total": len(jobs),
        }
        records: List[dict] = []
        recovery = (
            read_journal(self.journal_path, kind=CHECKPOINT_KIND)
            if resume else None
        )
        if recovery is not None and "jobs" in recovery.header:
            for key, wanted in identity.items():
                found = recovery.header.get(key)
                if found != wanted:
                    raise ManifestError(
                        f"checkpoint {self.root} is for a different sweep: "
                        f"{key}={found!r}, this run has {key}={wanted!r}"
                    )
            self.tail_discarded = recovery.discarded
            seen: Set[int] = set()
            for record in recovery.records:
                index = record.get("index")
                if isinstance(index, int) and 0 <= index < len(jobs) and (
                    index not in seen
                ):
                    seen.add(index)
                    records.append(record)
        try:
            self._journal = rewrite_journal(
                self.journal_path, records, kind=CHECKPOINT_KIND,
                fsync=self.fsync, faults=self.faults, header=identity,
            )
        except OSError:
            self.broken = True
        return records

    def record(
        self,
        index: int,
        seconds: float,
        record: dict,
        export: Optional[dict],
        from_cache: bool,
    ) -> None:
        """Durably journal one finished job (fsynced before returning)."""
        if self.broken or self._journal is None:
            return
        try:
            self._journal.append({
                "index": index,
                "seconds": seconds,
                "from_cache": from_cache,
                "record": record,
                "export": export,
            })
        except OSError:
            self.broken = True

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None


# -- execution ----------------------------------------------------------------

#: Trace installed into each worker process by the pool initializer, so
#: the (large) request list is shipped once per worker, not once per job.
_WORKER_TRACE: Optional[Sequence[Request]] = None

#: Job indices at which a worker kills itself (fault injection: the
#: deterministic stand-in for OOM kills and segfaults mid-grid).
_WORKER_KILL_INDICES: frozenset = frozenset()

#: Event-log threshold inherited from the parent's obs context, so a
#: ``--log-level debug`` sweep streams worker eviction events too.
_WORKER_LOG_LEVEL: int = 20


def _init_worker(
    trace: Sequence[Request],
    kill_indices: frozenset = frozenset(),
    log_level: int = 20,
) -> None:
    global _WORKER_TRACE, _WORKER_KILL_INDICES, _WORKER_LOG_LEVEL
    _WORKER_TRACE = trace
    _WORKER_KILL_INDICES = kill_indices
    _WORKER_LOG_LEVEL = log_level


def _execute(
    trace: Sequence[Request], job: SweepJob, obs: Optional[Obs] = None,
) -> SimulationResult:
    """Run one job against the shared trace (worker and serial path)."""
    options = job.options
    cache = SimCache(
        capacity=job.capacity,
        policy=job.spec.build(),
        seed=options.seed,
        use_heap_index=options.use_heap_index,
    )
    if obs is None:
        return simulate(
            trace, cache, name=job.name or job.spec.label,
            track_positions_every=options.track_positions_every,
        )
    with obs.span(
        "sweep.job", policy=job.spec.label, capacity=job.capacity,
    ):
        return simulate(
            trace, cache, name=job.name or job.spec.label,
            track_positions_every=options.track_positions_every,
            obs=obs,
        )


def _run_job_in_worker(
    payload: Tuple[int, SweepJob],
) -> Tuple[int, float, dict, dict]:
    index, job = payload
    if index in _WORKER_KILL_INDICES:
        # Injected crash: die the way a real worker does — no exception,
        # no cleanup — so the parent sees a broken pool, not an error.
        os._exit(73)
    start = time.perf_counter()
    # Each job collects into a private obs context whose export rides
    # the result pipeline back; the parent merges payloads in job order
    # so parallel aggregation stays deterministic.
    obs = Obs(events=EventLog(level=_WORKER_LOG_LEVEL))
    result = _execute(_WORKER_TRACE, job, obs=obs)
    return (
        index, time.perf_counter() - start,
        result_to_record(result), obs.export(),
    )


@dataclass
class JobResult:
    """One grid cell's outcome, with provenance."""

    job: SweepJob
    result: SimulationResult
    seconds: float
    from_cache: bool


@dataclass
class SweepReport:
    """All results of one sweep, in job order, plus engine telemetry.

    Engine telemetry lives in the run's :class:`~repro.obs.Obs` context
    (the ``repro_sweep_*`` metric families); the counter attributes the
    pre-obs report carried (``cache_hits``, ``retried_jobs``, ...) are
    kept as read-through properties over that registry, so existing
    callers and tests see the same numbers.
    """

    results: List[JobResult]
    wall_seconds: float
    workers: int
    trace_hash: str
    trace_requests: int
    #: The run-local observability context: every sweep metric, span and
    #: event of this run (workers included), merged in job order.
    obs: Obs = field(default_factory=Obs, repr=False, compare=False)

    def _count(self, name: str, **labels: object) -> int:
        return int(self.obs.registry.value(name, **labels))

    @property
    def cache_hits(self) -> int:
        """Jobs served straight from the on-disk result cache."""
        return self._count("repro_sweep_jobs_total", source="cached")

    @property
    def cache_misses(self) -> int:
        """Jobs that had to be computed (no usable cached result)."""
        return self._count("repro_sweep_jobs_total", source="computed")

    @property
    def cache_stores(self) -> int:
        """Computed results persisted into the result cache."""
        return self._count("repro_sweep_result_cache_total", event="store")

    @property
    def cache_quarantined(self) -> int:
        """Corrupt/stale result-cache entries quarantined this run."""
        return self._count(
            "repro_sweep_result_cache_total", event="quarantined",
        )

    @property
    def resumed_jobs(self) -> int:
        """Jobs restored from a checkpoint journal instead of being
        recomputed (``run_sweep(..., resume=True)``)."""
        return self._count("repro_sweep_resumed_jobs_total")

    @property
    def retried_jobs(self) -> int:
        """Job executions re-attempted after a worker crash or failure."""
        return self._count("repro_sweep_retried_jobs_total")

    @property
    def recovered_jobs(self) -> int:
        """Jobs that completed successfully after at least one failure."""
        return self._count("repro_sweep_recovered_jobs_total")

    @property
    def pool_restarts(self) -> int:
        """Times the process pool broke and was rebuilt (worker death)."""
        return self._count("repro_sweep_pool_restarts_total")

    @property
    def fallback_jobs(self) -> int:
        """Jobs finished on the in-process fallback path after the
        pool-retry budget was exhausted."""
        return self._count("repro_sweep_fallback_jobs_total")

    def by_name(self) -> Dict[str, SimulationResult]:
        """Results keyed by job display name (order-preserving)."""
        return {jr.result.name: jr.result for jr in self.results}

    @property
    def simulated_requests(self) -> int:
        """Requests actually replayed (cache hits replay nothing)."""
        return self.trace_requests * sum(
            1 for jr in self.results if not jr.from_cache
        )

    @property
    def requests_per_second(self) -> float:
        """Aggregate simulated-request throughput of the whole sweep."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.simulated_requests / self.wall_seconds

    def summary(self) -> dict:
        """Engine telemetry as a plain dict."""
        return {
            "jobs": len(self.results),
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "trace_requests": self.trace_requests,
            "simulated_requests": self.simulated_requests,
            "requests_per_second": self.requests_per_second,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "resumed_jobs": self.resumed_jobs,
            "retried_jobs": self.retried_jobs,
            "recovered_jobs": self.recovered_jobs,
            "pool_restarts": self.pool_restarts,
            "fallback_jobs": self.fallback_jobs,
            "result_cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "stores": self.cache_stores,
                "quarantined": self.cache_quarantined,
            },
            "per_job_seconds": {
                jr.result.name: jr.seconds for jr in self.results
            },
        }


def run_sweep(
    trace: Sequence[Request],
    jobs: Sequence[SweepJob],
    workers: int = 1,
    result_cache: Optional[ResultCache] = None,
    trace_hash: Optional[str] = None,
    fault_plan=None,
    max_pool_restarts: int = 2,
    obs: Optional[Obs] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    kill_hook: Optional[Callable[[int], None]] = None,
) -> SweepReport:
    """Run a policy x capacity grid over one shared, already-decoded trace.

    Worker crashes do not abort the grid: jobs lost to a broken pool are
    resubmitted to a fresh pool (up to ``max_pool_restarts`` rebuilds)
    and, past that budget, finished on the in-process serial path — so a
    sweep always returns every result, bit-identical to a serial run,
    because each job is self-contained and seeds its own RNG.

    Args:
        trace: the validated request list, decoded exactly once by the
            caller and shared (by fork/pickle) with every worker.
        jobs: the grid cells; results come back in the same order.
        workers: process count.  ``1`` runs everything in-process (the
            serial fallback); higher values fan uncached jobs out over a
            :class:`ProcessPoolExecutor`.
        result_cache: optional :class:`ResultCache`; completed runs are
            looked up before simulating and stored after.
        trace_hash: precomputed :func:`trace_fingerprint`, for callers
            sweeping the same trace repeatedly.
        fault_plan: optional :class:`~repro.faults.FaultPlan`; a worker
            that picks up a job whose index is listed dies mid-grid
            (one-shot: retries run without kills).  Coordinator-kill
            indices fire ``kill_hook`` right after that job's result is
            journaled; disk-fault rules are injected into every
            checkpoint write.
        max_pool_restarts: pool rebuilds before falling back to
            in-process execution for whatever is still unfinished.
        obs: optional :class:`repro.obs.Obs` context owned by the caller.
            The run collects into a private per-run context (so the
            report's counter properties describe *this* run, not the
            caller's lifetime totals) and merges it into ``obs`` at the
            end.  Workers collect into their own contexts and ship the
            export back with each result; the parent absorbs those
            payloads in job order, so the merged event stream of a
            parallel run is as reproducible as a serial one.
        checkpoint_dir: optional state directory.  When set, every
            finished job (computed or cache-served) is durably journaled
            there as it completes, and SIGINT/SIGTERM trigger a graceful
            drain: in-flight jobs finish and are journaled, queued jobs
            are abandoned, and :class:`SweepInterrupted` is raised.
        resume: replay an existing checkpoint in ``checkpoint_dir``
            before running: journaled jobs are restored (results, obs
            exports, provenance) instead of recomputed, counted in the
            report's ``resumed_jobs``.  A torn journal tail is discarded
            — its at-most-one partial job is simply recomputed — and a
            checkpoint written by a different sweep (trace, grid, or
            engine version) raises :class:`~repro.durability.
            ManifestError` rather than splicing mismatched results.
        kill_hook: chaos hand-off for coordinator kills — called with
            the job index right *after* that job is journaled, when the
            index is in ``fault_plan.coordinator_kill_indices()``.
            Defaults to ``os._exit(75)``, a real unclean death; tests
            pass a hook that raises instead.

    Returns:
        a :class:`SweepReport` whose ``results`` align 1:1 with ``jobs``.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if resume and checkpoint_dir is None:
        raise ValueError("resume requires a checkpoint_dir")
    start = time.perf_counter()
    run_obs = Obs(events=EventLog(
        level=obs.events.level if obs is not None else "info",
    ))
    m = sweep_metrics(run_obs.registry)
    channel = run_obs.channel("sweep")

    if trace_hash is None and (
        result_cache is not None or checkpoint_dir is not None
    ):
        trace_hash = trace_fingerprint(trace)

    coordinator_kills: frozenset = (
        fault_plan.coordinator_kill_indices()
        if fault_plan is not None else frozenset()
    )
    if kill_hook is None:
        def kill_hook(index: int) -> None:
            os._exit(75)  # an unclean coordinator death, like SIGKILL

    checkpoint: Optional[SweepCheckpoint] = None
    resumed_records: List[dict] = []
    if checkpoint_dir is not None:
        disk_faults = (
            fault_plan.disk_injector() if fault_plan is not None else None
        )
        checkpoint = SweepCheckpoint(checkpoint_dir, faults=disk_faults)
        resumed_records = checkpoint.open(
            trace_hash or "", jobs, resume=resume,
        )

    # Graceful drain on SIGINT/SIGTERM, but only when there is a
    # checkpoint to drain into (and only from the main thread — signal
    # handlers cannot be installed elsewhere).
    stop: Dict[str, Optional[int]] = {"signum": None}
    installed_handlers: List[tuple] = []
    if checkpoint is not None:
        def _request_stop(signum: int, frame: object) -> None:
            stop["signum"] = signum

        for signum in (_signal.SIGINT, _signal.SIGTERM):
            try:
                previous = _signal.signal(signum, _request_stop)
            except ValueError:  # not the main thread
                continue
            installed_handlers.append((signum, previous))

    run_span = run_obs.span(
        "sweep.run", jobs=len(jobs), workers=workers,
    )
    run_span.__enter__()
    try:
        slots: List[Optional[JobResult]] = [None] * len(jobs)
        #: index -> obs export, absorbed in job order at the end.  Both
        #: worker payloads and the serial path's per-job contexts land
        #: here, so every run shape merges telemetry identically.
        worker_exports: Dict[int, dict] = {}

        failed_once: Set[int] = set()

        def settle(
            index: int, record: dict, seconds: float,
            export: Optional[dict], source: str, resumed: bool = False,
        ) -> None:
            """Fill one job's slot from its record, count it, journal
            it — the one way a job finishes.  ``source`` is its
            ``repro_sweep_jobs_total`` label; every computed record is
            stored, and one ``resumed`` from the journal is not
            journaled again."""
            job = jobs[index]
            computed = source == "computed"
            if result_cache is not None:
                if not computed:
                    m.result_cache.labels(event="hit").inc()
                else:
                    if resumed:  # a fresh miss was counted at its lookup
                        m.result_cache.labels(event="miss").inc()
                    result_cache.put(job, trace_hash, record)
                    m.result_cache.labels(event="store").inc()
            if export is not None:
                worker_exports[index] = export
            slots[index] = JobResult(
                job=job, result=record_to_result(record),
                seconds=seconds, from_cache=not computed,
            )
            m.jobs.labels(source=source).inc()
            if computed:
                m.job_seconds.observe(seconds)
                if index in failed_once:
                    m.recovered.inc()
            if resumed:
                m.resumed.inc()
                channel.debug(
                    "job.resumed", index=index, policy=job.spec.label,
                    capacity=job.capacity, from_cache=not computed,
                )
                return
            if checkpoint is not None:
                checkpoint.record(
                    index, seconds, record, export, from_cache=not computed,
                )
            if computed and index in coordinator_kills:
                # Chaos: the coordinator dies right after this job's
                # result hit the journal — the worst-timed crash a
                # resume must recover from.
                kill_hook(index)

        # Replay the checkpoint journal: restore each finished job's
        # slot, export, and telemetry exactly as the original run
        # recorded them, so the resumed run's report and event stream
        # are byte-identical to an uninterrupted one.
        for entry in resumed_records:
            settle(
                entry["index"], entry["record"], entry["seconds"],
                entry.get("export"),
                "cached" if entry["from_cache"] else "computed",
                resumed=True,
            )
        if resumed_records:
            channel.debug(
                "checkpoint.resumed", jobs=len(resumed_records),
                tail_discarded=checkpoint.tail_discarded,
            )

        pending: List[Tuple[int, SweepJob]] = []
        for index, job in enumerate(jobs):
            if slots[index] is not None:  # restored from the checkpoint
                continue
            if result_cache is not None:
                quarantined_before = result_cache.corrupt_entries
                record = result_cache.get(job, trace_hash)
                quarantined = (
                    result_cache.corrupt_entries - quarantined_before
                )
                if quarantined:
                    m.result_cache.labels(event="quarantined").inc(
                        quarantined,
                    )
                    channel.warning(
                        "cache.quarantined", index=index,
                        policy=job.spec.label, capacity=job.capacity,
                    )
            else:
                record = None
            if record is not None:
                settle(
                    index, dict(record, name=job.name or job.spec.label),
                    0.0, None, "cached",
                )
            else:
                if result_cache is not None:
                    m.result_cache.labels(event="miss").inc()
                pending.append((index, job))

        remaining = list(pending)
        if remaining and workers > 1:
            kill_indices = (
                frozenset(fault_plan.kill_indices())
                if fault_plan is not None else frozenset()
            )
            rounds = 0
            while remaining and rounds <= max_pool_restarts:
                completed: Set[int] = set()
                pool_broke = False
                try:
                    with ProcessPoolExecutor(
                        max_workers=min(workers, len(remaining)),
                        initializer=_init_worker,
                        initargs=(
                            trace, kill_indices, run_obs.events.level,
                        ),
                    ) as pool:
                        futures = {
                            pool.submit(_run_job_in_worker, payload): payload
                            for payload in remaining
                        }
                        draining = False
                        for future in as_completed(futures):
                            try:
                                index, seconds, record, export = (
                                    future.result()
                                )
                            except CancelledError:
                                continue  # abandoned during a drain
                            except BrokenProcessPool:
                                pool_broke = True
                            except Exception:
                                # Job-level failure (not a dead worker):
                                # retried too; a permanent failure surfaces
                                # from the in-process fallback with a real
                                # traceback.
                                pass
                            else:
                                settle(
                                    index, record, seconds, export,
                                    "computed",
                                )
                                completed.add(index)
                            if stop["signum"] is not None and not draining:
                                # Graceful drain: queued jobs are
                                # abandoned (they stay in the checkpoint's
                                # to-do set); running ones finish and get
                                # journaled above.
                                draining = True
                                for queued in futures:
                                    queued.cancel()
                except BrokenProcessPool:
                    # The pool died while submitting or shutting down.
                    pool_broke = True
                failures = [
                    payload for payload in remaining
                    if payload[0] not in completed
                ]
                if stop["signum"] is not None:
                    remaining = failures
                    break
                if failures:
                    if pool_broke:
                        m.pool_restarts.inc()
                        channel.warning(
                            "pool.broken", round=rounds,
                            lost_jobs=len(failures),
                        )
                    m.retried.inc(len(failures))
                    failed_once.update(index for index, _ in failures)
                    channel.warning(
                        "jobs.retried",
                        indices=sorted(index for index, _ in failures),
                    )
                    # Scheduled worker kills are one-shot faults.
                    kill_indices = frozenset()
                    rounds += 1
                remaining = failures

        for index, job in remaining:
            if stop["signum"] is not None:
                break  # drain: already-finished jobs are journaled
            if index in failed_once:
                m.fallback.inc()
                channel.warning(
                    "job.fallback", index=index, policy=job.spec.label,
                )
            job_start = time.perf_counter()
            # The serial path collects into a private per-job context
            # and ships its export through the same index-ordered merge
            # as the workers, so every run shape (serial, parallel,
            # resumed) assembles one identical event stream.
            job_obs = Obs(events=EventLog(level=run_obs.events.level))
            result = _execute(trace, job, obs=job_obs)
            seconds = time.perf_counter() - job_start
            settle(
                index, result_to_record(result), seconds,
                job_obs.export(), "computed",
            )
        # (workers == 1 lands here directly: the plain serial path.)

        # Fold worker telemetry in by ascending job index — never in
        # completion order — so the merged stream is reproducible.
        for index in sorted(worker_exports):
            run_obs.absorb(worker_exports[index])

        if stop["signum"] is not None:
            completed_jobs = sum(1 for slot in slots if slot is not None)
            channel.warning(
                "sweep.interrupted", signum=stop["signum"],
                completed=completed_jobs, total=len(jobs),
            )
            if obs is not None:
                obs.absorb(run_obs.export())
            raise SweepInterrupted(
                Path(checkpoint_dir), completed_jobs, len(jobs),
                stop["signum"],
            )

        # Completion events, one per grid cell in job order, timing-free
        # (timings live in spans and the job_seconds histogram).
        for index, slot in enumerate(slots):
            if slot is None:  # pragma: no cover - every job finishes
                continue
            channel.info(
                "job.done", index=index, name=slot.result.name,
                policy=slot.job.spec.label, capacity=slot.job.capacity,
                source="cached" if slot.from_cache else "computed",
                recovered=index in failed_once,
            )
    finally:
        run_span.__exit__(None, None, None)
        for signum, previous in installed_handlers:
            try:
                _signal.signal(signum, previous)
            except ValueError:  # pragma: no cover - non-main thread
                pass
        if checkpoint is not None:
            checkpoint.close()

    if obs is not None:
        obs.absorb(run_obs.export())
    return SweepReport(
        results=[slot for slot in slots if slot is not None],
        wall_seconds=time.perf_counter() - start,
        workers=workers,
        trace_hash=trace_hash or "",
        trace_requests=len(trace),
        obs=run_obs,
    )
