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
* completed runs are memoized in a :class:`ResultCache` keyed by
  ``(trace content hash, policy spec, capacity, simulator options,
  engine version)``, so re-running a sweep only computes the delta; the
  cache is one journal, and a checkpoint is the same store with the
  sweep's identity in its header.

Determinism guarantee: a :class:`SweepJob` fully describes one
simulation.  Workers rebuild the policy from its :class:`PolicySpec` and
construct a fresh :class:`~repro.core.cache.SimCache` seeded from the
job's :class:`SimOptions`; no RNG state is ever shared between jobs, so
serial, parallel, and cached replays of the same job produce identical
HR/WHR, eviction counts, and day series.
"""

from __future__ import annotations

import hashlib
import os
import signal as _signal
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.cache import AccessOutcome, SimCache
from repro.core.metrics import DayStats, MetricsCollector
from repro.core.policy import KeyPolicy
from repro.core.simulator import SimulationResult, simulate
from repro.durability import (
    Journal,
    JournalRecovery,
    ManifestError,
    checksum as _checksum,
    read_journal,
    rewrite_journal,
)
from repro.obs import Obs
from repro.obs.catalog import sweep_metrics
from repro.trace.compiled import compile_trace
from repro.trace.record import Request

__all__ = [
    "ENGINE_VERSION",
    "RESULT_SCHEMA_VERSION",
    "PolicySpec",
    "SimOptions",
    "SweepJob",
    "JobResult",
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

#: Record format of a :class:`ResultCache` journal, carried in its
#: header.  Bumped when the record (not the simulation) changes; a
#: journal under any other version is recomputed, never reinterpreted.
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
        return asdict(self)


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
        return {
            "engine": ENGINE_VERSION,
            "trace": trace_hash,
            "keys": list(self.spec.keys),
            "policy_name": self.spec.name,
            "capacity": self.capacity,
            **self.options.cache_fields(),
        }


def trace_fingerprint(trace: Sequence[Request]) -> str:
    """Content hash of a decoded trace (the fields the simulator reads).

    Hashes ``(timestamp, url, size, doc_type)`` per request, read from
    the compiled trace's columns, so any change that could perturb a
    simulation changes the fingerprint while re-decoding an identical log
    file does not.
    """
    trace = compile_trace(trace)
    digest = hashlib.sha256()
    update = digest.update
    for stamp, url, size, doc_type in zip(
        trace.stamps, trace.urls, trace.sizes, trace.doc_types()
    ):
        kind = doc_type.value if doc_type else ""
        update(f"{stamp!r}\x1f{url}\x1f{size}\x1f{kind}\n".encode("utf-8"))
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
    serial/parallel/cached differential tests pin this).
    """
    metrics = MetricsCollector()
    for day, counts in sorted(
        record["days"].items(), key=lambda item: int(item[0]),
    ):
        metrics.days[int(day)] = DayStats(*counts)
    for day, pair in record["occupancy"].items():
        metrics.occupancy[int(day)] = tuple(pair)
    (metrics.total_requests, metrics.total_hits,
     metrics.total_bytes_requested, metrics.total_bytes_hit) = (
        record["totals"]
    )
    outcomes: Counter = Counter({
        AccessOutcome(value): count
        for value, count in record["outcomes"].items()
    })
    policy = PolicySpec(
        keys=tuple(record["policy_keys"]), name=record["policy_name"],
    ).build()
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


# -- finished jobs: one journal -----------------------------------------------


#: Journal ``kind`` tags and file names of a checkpoint and a result cache.
CHECKPOINT_KIND, CHECKPOINT_NAME = "sweep-checkpoint", "journal.jsonl"
RESULTS_KIND, RESULTS_NAME = "sweep-results", "result-cache.json"


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


class ResultCache:
    """A sweep's finished jobs: one journal, one verified record a slot.

    Opened plain, it is the result cache, ``<root>/result-cache.json``,
    whose header carries :data:`RESULT_SCHEMA_VERSION` and whose slots
    are :meth:`key_for` keys (every input that can change a result, not
    the display name, so relabelled reruns still hit).  Opened with a
    sweep's ``jobs``, it is that sweep's checkpoint,
    ``<root>/journal.jsonl``, whose header names the sweep (engine, trace
    and job-grid fingerprints, job count) and whose slots are job indices.

    :meth:`open` keeps the verified prefix, so a torn, corrupt, tampered
    or stale-schema record is never reused: it and every record after
    it count in ``corrupt_entries`` and are recomputed.  A write fault
    latches ``broken`` and the sweep carries on unpersisted.  Handles
    sharing a directory each append to the generation their own open
    wrote: the last open wins, and a lost record costs a recomputation,
    never a wrong result.  A closed handle reopens on :meth:`get` or
    :meth:`put`.
    """

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
        #: slot -> record: the last open's kept records and later appends.
        self.entries: Dict[object, dict] = {}
        self.hits = self.corrupt_entries = 0
        self._slot = "key"
        self._journal: Optional[Journal] = None

    @staticmethod
    def key_for(job: SweepJob, trace_hash: str) -> str:
        """Deterministic key for one job against one trace."""
        return _checksum(job.cache_fields(trace_hash))

    def open(
        self,
        trace_hash: str = "",
        jobs: Optional[Sequence[SweepJob]] = None,
        resume: bool = True,
    ) -> List[dict]:
        """Read the journal (not when ``resume`` is false), check its header,
        keep the first verified record of each valid slot, and write
        them back under this header in one :func:`rewrite_journal` —
        one disk-fault event; a fault leaves the file whole and latches
        ``broken``.  Returns the kept records.  A checkpoint header that
        names another sweep raises :class:`ManifestError`; any other
        header mismatch is a cold start.
        """
        self.close()
        self.root.mkdir(parents=True, exist_ok=True)
        if jobs is None:
            name, kind, self._slot = RESULTS_NAME, RESULTS_KIND, "key"
            header: dict = {"schema": RESULT_SCHEMA_VERSION}
        else:
            name, kind, self._slot = CHECKPOINT_NAME, CHECKPOINT_KIND, "index"
            header = {
                "engine": ENGINE_VERSION,
                "trace_hash": trace_hash,
                "jobs": jobs_fingerprint(jobs, trace_hash),
                "total": len(jobs),
            }
        path = self.root / name
        recovery = (
            read_journal(path, kind=kind) if resume else JournalRecovery()
        )
        found = {key: recovery.header.get(key) for key in header}
        if found != header and jobs is not None and "jobs" in recovery.header:
            key = next(key for key in header if found[key] != header[key])
            raise ManifestError(
                f"checkpoint {self.root} is for a different sweep: "
                f"{key}={found[key]!r}, this run has {key}={header[key]!r}"
            )
        kept = recovery.records if found == header else []
        self.corrupt_entries = (
            recovery.discarded + len(recovery.records) - len(kept)
        )
        self.broken, self.entries = False, {}
        for record in kept:
            slot = record.get(self._slot)
            if isinstance(slot, str) if jobs is None else (
                isinstance(slot, int) and 0 <= slot < len(jobs)
            ):
                self.entries.setdefault(slot, record)
        try:
            self._journal = rewrite_journal(
                path, list(self.entries.values()), kind=kind,
                fsync=self.fsync, faults=self.faults, header=header,
            )
        except OSError:
            self.broken = True
        return list(self.entries.values())

    def append(self, record: dict) -> None:
        """Durably journal one finished job under its slot."""
        self.entries.setdefault(record[self._slot], record)
        if self.broken or self._journal is None:
            return
        try:
            self._journal.append(record)
        except OSError:
            self.broken = True

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def get(self, job: SweepJob, trace_hash: str) -> Optional[dict]:
        """The stored record for a job, or ``None``."""
        if self._journal is None and not self.broken:
            self.open()
        entry = self.entries.get(self.key_for(job, trace_hash))
        if entry is None:
            return None
        self.hits += 1
        return entry["record"]

    def put(self, job: SweepJob, trace_hash: str, record: dict) -> None:
        """Store a completed run."""
        if self._journal is None and not self.broken:
            self.open()
        self.append({"key": self.key_for(job, trace_hash), "record": record})

    def __len__(self) -> int:
        return len(self.entries)


# -- execution ----------------------------------------------------------------

#: Trace installed into each worker process by the pool initializer, so
#: the (large) request list is shipped once per worker, not once per job.
_WORKER_TRACE: Optional[Sequence[Request]] = None

#: Job indices at which a worker kills itself (fault injection: the
#: deterministic stand-in for OOM kills and segfaults mid-grid).
_WORKER_KILL_INDICES: frozenset = frozenset()

#: Event-log threshold and span switch inherited from the parent's run
#: context, so a ``--log-level debug`` sweep streams worker eviction
#: events too, and a sweep nobody traces records no worker spans.
_WORKER_LOG_LEVEL: int = 20
_WORKER_SPANS: bool = True


def _init_worker(
    trace: Sequence[Request],
    kill_indices: frozenset = frozenset(),
    log_level: int = 20,
    spans: bool = True,
) -> None:
    global _WORKER_TRACE, _WORKER_KILL_INDICES, _WORKER_LOG_LEVEL
    global _WORKER_SPANS
    _WORKER_TRACE = trace
    _WORKER_KILL_INDICES = kill_indices
    _WORKER_LOG_LEVEL = log_level
    _WORKER_SPANS = spans


def _execute(
    trace: Sequence[Request], job: SweepJob, log_level: int, spans: bool,
) -> Tuple[dict, float, dict]:
    """Run one job against the shared trace (worker and serial path):
    its record, seconds and obs export.

    The job collects into a private obs context whose export rides back
    with the record; the parent merges exports in job order, so every
    run shape (serial, parallel, resumed) assembles one identical event
    stream.
    """
    start = time.perf_counter()
    obs = Obs.create(log_level=log_level, spans=spans)
    options = job.options
    cache = SimCache(
        capacity=job.capacity,
        policy=job.spec.build(),
        seed=options.seed,
        use_heap_index=options.use_heap_index,
    )
    with obs.span(
        "sweep.job", policy=job.spec.label, capacity=job.capacity,
    ):
        result = simulate(
            trace, cache, name=job.name or job.spec.label,
            track_positions_every=options.track_positions_every,
            obs=obs,
        )
    seconds = time.perf_counter() - start
    return result_to_record(result), seconds, obs.export()


def _run_job_in_worker(
    payload: Tuple[int, SweepJob],
) -> Tuple[int, dict, float, dict]:
    index, job = payload
    if index in _WORKER_KILL_INDICES:
        # Injected crash: die the way a real worker does — no exception,
        # no cleanup — so the parent sees a broken pool, not an error.
        os._exit(73)
    return (index, *_execute(
        _WORKER_TRACE, job, _WORKER_LOG_LEVEL, _WORKER_SPANS,
    ))


@dataclass
class JobResult:
    """One grid cell's outcome, with provenance."""

    job: SweepJob
    result: SimulationResult
    seconds: float
    from_cache: bool


def _counter(family: str, doc: str, **labels: str) -> property:
    """A report counter, read through from the run's metric registry."""
    return property(
        lambda report: int(report.obs.registry.value(family, **labels)), doc=doc,
    )


@dataclass
class SweepReport:
    """All results of one sweep, in job order, plus engine telemetry.

    Engine telemetry lives in the run's :class:`~repro.obs.Obs` context
    (the ``repro_sweep_*`` metric families); the counter attributes the
    pre-obs report carried (``cache_hits``, ``retried_jobs``, ...) are
    read through that registry, so existing callers and tests see the
    same numbers.
    """

    results: List[JobResult]
    wall_seconds: float
    workers: int
    trace_hash: str
    trace_requests: int
    #: The run-local observability context: every sweep metric, span and
    #: event of this run (workers included), merged in job order.
    obs: Obs = field(default_factory=Obs, repr=False, compare=False)

    cache_hits = _counter(
        "repro_sweep_jobs_total", "Jobs served straight from the on-disk result cache.",
        source="cached")
    cache_misses = _counter(
        "repro_sweep_jobs_total", "Jobs that had to be computed (no usable cached result).",
        source="computed")
    cache_stores = _counter(
        "repro_sweep_result_cache_total", "Computed results persisted into the result cache.",
        event="store")
    cache_quarantined = _counter(
        "repro_sweep_result_cache_total", "Corrupt/stale result-cache entries quarantined.",
        event="quarantined")
    resumed_jobs = _counter(
        "repro_sweep_resumed_jobs_total",
        "Jobs restored from a checkpoint journal instead of being recomputed.")
    retried_jobs = _counter(
        "repro_sweep_retried_jobs_total",
        "Job executions re-attempted after a worker crash or failure.")
    recovered_jobs = _counter(
        "repro_sweep_recovered_jobs_total",
        "Jobs that completed successfully after at least one failure.")
    pool_restarts = _counter(
        "repro_sweep_pool_restarts_total",
        "Times the process pool broke and was rebuilt (worker death).")
    fallback_jobs = _counter(
        "repro_sweep_fallback_jobs_total",
        "Jobs finished in-process after the pool-retry budget was exhausted.")

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
        result_cache: optional :class:`ResultCache`; opened for the run
            (records it cannot verify are counted ``quarantined``),
            completed runs are looked up before simulating and stored
            after, and a write fault leaves the sweep uncached.
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
            parallel run is as reproducible as a serial one.  Spans are
            recorded only when ``obs`` is ``None`` (the report is then
            the only view) or its tracer records them.
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
    trace = compile_trace(trace)  # once, for the fingerprint and every job
    start = time.perf_counter()
    run_obs = Obs.create(
        log_level=obs.events.level if obs is not None else "info",
        spans=obs.tracer.enabled if obs is not None else True,
    )
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

    checkpoint: Optional[ResultCache] = None
    resumed_records: List[dict] = []
    if checkpoint_dir is not None:
        disk_faults = (
            fault_plan.disk_injector() if fault_plan is not None else None
        )
        checkpoint = ResultCache(checkpoint_dir, faults=disk_faults)
        resumed_records = checkpoint.open(
            trace_hash or "", jobs, resume=resume,
        )
    if result_cache is not None:
        result_cache.open()
        if result_cache.corrupt_entries:
            m.result_cache.labels(event="quarantined").inc(
                result_cache.corrupt_entries,
            )
            channel.warning(
                "cache.quarantined", entries=result_cache.corrupt_entries,
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
            a result-cache miss and is stored, and one ``resumed`` from
            the journal is not journaled again."""
            job = jobs[index]
            computed = source == "computed"
            if result_cache is not None and computed:
                m.result_cache.labels(event="miss").inc()
                result_cache.put(job, trace_hash, record)
                m.result_cache.labels(event="store").inc()
            elif result_cache is not None:
                m.result_cache.labels(event="hit").inc()
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
                if not (export or {}).get("spans"):  # a spanless run journaled it
                    with run_obs.span("sweep.job", policy=job.spec.label,
                                      capacity=job.capacity, resumed=True):
                        pass
                channel.debug(
                    "job.resumed", index=index, policy=job.spec.label,
                    capacity=job.capacity, from_cache=not computed,
                )
                return
            if checkpoint is not None:
                checkpoint.append({
                    "index": index, "seconds": seconds,
                    "from_cache": not computed, "record": record,
                    "export": export,
                })
            if computed and index in coordinator_kills:
                # Chaos: the coordinator dies right after this job's
                # result hit the journal — the worst-timed crash a
                # resume must recover from.
                kill_hook(index)

        # Replay the checkpoint journal: restore each finished job's
        # slot, export, and telemetry exactly as the original run
        # recorded them, so the resumed run's report and event stream
        # are byte-identical to an uninterrupted one.  Job order, not
        # the journal's completion order, so a parallel run's resume
        # reads the same.
        for entry in sorted(resumed_records, key=lambda entry: entry["index"]):
            settle(
                entry["index"], entry["record"], entry["seconds"],
                entry.get("export"),
                "cached" if entry["from_cache"] else "computed",
                resumed=True,
            )
        if resumed_records:
            channel.debug(
                "checkpoint.resumed", jobs=len(resumed_records),
                tail_discarded=checkpoint.corrupt_entries,
            )

        remaining: List[Tuple[int, SweepJob]] = []
        for index, job in enumerate(jobs):
            if slots[index] is not None:  # restored from the checkpoint
                continue
            record = (
                result_cache.get(job, trace_hash)
                if result_cache is not None else None
            )
            if record is None:
                remaining.append((index, job))
            else:
                settle(
                    index, dict(record, name=job.name or job.spec.label),
                    0.0, None, "cached",
                )

        if remaining and workers > 1:
            # Only a parallel sweep pays for loading the process pool.
            from concurrent.futures import (
                CancelledError,
                ProcessPoolExecutor,
                as_completed,
            )
            from concurrent.futures.process import BrokenProcessPool

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
                            run_obs.tracer.enabled,
                        ),
                    ) as pool:
                        futures = {
                            pool.submit(_run_job_in_worker, payload): payload
                            for payload in remaining
                        }
                        draining = False
                        for future in as_completed(futures):
                            try:
                                index, record, seconds, export = (
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
            settle(
                index, *_execute(
                    trace, job, run_obs.events.level, run_obs.tracer.enabled,
                ),
                "computed",
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
            channel.info(
                "job.done", index=index, name=slot.result.name,
                policy=slot.job.spec.label, capacity=slot.job.capacity,
                source="cached" if slot.from_cache else "computed",
                recovered=index in failed_once,
            )
    finally:
        run_span.__exit__(None, None, None)
        for signum, previous in installed_handlers:
            _signal.signal(signum, previous)
        for store in (checkpoint, result_cache):
            if store is not None:
                store.close()

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
