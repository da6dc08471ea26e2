"""Shared plumbing of the repo benchmark: checkout bootstrap, statistics,
the in-memory span recorder, the pass loop, expected-value files and
provenance.

Nothing here knows a workload; the workload modules (``wl_*.py``) own
what is measured and ``run.py`` owns the command line and the output
contract.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
EXPECTED_DIR = BENCH_DIR / "expected"
#: Scratch space for CLF files, journals and server inputs.  Inside the
#: checkout because the benchmark may write nowhere else; one directory
#: per process so concurrent runs never collide.
WORK_ROOT = BENCH_DIR / ".work"

DEFAULT_SEED = 1996


def bootstrap() -> None:
    """Make this checkout's ``src/`` the place ``repro`` imports from.

    Exits non-zero (printing no result) when the checkout has no
    ``src/repro`` — the benchmark measures the program beside it and
    must never fall back to some other installed copy.
    """
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program to measure: {SRC_DIR}/repro is missing")
    sys.path.insert(0, str(SRC_DIR))
    import repro

    if Path(repro.__file__).resolve().parent != SRC_DIR / "repro":
        sys.exit(f"bench: 'repro' resolved outside the checkout: {repro.__file__}")


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quantile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sequence."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def steady(walls: Sequence[float], unit_times: Sequence[Sequence[float]]):
    """Fold passes that did the same units of work in the same order into
    one steady pass: each unit's time is its minimum over the passes, and
    the pass's wall time is the sum of those plus the least any pass
    spent outside its units.

    The host only ever adds time — a neighbour on the core, a stolen
    slice, a slow disk — and adds it to different units in different
    passes, so the least a unit took is the reading nearest to what the
    program costs.  A median of the passes keeps whatever share of the
    interference fell into the middle pass: over ten runs it spread
    1.5-2 times wider on every workload here (``README.md``, *Noise*).
    Returns ``(per-unit times, steady wall time)``.
    """
    per_unit = [min(column) for column in zip(*unit_times)]
    outside = min(wall - sum(times) for wall, times in zip(walls, unit_times))
    return per_unit, sum(per_unit) + outside


def timing_metrics(
    work: float, walls: Sequence[float],
    unit_times: Sequence[Sequence[float]],
    unit_scale: Optional[Sequence[float]] = None,
) -> Dict[str, float]:
    """The three timing metrics every workload reports, from passes that
    did the same units in the same order, folded by :func:`steady`; the
    timings are as the benchmark's own clock read them.  ``unit_scale``
    rescales each unit's time (units of unequal size)."""
    per_unit, wall = steady(walls, unit_times)
    if unit_scale is not None:
        per_unit = [t * k for t, k in zip(per_unit, unit_scale)]
    per_unit.sort()
    return {
        "work_per_s": work / wall,
        "unit_p50_ms": 1e3 * quantile(per_unit, 0.50),
        "unit_p95_ms": 1e3 * quantile(per_unit, 0.95),
    }


def pin_to_first_cpu():
    """Pin this process (and the children it starts) to the first CPU it
    may use; returns that CPU, or ``None`` where affinity cannot be set.

    The live workloads run load driver and server child on one CPU.  A
    threaded Python server whose threads wander over several CPUs hands
    its interpreter lock from core to core, and where the scheduler
    happened to put them made one run 1,000 and the next 1,900 requests a
    second here.  With one closed-loop client, driver and server take
    turns anyway, so sharing a CPU costs nothing.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def peak_rss_mb() -> float:
    """This process's ``ru_maxrss`` in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- spans --------------------------------------------------------------------


class _Timed:
    """What ``Tracer.span`` yields: ``seconds`` is valid after exit."""

    __slots__ = ("start", "seconds")

    def __init__(self, start: float) -> None:
        self.start = start
        self.seconds = 0.0


class Tracer:
    """Spans recorded by the benchmark's own code around calls into the
    program's public functions; held in memory, written once at exit.

    A disabled tracer still times (callers read ``.seconds`` for the
    end-to-end numbers) but records nothing, so the untraced run pays
    two clock reads per span and no allocation growth.
    """

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[_Timed]:
        span_id = None
        if self.enabled:
            span_id = len(self.spans)
            self.spans.append({
                "id": span_id, "name": name, "start": 0.0, "end": 0.0,
                "parent": self._stack[-1] if self._stack else None,
                "workload": self.workload, **attrs,
            })
            self._stack.append(span_id)
        timed = _Timed(time.perf_counter())
        try:
            yield timed
        finally:
            end = time.perf_counter()
            timed.seconds = end - timed.start
            if span_id is not None:
                self._stack.pop()
                self.spans[span_id]["start"] = timed.start
                self.spans[span_id]["end"] = end

    def aggregate(
        self, name: str, count: int, busy_s: float, **attrs: object,
    ) -> None:
        """Per-request work under the current span, folded to a count
        and a busy time (one record instead of ``count`` spans)."""
        if not self.enabled:
            return
        self.spans.append({
            "id": len(self.spans), "name": name, "aggregate": True,
            "count": count, "busy_s": busy_s,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload, **attrs,
        })

    def self_times(self) -> Dict[str, float]:
        """Self time per span name: duration minus what child spans (and
        aggregates) cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            parent = span["parent"]
            if parent is not None:
                covered[parent] += _duration(span)
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = max(0.0, _duration(span) - covered[span["id"]])
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def write(self, path: Path, provenance: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min(
            (s["start"] for s in self.spans if "start" in s), default=0.0,
        )
        spans = []
        for span in self.spans:
            span = dict(span)
            if "start" in span:  # relative to the first span, in seconds
                span["start"] -= origin
                span["end"] -= origin
            spans.append(span)
        path.write_text(json.dumps({
            "provenance": provenance,
            "self_time_s": self.self_times(),
            "spans": spans,
        }, indent=1) + "\n", encoding="utf-8")


def _duration(span: dict) -> float:
    if span.get("aggregate"):
        return span["busy_s"]
    return span["end"] - span["start"]


# -- the measuring loop -------------------------------------------------------


def run_passes(one_pass: Callable[[int], dict], seconds: float) -> List[dict]:
    """Repeat a fixed-size pass, at least twice, until the next one would
    overrun ``seconds`` (a pass is never cut short: its counts must be
    whole)."""
    results: List[dict] = []
    started = time.perf_counter()
    while True:
        results.append(one_pass(len(results)))
        elapsed = time.perf_counter() - started
        if len(results) >= 2 and elapsed + elapsed / len(results) > seconds:
            return results


# -- what a workload hands back ----------------------------------------------


@dataclass
class Outcome:
    """One run of one workload, before the output contract is applied."""

    #: Metric name -> value (end-to-end names untraced, per-layer traced).
    metrics: Dict[str, float]
    attempted: int
    failed: int
    #: Named boolean checks; every one must hold for ``correct``.
    checks: Dict[str, bool]
    #: Values that must repeat exactly on the same seed and sizes (the
    #: content of ``expected/<workload>.json``).
    exact: dict
    #: Sizes and settings that produced the numbers (for provenance).
    params: dict
    notes: List[str] = field(default_factory=list)


@dataclass
class Context:
    """What ``run.py`` hands a workload."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    scale_down: float
    tracer: Tracer
    workdir: Path
    #: Seconds spent importing the program (measured by ``run.py``).
    import_s: float
    #: Exact values recorded for this seed and these sizes, or ``None``.
    expected: Optional[dict] = None

    def scaled(self, value: float, floor: float) -> float:
        return max(floor, value * self.scale_down)


# -- expected values ----------------------------------------------------------


def expected_path(directory: Path, workload: str) -> Path:
    return directory / f"{workload}.json"


def load_expected(
    directory: Path, workload: str, seed: int, scale_down: float,
) -> Optional[dict]:
    """The recorded exact values, if they were recorded for this very
    seed and scale; any other run falls back to invariants."""
    try:
        payload = json.loads(
            expected_path(directory, workload).read_text(encoding="utf-8"),
        )
    except OSError:
        return None
    if payload.get("seed") != seed or payload.get("scale_down") != scale_down:
        return None
    return payload["exact"]


def write_expected(
    directory: Path, workload: str, seed: int, scale_down: float,
    outcome: Outcome,
) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = expected_path(directory, workload)
    path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "scale_down": scale_down,
        "params": outcome.params,
        "exact": outcome.exact,
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def mismatches(expected: object, observed: object, prefix: str = "") -> List[str]:
    """Paths at which two JSON-shaped values differ (exact comparison)."""
    if isinstance(expected, dict) and isinstance(observed, dict):
        found: List[str] = []
        for key in sorted(set(expected) | set(observed)):
            where = f"{prefix}.{key}" if prefix else str(key)
            if key not in expected or key not in observed:
                found.append(where)
            else:
                found.extend(mismatches(expected[key], observed[key], where))
        return found
    return [] if expected == observed else [prefix]


# -- provenance ---------------------------------------------------------------


def git_sha() -> str:
    """Short sha of the checkout, ``nogit`` where there is no repository
    (the driver's checkouts are plain directories)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "nogit"
    return done.stdout.strip() if done.returncode == 0 else "nogit"


def provenance(ctx: Context, params: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "scale_down": ctx.scale_down,
        "traced": ctx.traced,
        "params": params,
    }


@contextmanager
def workdir() -> Iterator[Path]:
    """A private scratch directory, removed on the way out."""
    path = WORK_ROOT / f"{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it
