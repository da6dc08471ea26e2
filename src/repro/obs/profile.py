"""A dependency-free, deterministic profiler for the hot paths.

Two collection modes, both exporting collapsed stacks (the
``flamegraph.pl`` input format) and Chrome ``trace_event`` JSON:

* **Instrumented phase timers** (the default, and the only mode used in
  tests and benches): code brackets its phases with
  :meth:`Profiler.phase` or feeds per-access phase durations through a
  :class:`CachePhaseTimer`.  The *set* of stacks and their counts is
  fully deterministic — it depends only on the replayed trace — and the
  measured seconds are the only wall-clock quantity, so two runs of the
  same job produce the same profile shape with different timings.
  ``sys.setprofile``/``sys.settrace`` are never touched: they would slow
  the simulator 10-30x and perturb the very timings being measured.
* An **optional signal-based sampler** (:class:`SignalSampler`):
  wall-clock ``setitimer`` samples of the interrupted Python stack.
  Cheap and honest but nondeterministic, so it is opt-in, refuses to
  arm anywhere but the main thread of the main process, and is never
  started in sweep workers (signals + ``ProcessPoolExecutor`` do not
  mix).

Profiles merge across processes like metrics do: workers ship
:meth:`Profiler.export` payloads through the result pipeline and the
parent :meth:`Profiler.absorb`-s them in job order.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Profiler",
    "CachePhaseTimer",
    "SignalSampler",
]

#: One aggregated stack: path -> [total_seconds, sample_count].
StackKey = Tuple[str, ...]


class Profiler:
    """Aggregates (stack path, seconds, count) samples.

    Thread-safe; cheap enough to leave attached (one dict update per
    recorded phase).  ``enabled=False`` turns every recording call into
    a no-op so call sites never need their own guard.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        enabled: bool = True,
    ) -> None:
        self.clock = clock
        self.enabled = enabled
        self._lock = threading.Lock()
        self._stacks: Dict[StackKey, List[float]] = {}
        self._frames = threading.local()

    # -- collection ----------------------------------------------------------

    def record(
        self, stack: Sequence[str], seconds: float, count: int = 1,
    ) -> None:
        """Fold one measured sample into the aggregate."""
        if not self.enabled:
            return
        key = tuple(stack)
        with self._lock:
            slot = self._stacks.get(key)
            if slot is None:
                self._stacks[key] = [seconds, count]
            else:
                slot[0] += seconds
                slot[1] += count

    def phase(self, name: str) -> "_PhaseHandle":
        """Context manager timing one named phase; nests per-thread, so
        the recorded stack is the full path of open phases."""
        return _PhaseHandle(self, name)

    def _stack(self) -> List[str]:
        frames = getattr(self._frames, "stack", None)
        if frames is None:
            frames = self._frames.stack = []
        return frames

    # -- reading -------------------------------------------------------------

    def collapsed(self) -> Dict[StackKey, Tuple[float, int]]:
        """Aggregated ``stack path -> (seconds, count)``."""
        with self._lock:
            return {
                key: (slot[0], slot[1])
                for key, slot in self._stacks.items()
            }

    def total_seconds(self, *prefix: str) -> float:
        """Total recorded seconds under a stack prefix (all when empty)."""
        with self._lock:
            return sum(
                slot[0] for key, slot in self._stacks.items()
                if key[:len(prefix)] == prefix
            )

    def collapsed_stacks(self) -> List[str]:
        """The profile in collapsed-stack format, one line per path:
        ``frame;frame;frame <microseconds>`` — feed to ``flamegraph.pl``
        or any FlameGraph viewer.  Sorted by path for determinism."""
        lines = []
        for key, (seconds, _) in sorted(self.collapsed().items()):
            lines.append(";".join(key) + f" {max(0, round(seconds * 1e6))}")
        return lines

    def write_collapsed(self, path: Union[str, Path]) -> int:
        """Write collapsed stacks to a file; returns the line count."""
        lines = self.collapsed_stacks()
        Path(path).write_text(
            "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8",
        )
        return len(lines)

    def to_chrome_trace(self) -> dict:
        """The aggregate as a static flame chart in Chrome
        ``trace_event`` JSON (viewable in Perfetto / ``about:tracing``).

        Aggregated profiles have no timeline, so sibling stacks are laid
        out sequentially: each node's span covers its children, and
        offsets are deterministic (sorted stack order).
        """
        collapsed = self.collapsed()
        events: List[dict] = []
        # Children extend their parents, so a parent's rendered span
        # must cover max(own total, sum of children); lay out depth-first.
        offsets: Dict[StackKey, float] = {}
        cursor: Dict[StackKey, float] = {}

        def subtree_micros(key: StackKey) -> float:
            own = collapsed.get(key, (0.0, 0))[0] * 1e6
            children = sum(
                subtree_micros(other[:len(key) + 1])
                for other in {
                    k[:len(key) + 1] for k in collapsed
                    if len(k) > len(key) and k[:len(key)] == key
                }
            )
            return max(own, children)

        for key in sorted(collapsed):
            parent = key[:-1]
            start = cursor.get(parent, offsets.get(parent, 0.0))
            duration = subtree_micros(key)
            offsets[key] = start
            cursor[key] = start
            cursor[parent] = start + duration
            seconds, count = collapsed[key]
            events.append({
                "name": key[-1],
                "ph": "X",
                "ts": start,
                "dur": duration,
                "pid": 0,
                "tid": 0,
                "cat": "profile",
                "args": {"seconds": seconds, "count": count,
                         "stack": ";".join(key)},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Union[str, Path]) -> int:
        payload = self.to_chrome_trace()
        Path(path).write_text(json.dumps(payload), encoding="utf-8")
        return len(payload["traceEvents"])

    # -- cross-process transport ---------------------------------------------

    def export(self) -> List[dict]:
        """The aggregate as a picklable payload (worker side)."""
        return [
            {"stack": list(key), "seconds": slot[0], "count": slot[1]}
            for key, slot in sorted(self.collapsed().items())
        ]

    def absorb(self, payload: Sequence[dict]) -> None:
        """Fold another process's :meth:`export` in (parent side)."""
        for entry in payload:
            self.record(
                tuple(entry["stack"]), entry["seconds"], entry["count"],
            )


class _PhaseHandle:
    """One open phase; records its wall time against the full path."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: Profiler, name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_PhaseHandle":
        self._profiler._stack().append(self._name)
        self._start = self._profiler.clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = self._profiler.clock() - self._start
        stack = self._profiler._stack()
        key = tuple(stack)
        stack.pop()
        self._profiler.record(key, elapsed)


class CachePhaseTimer:
    """Per-access phase sink a :class:`~repro.core.cache.SimCache`
    reports into once attached (``cache.set_phase_timer``).

    Feeds two destinations per observed phase — the per-policy
    ``repro_sim_phase_seconds`` histogram (when a registry was given)
    and a :class:`Profiler` under a fixed stack prefix — and keeps raw
    per-phase totals for cheap summaries.  Histogram children are
    resolved once here, so the per-access cost is two clock reads and a
    couple of dict-free updates.
    """

    PHASES = ("lookup", "evict", "admit")

    def __init__(
        self,
        policy: str,
        registry=None,
        profiler: Optional[Profiler] = None,
        prefix: Sequence[str] = ("sim.replay", "cache.access"),
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.policy = policy
        self.clock = clock
        self._profiler = profiler
        self._prefix = tuple(prefix)
        self.totals: Dict[str, float] = {phase: 0.0 for phase in self.PHASES}
        self.counts: Dict[str, int] = {phase: 0 for phase in self.PHASES}
        self._children: Dict[str, object] = {}
        if registry is not None:
            from repro.obs.catalog import phase_metrics

            histogram = phase_metrics(registry).sim_phase_seconds
            self._children = {
                phase: histogram.labels(policy=policy, phase=phase)
                for phase in self.PHASES
            }

    def observe(self, phase: str, seconds: float) -> None:
        self.totals[phase] += seconds
        self.counts[phase] += 1
        child = self._children.get(phase)
        if child is not None:
            child.observe(seconds)
        if self._profiler is not None:
            self._profiler.record(self._prefix + (phase,), seconds)

    def summary(self) -> Dict[str, dict]:
        """Per-phase totals as a plain dict."""
        return {
            phase: {
                "seconds": self.totals[phase],
                "count": self.counts[phase],
            }
            for phase in self.PHASES
        }


class SignalSampler:
    """Optional wall-clock sampling profiler over ``signal.setitimer``.

    Every ``interval`` seconds the interrupted Python stack is recorded
    into the profiler (one sample = ``interval`` seconds).  Honest about
    where time goes with zero instrumentation, but nondeterministic —
    so it never runs by default, and :meth:`available` gates it to the
    main thread of a process that is not a sweep worker (workers are
    detected by the pool initializer's module-global trace).
    """

    def __init__(self, profiler: Profiler, interval: float = 0.005) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.profiler = profiler
        self.interval = interval
        self.samples = 0
        self._previous_handler = None
        self._armed = False
        self._sampling = False

    @staticmethod
    def available() -> bool:
        """Whether a sampler may arm here: main thread only (signal
        handlers cannot be installed elsewhere), never in a pool worker."""
        if not hasattr(signal, "setitimer"):
            return False  # pragma: no cover - POSIX always has it
        if threading.current_thread() is not threading.main_thread():
            return False
        try:
            from repro.core import sweep as _sweep

            if _sweep._WORKER_TRACE is not None:
                return False  # a sweep worker process
        except ImportError:  # pragma: no cover - circular-import guard
            pass
        return True

    def _handle(self, signum: int, frame) -> None:
        if self._sampling:
            # A tick that lands inside the handler (a stalled process
            # gets them back to back) would re-enter it, and the
            # profiler's non-reentrant lock; that sample is dropped.
            return
        self._sampling = True
        try:
            stack: List[str] = []
            while frame is not None:
                code = frame.f_code
                module = frame.f_globals.get("__name__", "?")
                stack.append(f"{module}.{code.co_name}")
                frame = frame.f_back
            stack.reverse()
            self.samples += 1
            self.profiler.record(tuple(stack), self.interval)
        finally:
            self._sampling = False

    def start(self) -> None:
        if not self.available():
            raise RuntimeError(
                "SignalSampler may only run on the main thread of a "
                "non-worker process"
            )
        if self._armed:
            return
        self._previous_handler = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._armed = True

    def stop(self) -> None:
        if not self._armed:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
        self._previous_handler = None
        self._armed = False

    def __enter__(self) -> "SignalSampler":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

