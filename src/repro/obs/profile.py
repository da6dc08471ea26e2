"""A dependency-free, deterministic profiler for the hot paths.

Code feeds measured phase durations to :meth:`Profiler.record`, directly
or per cache access through a :class:`CachePhaseTimer`.  The *set* of
stacks and their counts is fully deterministic — it depends only on the
replayed trace — and the measured seconds are the only wall-clock
quantity, so two runs of the same job produce the same profile shape
with different timings.  ``sys.setprofile``/``sys.settrace`` are never
touched: they would slow the simulator 10-30x and perturb the very
timings being measured.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Profiler",
    "CachePhaseTimer",
]

#: One aggregated stack: path -> [total_seconds, sample_count].
StackKey = Tuple[str, ...]


class Profiler:
    """Aggregates (stack path, seconds, count) samples.

    Thread-safe; cheap enough to leave attached (one dict update per
    recorded phase).  ``enabled=False`` turns every recording call into
    a no-op so call sites never need their own guard.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._stacks: Dict[StackKey, List[float]] = {}

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
