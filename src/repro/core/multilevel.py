"""Two-level cache hierarchies (Experiment 3, and open problem 3).

The paper's configuration: a finite first-level cache (10% or 50% of
MaxNeeded, best policy from Experiment 2) backed by an infinite second
level.  A request missing L1 is forwarded to L2; an L2 hit copies the
document back into L1; a full miss loads it into both.  Since every L1
admission is paired with an L2 admission, anything L1 evicts is still in
L2 — the "primary sends replaced documents to the second level"
implementation strategy the paper describes.

:class:`SharedSecondLevel` extends this (Section 5, open problem 3): several
first-level caches over distinct workloads share a single second-level
cache, measuring cross-workload commonality.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.cache import SimCache
from repro.core.metrics import MetricsCollector
from repro.core.simulator import DayTicks
from repro.trace.record import Request

__all__ = [
    "TwoLevelResult",
    "TwoLevelCache",
    "simulate_two_level",
    "SharedSecondLevel",
    "simulate_shared_second_level",
]


@dataclass
class TwoLevelResult:
    """Response variables of a two-level simulation.

    ``l2_metrics`` counts every client request, so the second level's
    HR/WHR are fractions of *total* client traffic (how the paper reports
    Figures 16-18: small HR, large WHR).  ``l2_local_metrics`` counts only
    the requests that actually reached L2 (the L1 misses).
    """

    name: str
    l1_metrics: MetricsCollector
    l2_metrics: MetricsCollector
    l2_local_metrics: MetricsCollector
    l1_cache: SimCache
    l2_cache: SimCache

    @property
    def timeseries(self):
        """Per-day sample stream with ``l1`` / ``l2`` streams (the
        ``l2`` stream counts every client request, matching
        ``l2_metrics``), built from the collectors on every read."""
        from repro.obs.timeseries import recorder_from_collectors

        return recorder_from_collectors(
            [("l1", self.l1_metrics), ("l2", self.l2_metrics)]
        )


class TwoLevelCache:
    """A first-level cache backed by a (typically infinite) second level."""

    def __init__(self, l1: SimCache, l2: SimCache, name: str = "") -> None:
        self.l1 = l1
        self.l2 = l2
        self.name = name
        self.l1_metrics = MetricsCollector()
        self.l2_metrics = MetricsCollector()
        self.l2_local_metrics = MetricsCollector()

    def access(self, request: Request) -> Tuple[bool, bool]:
        """Process one request; returns ``(l1_hit, l2_hit)``."""
        l1_result = self.l1.access(request)
        if l1_result.is_hit:
            self.l1_metrics.record(request, True)
            self.l2_metrics.record(request, False)
            return True, False
        self.l1_metrics.record(request, False)
        l2_result = self.l2.access(request)
        self.l2_metrics.record(request, l2_result.is_hit)
        self.l2_local_metrics.record(request, l2_result.is_hit)
        return False, l2_result.is_hit

    def result(self) -> TwoLevelResult:
        """Bundle the collected metrics."""
        return TwoLevelResult(
            name=self.name,
            l1_metrics=self.l1_metrics,
            l2_metrics=self.l2_metrics,
            l2_local_metrics=self.l2_local_metrics,
            l1_cache=self.l1,
            l2_cache=self.l2,
        )


def simulate_two_level(
    trace: Iterable[Request],
    l1: SimCache,
    l2: Optional[SimCache] = None,
    name: str = "",
) -> TwoLevelResult:
    """Drive a two-level hierarchy over a valid trace.

    ``l2`` defaults to an infinite cache, the Experiment 3 configuration.
    Each level's end-of-day occupancy is stamped into its collector
    (``l1_metrics``, ``l2_metrics``) at every simulated-day boundary.
    """
    if l2 is None:
        l2 = SimCache(capacity=None)
    hierarchy = TwoLevelCache(l1, l2, name=name)
    days = DayTicks([
        (hierarchy.l1_metrics, l1), (hierarchy.l2_metrics, l2),
    ])
    day_start = day_end = 0.0
    for request in trace:
        if not day_start <= request.timestamp < day_end:
            day_start, day_end = days.roll(request.timestamp)
        hierarchy.access(request)
    days.close()
    return hierarchy.result()


@dataclass
class SharedSecondLevel:
    """Several per-workload L1 caches sharing one L2 (open problem 3)."""

    l1_caches: Dict[str, SimCache]
    l2_cache: SimCache
    l1_metrics: Dict[str, MetricsCollector] = field(default_factory=dict)
    l2_metrics: MetricsCollector = field(default_factory=MetricsCollector)
    l2_hits_by_origin: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key in self.l1_caches:
            self.l1_metrics.setdefault(key, MetricsCollector())
            self.l2_hits_by_origin.setdefault(key, 0)

    def access(self, origin: str, request: Request) -> Tuple[bool, bool]:
        """Process one request arriving from the named workload's clients."""
        l1 = self.l1_caches[origin]
        l1_result = l1.access(request)
        metrics = self.l1_metrics[origin]
        if l1_result.is_hit:
            metrics.record(request, True)
            self.l2_metrics.record(request, False)
            return True, False
        metrics.record(request, False)
        l2_result = self.l2_cache.access(request)
        self.l2_metrics.record(request, l2_result.is_hit)
        if l2_result.is_hit:
            self.l2_hits_by_origin[origin] += 1
        return False, l2_result.is_hit


def simulate_shared_second_level(
    traces: Dict[str, Sequence[Request]],
    l1_factory,
    l2: Optional[SimCache] = None,
) -> SharedSecondLevel:
    """Interleave several workloads (by timestamp) through per-workload L1s
    and one shared L2.

    Args:
        traces: valid trace per workload key.
        l1_factory: ``f(workload_key) -> SimCache`` building each L1.
        l2: the shared second level; infinite when omitted.
    """
    if l2 is None:
        l2 = SimCache(capacity=None)
    shared = SharedSecondLevel(
        l1_caches={key: l1_factory(key) for key in traces},
        l2_cache=l2,
    )
    def tag(key: str, trace: Sequence[Request]):
        # A real function (not a nested genexp) so each stream binds its
        # own key — nested generator expressions would close over the loop
        # variable and tag every stream with the last key.
        return ((request.timestamp, key, request) for request in trace)

    tagged = heapq.merge(*(tag(key, trace) for key, trace in traces.items()))
    for _, key, request in tagged:
        shared.access(key, request)
    return shared
