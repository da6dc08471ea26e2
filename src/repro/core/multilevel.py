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

from itertools import compress, groupby, islice
from typing import Dict, Iterable, Optional, Sequence

from repro.core.cache import HIT, SimCache
from repro.core.metrics import MetricsCollector
from repro.core.simulator import replay
from repro.trace.record import Request
from repro.trace.tools import merge_tagged

__all__ = [
    "TwoLevelCache",
    "simulate_two_level",
    "SharedSecondLevel",
    "simulate_shared_second_level",
]


class TwoLevelCache:
    """A first-level cache backed by a (typically infinite) second level.

    The replay loop drives the hierarchy through :meth:`access_run` and
    counts ``l1_metrics``; the hierarchy records the second level.
    ``l2_metrics`` counts every client request, so the second level's
    HR/WHR are fractions of *total* client traffic (how the paper reports
    Figures 16-18: small HR, large WHR).  ``l2_local_metrics`` counts only
    the requests that actually reached L2 (the L1 misses).
    """

    def __init__(self, l1: SimCache, l2: SimCache, name: str = "") -> None:
        self.l1_cache = l1
        self.l2_cache = l2
        self.name = name
        self.l1_metrics = MetricsCollector()
        self.l2_metrics = MetricsCollector()
        self.l2_local_metrics = MetricsCollector()

    def access_run(self, urls, sizes, stamps, types, codes) -> None:
        """Answer one day's run of rows (as :func:`replay` passes them),
        appending L1's outcome codes; L2 then answers the run of L1's
        misses, in order."""
        mark = len(codes)
        self.l1_cache.access_run(urls, sizes, stamps, types, codes)
        missed = codes[mark:]  # nonzero where L1 missed the row
        rows = [list(compress(column, missed))
                for column in (urls, sizes, stamps, types)]
        miss_sizes, l2_codes = rows[1], bytearray()
        self.l2_cache.access_run(*rows, l2_codes)
        day = int(stamps[0] // 86400)
        if miss_sizes:
            self.l2_local_metrics.credit(day, miss_sizes, l2_codes)
        # L2's rates are over every client request; L1's hits are L2 misses.
        hit_bytes = sum(miss_sizes) - sum(compress(miss_sizes, l2_codes))
        self.l2_metrics.add(day, len(sizes), l2_codes.count(HIT), sum(sizes),
                            hit_bytes)

    @property
    def timeseries(self):
        """Per-day sample stream with ``l1`` / ``l2`` streams (the
        ``l2`` stream counts every client request, matching
        ``l2_metrics``), built from the collectors on every read."""
        from repro.obs.timeseries import recorder_from_collectors

        return recorder_from_collectors(
            [("l1", self.l1_metrics), ("l2", self.l2_metrics)]
        )


def simulate_two_level(
    trace: Iterable[Request],
    l1: SimCache,
    l2: Optional[SimCache] = None,
    name: str = "",
) -> TwoLevelCache:
    """Drive a two-level hierarchy over a valid trace.

    ``l2`` defaults to an infinite cache, the Experiment 3 configuration.
    Each level's end-of-day occupancy is stamped into its collector
    (``l1_metrics``, ``l2_metrics``) at every simulated-day boundary.
    """
    if l2 is None:
        l2 = SimCache(capacity=None)
    hierarchy = TwoLevelCache(l1, l2, name=name)
    replay(trace, hierarchy.access_run, hierarchy.l1_metrics, [
        (hierarchy.l1_metrics, l1), (hierarchy.l2_metrics, l2),
    ])
    return hierarchy


class SharedSecondLevel:
    """Several per-workload L1 caches sharing one L2 (open problem 3).

    Each workload runs through its own :class:`TwoLevelCache` over the
    one shared ``l2_cache``, and all of them count into the one
    ``l2_metrics``.
    """

    def __init__(self, l1_caches: Dict[str, SimCache], l2_cache: SimCache) -> None:
        self.l2_cache = l2_cache
        self.l2_metrics = MetricsCollector()
        self.hierarchies = {
            key: TwoLevelCache(l1, l2_cache, name=key)
            for key, l1 in l1_caches.items()
        }
        for hierarchy in self.hierarchies.values():
            hierarchy.l2_metrics = self.l2_metrics

    @property
    def l1_metrics(self) -> Dict[str, MetricsCollector]:
        return {key: h.l1_metrics for key, h in self.hierarchies.items()}

    @property
    def l2_hits_by_origin(self) -> Dict[str, int]:
        """Shared-L2 hits per workload whose L1 missed."""
        return {
            key: h.l2_local_metrics.total_hits
            for key, h in self.hierarchies.items()
        }


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
    shared = SharedSecondLevel({key: l1_factory(key) for key in traces}, l2)
    merged = list(merge_tagged(traces))
    keys = iter([key for key, _ in merged])

    def run(urls, sizes, stamps, types, codes) -> None:
        # Each stretch of one workload's rows goes through its hierarchy,
        # so the shared L2 sees every L1's misses in merged order.
        day, start = int(stamps[0] // 86400), 0
        for key, stretch in groupby(islice(keys, len(urls))):
            rows = slice(start, start + len(list(stretch)))
            hierarchy, mark = shared.hierarchies[key], len(codes)
            hierarchy.access_run(
                urls[rows], sizes[rows], stamps[rows], types[rows], codes,
            )
            hierarchy.l1_metrics.credit(day, sizes[rows], codes[mark:])
            start = rows.stop

    replay([request for _, request in merged], run, MetricsCollector(), [])
    return shared
