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

from itertools import compress, islice
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
        mark, day = len(codes), int(stamps[0] // 86400)
        self.l1_cache.access_run(urls, sizes, stamps, types, codes)
        miss_sizes, l2_codes = _second_level(
            self.l2_cache, self.l2_metrics, day,
            (urls, sizes, stamps, types), codes[mark:],
        )
        if miss_sizes:
            self.l2_local_metrics.credit(day, miss_sizes, l2_codes)

    @property
    def timeseries(self):
        """Per-day sample stream with ``l1`` / ``l2`` streams (the
        ``l2`` stream counts every client request, matching
        ``l2_metrics``), built from the collectors on every read."""
        from repro.obs.timeseries import recorder_from_collectors

        return recorder_from_collectors(
            [("l1", self.l1_metrics), ("l2", self.l2_metrics)]
        )


def _second_level(l2: SimCache, l2_metrics: MetricsCollector, day: int,
                  columns, missed: bytes):
    """L2 answers the run of ``columns`` rows that L1 missed (``missed``
    nonzero), in order, and ``l2_metrics`` is credited over every row:
    L2's rates are over every client request, and L1's hits are L2
    misses.  Returns the missed rows' sizes and L2's codes for them."""
    rows = [list(compress(column, missed)) for column in columns]
    miss_sizes, l2_codes, sizes = rows[1], bytearray(), columns[1]
    l2.access_run(*rows, l2_codes)
    hit_bytes = sum(miss_sizes) - sum(compress(miss_sizes, l2_codes))
    l2_metrics.add(day, len(sizes), l2_codes.count(HIT), sum(sizes),
                   hit_bytes)
    return miss_sizes, l2_codes


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

    Each workload has its own :class:`TwoLevelCache` (its L1 and its
    collectors) over the one shared ``l2_cache``, and all of them count
    into the one ``l2_metrics``.
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
        # An L1 never consults L2, so each L1 answers its workload's rows
        # of the day as one run; the shared L2 then answers every L1 miss
        # in merged order.
        day, tags = int(stamps[0] // 86400), list(islice(keys, len(urls)))
        answers = {}
        for key in dict.fromkeys(tags):
            mine = [tag == key for tag in tags]
            rows = [list(compress(column, mine))
                    for column in (urls, sizes, stamps, types)]
            hierarchy, own = shared.hierarchies[key], bytearray()
            hierarchy.l1_cache.access_run(*rows, own)
            hierarchy.l1_metrics.credit(day, rows[1], own)
            answers[key] = iter(own)
        mark = len(codes)
        codes.extend(next(answers[tag]) for tag in tags)
        missed = codes[mark:]
        miss_sizes, l2_codes = _second_level(
            l2, shared.l2_metrics, day, (urls, sizes, stamps, types), missed,
        )
        miss_tags = list(compress(tags, missed))
        for key in dict.fromkeys(miss_tags):
            mine = [tag == key for tag in miss_tags]
            shared.hierarchies[key].l2_local_metrics.credit(
                day, list(compress(miss_sizes, mine)),
                bytes(compress(l2_codes, mine)),
            )

    replay([request for _, request in merged], run, MetricsCollector(), [])
    return shared
