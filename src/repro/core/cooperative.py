"""Cooperating sibling caches (the paper's reference [12] setting).

The paper's introduction notes that on a miss a proxy "either forwards the
GET message to another proxy server (as in [12]) or to S".  This module
models that sibling cooperation (ICP-style, as Harvest and later Squid
implemented it): a group of peer caches, each serving its own client
population; a local miss first queries the siblings, and a sibling hit
copies the document locally instead of fetching from the origin.

Compared with the strictly hierarchical two-level cache of Experiment 3,
sibling cooperation helps only to the extent the populations share
documents — the same commonality question the paper raises as open
problem 3, answered here for the peer topology.
"""

from __future__ import annotations

from itertools import compress, groupby, islice
from typing import Callable, Dict, Sequence

from repro.core.cache import HIT, SimCache
from repro.core.metrics import MetricsCollector
from repro.core.simulator import replay
from repro.trace.record import Request
from repro.trace.tools import merge_tagged

__all__ = ["CooperativeGroup", "simulate_cooperative"]


class CooperativeGroup:
    """A set of peer caches that resolve misses through each other.

    Args:
        caches: cache per member name.

    A request for member ``m``:

    1. hits ``m``'s cache -> local hit;
    2. else, if any sibling holds a consistent copy (URL + size), the
       document is copied into ``m``'s cache (evicting as needed) and the
       request counts as a sibling hit — the sibling's own recency state
       is *not* touched (queries are not client accesses);
    3. else the document is fetched from the origin into ``m`` only.
    """

    def __init__(self, caches: Dict[str, SimCache]) -> None:
        if len(caches) < 2:
            raise ValueError("a cooperative group needs at least two caches")
        self.caches = caches
        self.local_metrics = {name: MetricsCollector() for name in caches}
        self.sibling_hits = {name: 0 for name in caches}
        self.origin_fetches = {name: 0 for name in caches}
        self.total_requests = 0

    def access(self, member: str, request: Request) -> str:
        """Process one request, a one-row :meth:`access_run`; returns
        ``"local"``, ``"sibling"`` or ``"origin"``."""
        codes, found = bytearray(), self.sibling_hits.get(member)
        self.access_run(member, (request.url,), (request.size,),
                        (request.timestamp,), (request.doc_type,), codes)
        if codes[0] == HIT:
            return "local"
        return "sibling" if self.sibling_hits[member] > found else "origin"

    def access_run(self, member: str, urls, sizes, stamps, types,
                   codes: bytearray) -> None:
        """Process a stretch of ``member``'s requests on one day (as
        columns), appending each row's local outcome code to ``codes``.

        The siblings are only read, never touched, so the member's cache
        answers the whole stretch as one run; each local miss then looks
        for a sibling copy.  The local access already admitted the
        document: what remains is *where the bytes came from*.
        """
        try:
            cache = self.caches[member]
        except KeyError:
            raise KeyError(f"unknown group member {member!r}") from None
        mark = len(codes)
        cache.access_run(urls, sizes, stamps, types, codes)
        missed = codes[mark:]
        self.total_requests += len(missed)
        self.local_metrics[member].credit(int(stamps[0] // 86400), sizes,
                                          missed)
        siblings = [c for name, c in self.caches.items() if name != member]
        found = 0
        for url, size in compress(zip(urls, sizes), missed):
            for sibling in siblings:
                entry = sibling.get(url)
                if entry is not None and entry.size == size:
                    found += 1
                    break
        self.sibling_hits[member] += found
        self.origin_fetches[member] += len(missed) - missed.count(HIT) - found

    @property
    def group_hit_rate(self) -> float:
        """Percent of all requests served without touching an origin
        (local hits + sibling hits)."""
        if not self.total_requests:
            return 0.0
        origin = sum(self.origin_fetches.values())
        return 100.0 * (self.total_requests - origin) / self.total_requests

    @property
    def sibling_hit_rate(self) -> float:
        """Percent of all requests answered by a sibling."""
        if not self.total_requests:
            return 0.0
        return 100.0 * sum(self.sibling_hits.values()) / self.total_requests


def simulate_cooperative(
    traces: Dict[str, Sequence[Request]],
    cache_factory: Callable[[str], SimCache],
) -> CooperativeGroup:
    """Interleave per-member traces (by timestamp) through a group.

    Args:
        traces: valid trace per member name.
        cache_factory: builds each member's cache.
    """
    group = CooperativeGroup({
        name: cache_factory(name) for name in traces
    })
    merged = list(merge_tagged(traces))
    names = iter([name for name, _ in merged])

    def run(urls, sizes, stamps, types, codes) -> None:
        # A stretch of one member's rows is one run: the siblings it
        # reads do not change until another member's row.
        start = 0
        for name, stretch in groupby(islice(names, len(urls))):
            rows = slice(start, start + len(list(stretch)))
            group.access_run(name, urls[rows], sizes[rows], stamps[rows],
                             types[rows], codes)
            start = rows.stop

    replay([request for _, request in merged], run, MetricsCollector(), [])
    return group
