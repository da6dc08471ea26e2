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

from typing import Callable, Dict, Sequence

from repro.core.cache import HIT, SimCache
from repro.core.metrics import MetricsCollector
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
        """Process one request; returns ``"local"``, ``"sibling"`` or
        ``"origin"``."""
        try:
            cache = self.caches[member]
        except KeyError:
            raise KeyError(f"unknown group member {member!r}") from None
        self.total_requests += 1
        hit = cache.access_code(request) == HIT
        self.local_metrics[member].record(request, hit)
        if hit:
            return "local"
        # The local access above already admitted the document; what
        # remains is deciding *where the bytes came from*: a sibling copy
        # or the origin.
        for name, sibling in self.caches.items():
            if name == member:
                continue
            entry = sibling.get(request.url)
            if entry is not None and entry.size == request.size:
                self.sibling_hits[member] += 1
                return "sibling"
        self.origin_fetches[member] += 1
        return "origin"

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
    for name, request in merge_tagged(traces):
        group.access(name, request)
    return group
