"""Periodic and hybrid removal (Section 1.3, explored as an extension).

The paper's core experiments run removal on demand only, but Section 1.3
catalogues the alternatives from the literature:

* **on-demand** — evict when the incoming document does not fit;
* **periodic** — every T time units, evict until free space reaches a
  threshold (Pitkow and Recker's "comfort level");
* **hybrid** — both (Pitkow/Recker run a sweep at the end of each day
  *and* evict on demand).

The paper argues periodic removal trades hit rate for removal overhead
("documents are removed earlier than required and more are removed than is
required").  :class:`PeriodicRemovalCache` implements periodic and hybrid
modes so that the ablation benchmark can quantify that hit-rate cost.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.cache import AccessOutcome, AccessResult, SimCache
from repro.core.entry import CacheEntry
from repro.trace.record import Request

__all__ = ["PeriodicRemovalCache"]


class PeriodicRemovalCache:
    """A cache running a periodic eviction sweep on top of a ``SimCache``.

    Args:
        cache: the underlying finite cache (supplies policy and capacity).
        period: sweep interval in seconds (86400 = the Pitkow/Recker
            end-of-day run).
        comfort_level: sweep target occupancy as a fraction of capacity;
            each sweep evicts (in policy order) until
            ``used <= comfort_level * capacity``.
        on_demand: when ``True`` (hybrid mode) the underlying cache also
            evicts on demand; when ``False`` (pure periodic) an incoming
            document that does not fit is simply not cached — the paper's
            "strictly speaking, the policy is just removing cached
            documents" reading.
    """

    def __init__(
        self,
        cache: SimCache,
        period: float = 86400.0,
        comfort_level: float = 0.8,
        on_demand: bool = True,
    ) -> None:
        if cache.capacity is None:
            raise ValueError("periodic removal requires a finite cache")
        if period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 <= comfort_level < 1.0:
            raise ValueError("comfort_level must be in [0, 1)")
        self.cache = cache
        self.period = period
        self.comfort_level = comfort_level
        self.on_demand = on_demand
        self.sweep_count = 0
        self.swept_entries = 0
        self._next_sweep = period

    @property
    def policy(self):
        return self.cache.policy

    @property
    def capacity(self) -> Optional[int]:
        return self.cache.capacity

    @property
    def max_used_bytes(self) -> int:
        return self.cache.max_used_bytes

    @property
    def eviction_count(self) -> int:
        return self.cache.eviction_count

    def access(self, request: Request, now: Optional[float] = None) -> AccessResult:
        """Process one request, running any due sweeps first."""
        if now is None:
            now = request.timestamp
        while now >= self._next_sweep:
            self.sweep(self._next_sweep)
            self._next_sweep += self.period
        if self.on_demand:
            return self.cache.access(request, now=now)
        return self._access_without_demand_eviction(request, now)

    def sweep(self, now: float) -> List[CacheEntry]:
        """Evict in policy order until occupancy reaches the comfort level."""
        target = int(self.cache.capacity * self.comfort_level)
        removed: List[CacheEntry] = []
        while self.cache.used_bytes > target and len(self.cache):
            removed.append(self.cache.evict_next(0, now))
        self.sweep_count += 1
        self.swept_entries += len(removed)
        return removed

    def _access_without_demand_eviction(
        self, request: Request, now: float
    ) -> AccessResult:
        """Pure-periodic mode: misses that do not fit are not cached."""
        entry = self.cache.get(request.url)
        if entry is not None and entry.size == request.size:
            return self.cache.access(request, now=now)  # plain hit path
        free = self.cache.capacity - self.cache.used_bytes
        if entry is not None:
            free += entry.size  # replacing the stale copy frees its room
        if request.size > free:
            if entry is not None:
                self.cache.remove(request.url)
                return AccessResult(AccessOutcome.MISS_MODIFIED, request)
            return AccessResult(AccessOutcome.MISS_TOO_LARGE, request)
        return self.cache.access(request, now=now)
