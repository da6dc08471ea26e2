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

from repro.core.cache import SimCache
from repro.core.entry import CacheEntry
from repro.core.policy import RemovalPolicy

__all__ = ["PeriodicRemovalCache"]


class PeriodicRemovalCache(SimCache):
    """A finite cache that also runs a periodic eviction sweep.

    ``simulate`` drives it like any cache.  The first sweep falls at the
    end of the period holding the first request, then one every
    ``period`` seconds.

    Args:
        capacity: cache size in bytes (must be finite).
        policy: removal policy (sweep order too); SIZE by default.
        seed: seed for the per-entry random tie-break stamps.
        period: sweep interval in seconds (86400 = the Pitkow/Recker
            end-of-day run).
        comfort_level: sweep target occupancy as a fraction of capacity;
            each sweep evicts (in policy order) until
            ``used <= comfort_level * capacity``.
        on_demand: when ``True`` (hybrid mode) the cache also evicts on
            demand; when ``False`` (pure periodic) an incoming document
            that does not fit is simply not cached — the paper's
            "strictly speaking, the policy is just removing cached
            documents" reading.
    """

    def __init__(
        self,
        capacity: int,
        policy: Optional[RemovalPolicy] = None,
        seed: int = 0,
        period: float = 86400.0,
        comfort_level: float = 0.8,
        on_demand: bool = True,
    ) -> None:
        if capacity is None:
            raise ValueError("periodic removal requires a finite cache")
        if period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 <= comfort_level < 1.0:
            raise ValueError("comfort_level must be in [0, 1)")
        super().__init__(capacity, policy, seed)
        self.period = period
        self.comfort_level = comfort_level
        self.on_demand = on_demand
        self.sweep_count = 0
        self.swept_entries = 0
        self._next_sweep: Optional[float] = None

    def access_run(self, urls, sizes, stamps, types, codes, evicted=None):
        """Process a run of rows, split where sweeps fall due: each due
        sweep runs before the first row stamped at or after its time."""
        start = 0
        for index, now in enumerate(stamps):
            if self._next_sweep is None:
                self._next_sweep = (now // self.period + 1) * self.period
            if now >= self._next_sweep:
                super().access_run(urls[start:index], sizes[start:index],
                                   stamps[start:index], types[start:index],
                                   codes, evicted)
                start = index
                while now >= self._next_sweep:
                    self.sweep(self._next_sweep)
                    self._next_sweep += self.period
        super().access_run(urls[start:], sizes[start:], stamps[start:],
                           types[start:], codes, evicted)

    def sweep(self, now: float) -> List[CacheEntry]:
        """Evict in policy order until occupancy reaches the comfort level."""
        target = int(self.capacity * self.comfort_level)
        removed: List[CacheEntry] = []
        self._make_room(self.capacity - target, now, removed)
        self.sweep_count += 1
        self.swept_entries += len(removed)
        return removed
