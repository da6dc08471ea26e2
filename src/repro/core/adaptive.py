"""GreedyDual-Size and GDSF: the successors this paper inspired.

The paper's finding — SIZE maximises hit rate but is the *worst* key for
weighted hit rate (Section 4.4) — set up the next generation of removal
policies, which blend size with cost and frequency instead of sorting on
a single key:

* **GreedyDual-Size** (Cao & Irani, USENIX 1997): each cached document
  carries a value ``H = L + cost / size``; the document with minimum
  ``H`` is evicted and the global *inflation* ``L`` rises to that
  minimum, so long-idle documents decay relative to fresh ones.
* **GDSF** (GreedyDual-Size with Frequency; Cherkasova 1998):
  ``H = L + frequency * cost / size``, folding in the paper's
  second-best key (NREF).

With ``cost = 1`` GDS optimises hit rate (and behaves like a
recency-decayed SIZE); with ``cost = size`` (byte cost) it optimises byte
hit rate.  Both are implemented as dynamic policies with per-entry
``H`` values and O(log n) eviction via a lazy heap.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.entry import CacheEntry
from repro.core.policy import DynamicPolicy

__all__ = ["GreedyDualSize", "gds_hit_cost", "gds_byte_cost"]


def gds_hit_cost(entry: CacheEntry) -> float:
    """Unit cost per miss: GDS then maximises *hit rate*."""
    return 1.0


def gds_byte_cost(entry: CacheEntry) -> float:
    """Size cost per miss: GDS then maximises *byte* (weighted) hit rate."""
    return float(entry.size)


class GreedyDualSize(DynamicPolicy):
    """GreedyDual-Size, optionally with frequency (GDSF).

    Args:
        cost: miss cost function of an entry; defaults to unit cost
            (:func:`gds_hit_cost`).  Use :func:`gds_byte_cost` for byte
            hit rate.
        with_frequency: multiply the cost term by the entry's reference
            count (GDSF).
        name: display name; derived from the configuration when omitted.

    The cache drives the policy through :meth:`on_admit` / :meth:`on_hit`
    (both part of the removal-policy protocol; key policies ignore them).
    """

    def __init__(
        self,
        cost: Callable[[CacheEntry], float] = gds_hit_cost,
        with_frequency: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self._cost = cost
        self._with_frequency = with_frequency
        if name is None:
            base = "GDSF" if with_frequency else "GDS"
            suffix = "(bytes)" if cost is gds_byte_cost else ""
            name = base + suffix
        self.name = name
        self.inflation = 0.0
        self._h: Dict[str, float] = {}
        self._newest: Dict[str, int] = {}  # url -> seq of its one live record
        self._heap: List[Tuple[float, int, str]] = []
        self._seq = 0

    # -- protocol hooks ---------------------------------------------------------

    def _value(self, entry: CacheEntry) -> float:
        weight = float(entry.nref) if self._with_frequency else 1.0
        return self.inflation + weight * self._cost(entry) / entry.size

    def _push(self, url: str, value: float) -> None:
        self._h[url] = value
        self._seq = self._newest[url] = seq = self._seq + 1
        heap = self._heap
        heapq.heappush(heap, (value, seq, url))
        if len(heap) > 2 * len(self._h) + 64:  # HeapIndex's compaction bound
            newest = self._newest
            heap[:] = [record for record in heap if newest.get(record[2]) == record[1]]
            heapq.heapify(heap)

    def on_admit(self, entry: CacheEntry) -> None:
        """A document entered the cache: assign its initial H value."""
        self._push(entry.url, self._value(entry))

    def on_hit(self, entry: CacheEntry) -> None:
        """A hit restores (and under GDSF raises) the document's H; an
        unmoved H already has its record, which would surface first."""
        value = self._value(entry)
        if value != self._h.get(entry.url):
            self._push(entry.url, value)

    def on_remove(self, entry: CacheEntry) -> None:
        """The entry left the cache (eviction, modification or explicit
        removal): its heap record is stale from here on."""
        self._h.pop(entry.url, None)
        self._newest.pop(entry.url, None)

    def choose_victim(
        self,
        entries: Sequence[CacheEntry],
        incoming_size: int,
        now: float,
    ) -> CacheEntry:
        live = {entry.url: entry for entry in entries}
        while self._heap:
            value, seq, url = heapq.heappop(self._heap)
            if self._newest.get(url) != seq or url not in live:
                continue  # stale record
            self.on_remove(live[url])
            # GreedyDual's ageing step: future insertions start at the
            # evicted document's value.
            self.inflation = value
            return live[url]
        # Heap lost sync (e.g. policy object reused across caches):
        # fall back to a direct scan.
        victim = min(entries, key=self._value)
        self.on_remove(victim)
        self.inflation = self._value(victim)
        return victim

    def describe(self) -> str:
        formula = "L + nref*cost/size" if self._with_frequency else "L + cost/size"
        return (
            f"GreedyDual{'-Size with frequency' if self._with_frequency else '-Size'}: "
            f"evict min H = {formula}, inflating L to the evicted H"
        )
