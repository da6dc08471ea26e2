"""The simulated proxy cache: storage, hit semantics, and eviction.

Hit semantics follow Section 1.1 of the paper exactly:

* A **hit** is a match on both URL and size.  (Traces carry no reliable
  modification times, so a size change is the signal that the document was
  modified; the cached copy is then inconsistent and the access is a miss
  that replaces the copy.)
* Removal is **on demand**: when an incoming document does not fit, cached
  documents are removed in the policy's sort order until free space equals
  or exceeds the incoming size.
* Documents larger than the whole cache are served but not stored (the
  paper is silent on this case; the decision is recorded in DESIGN.md).

Eviction order is maintained by one of two interchangeable indexes:
:class:`HeapIndex` (a lazy heap, O(log n) per admission and eviction and
nothing per hit — the production choice, embodying the paper's Section 1.3
argument that keeping the list sorted makes on-demand removal cheap) and
:class:`NaiveIndex` (re-sorts on demand, O(n log n) — the obviously-correct
reference that property tests compare against).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush, heapreplace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.entry import CacheEntry
from repro.core.keys import SIZE
from repro.core.policy import DynamicPolicy, KeyPolicy, RemovalPolicy
from repro.trace.record import DocumentType, Request, classify_url

__all__ = [
    "AccessOutcome",
    "AccessResult",
    "EvictionIndex",
    "HeapIndex",
    "NaiveIndex",
    "SimCache",
]


class AccessOutcome(enum.Enum):
    """Classification of one cache access (Section 1.1 semantics)."""

    HIT = "hit"
    MISS = "miss"
    #: URL was cached but with a different size: the document was modified,
    #: so the copy is inconsistent.  Counts as a miss; the copy is replaced.
    MISS_MODIFIED = "miss_modified"
    #: Document exceeds the whole cache capacity; served but never stored.
    MISS_TOO_LARGE = "miss_too_large"

    @property
    def is_hit(self) -> bool:
        return self is AccessOutcome.HIT


#: ``OUTCOMES[code]`` is the :class:`AccessOutcome` of an integer outcome
#: code, as :meth:`SimCache.access_run` appends them; ``HIT`` is 0, so
#: ``not code`` reads "was a hit".
OUTCOMES: Tuple[AccessOutcome, ...] = tuple(AccessOutcome)
HIT, MISS, MISS_MODIFIED, MISS_TOO_LARGE = range(len(OUTCOMES))


@dataclass
class AccessResult:
    """Outcome of one access, with any entries evicted to make room."""

    outcome: AccessOutcome
    request: Request
    evicted: List[CacheEntry] = field(default_factory=list)

    @property
    def is_hit(self) -> bool:
        return self.outcome.is_hit


class EvictionIndex:
    """Maintains policy order over the live entries of one cache."""

    #: Whether a hit can move an entry in this index; when it cannot,
    #: the cache's hit path never calls :meth:`on_touch`.
    tracks_hits = False

    def __init__(self, policy: KeyPolicy, entries: Dict[str, CacheEntry]) -> None:
        self.policy = policy
        self._entries = entries

    def add(self, entry: CacheEntry) -> None:
        """The entry was just admitted to the cache."""

    def on_touch(self, entry: CacheEntry) -> None:
        """A hit under a clock that ran backwards just lowered the
        entry's ATIME; no other hit is reported (see :class:`HeapIndex`)."""

    def pop_head(self) -> CacheEntry:
        """Return the entry first in removal order; the caller removes it
        from the cache."""
        raise NotImplementedError


class NaiveIndex(EvictionIndex):
    """Reference index: full re-sort at every eviction."""

    def pop_head(self) -> CacheEntry:
        if not self._entries:
            raise LookupError("cannot evict from an empty cache")
        return min(self._entries.values(), key=self.policy.sort_value)


class HeapIndex(EvictionIndex):
    """Heap with lazy invalidation and lazy revaluation.

    Every admission pushes one flat record ``(k1, ..., kn, seq, entry,
    nref)`` — the policy's sort values, then the fields read at fixed
    offsets from the end, built by one ``policy.record`` call — and stamps
    the entry with ``seq`` (:attr:`CacheEntry.heap_seq`); a record is
    live iff its entry still carries its sequence number — a newer push
    or a removal (which clears the stamp) makes it stale, and stale
    records are dropped when they surface at the heap top.  The unique
    sequence number also makes records totally ordered without ever
    comparing entries themselves.

    A hit pushes nothing: it can only *raise* a sort value (the
    :class:`~repro.core.keys.SortKey` contract), so each live record's
    stored value is <= its entry's current one and :meth:`pop_head`
    revalues at the top only.  A top whose entry still has the NREF
    stamped into the record has not been hit since the push: it is
    current and, every other record understating its entry, the true
    minimum.  Any other top is replaced by a current record and the new
    top examined.  The one hit that can lower a value, ``now`` before
    the entry's ATIME, reaches :meth:`on_touch` and pushes afresh.

    Records orphaned by removals and such pushes are compacted away when
    they outnumber the live ones (plus :attr:`SLACK`) — amortised O(1)
    per push; ``(values, seq)`` is a total order, so pop order holds.
    """

    #: Stale records tolerated beyond one per live entry.
    SLACK = 64

    def __init__(self, policy: KeyPolicy, entries: Dict[str, CacheEntry]) -> None:
        super().__init__(policy, entries)
        self._heap: List[tuple] = []
        self._seq = 0
        self._record = policy.record
        self.tracks_hits = policy.mutable

    def add(self, entry: CacheEntry) -> None:
        self._seq = entry.heap_seq = seq = self._seq + 1
        heap = self._heap
        heappush(heap, self._record(entry, seq, entry.nref))
        if len(heap) > 2 * len(self._entries) + self.SLACK:
            heap[:] = [record for record in heap if record[-2].heap_seq == record[-3]]
            heapify(heap)

    on_touch = add

    def pop_head(self) -> CacheEntry:
        heap = self._heap
        while heap:
            record = heap[0]
            entry = record[-2]
            if entry.heap_seq != record[-3]:
                heappop(heap)
            elif entry.nref == record[-1] or not self.tracks_hits:
                heappop(heap)
                return entry
            else:
                heapreplace(heap, self._record(entry, record[-3], entry.nref))
        raise LookupError("cannot evict from an empty cache")


def _hook(policy: RemovalPolicy, name: str) -> Optional[Callable[[CacheEntry], None]]:
    """The policy's lifecycle hook, or ``None`` when it is the base
    class's no-op (every key policy), so the access path skips the call."""
    if getattr(type(policy), name) is getattr(RemovalPolicy, name):
        return None
    return getattr(policy, name)


class SimCache:
    """A (finite or infinite) proxy cache with pluggable removal policy.

    Args:
        capacity: cache size in bytes, or ``None`` for the infinite cache of
            Experiment 1.
        policy: a :class:`~repro.core.policy.KeyPolicy` (sorted-index
            eviction) or :class:`~repro.core.policy.DynamicPolicy`
            (per-eviction victim choice).  Defaults to SIZE — the paper's
            winner.
        seed: seed for the per-entry random tie-break stamps.
        use_heap_index: select :class:`HeapIndex` (default) or
            :class:`NaiveIndex` for key policies.
        latency_estimator: optional ``f(request) -> seconds`` filled into
            entries for the LATENCY extension key; ``request`` carries the
            admitted row's timestamp, URL, size and type.
        ttl_assigner: optional ``f(request, now) -> expiry_time`` for the
            TTL extension key (``request`` as above).
        on_evict: optional callback invoked with each evicted entry (used,
            e.g., to hand documents down a cache hierarchy).
    """

    #: Removal on demand (Section 1.2); without it (pure periodic removal)
    #: a document that does not fit the free space is served, not stored.
    on_demand = True

    def __init__(
        self,
        capacity: Optional[int],
        policy: Optional[RemovalPolicy] = None,
        seed: int = 0,
        use_heap_index: bool = True,
        latency_estimator: Optional[Callable[[Request], float]] = None,
        ttl_assigner: Optional[Callable[[Request, float], float]] = None,
        on_evict: Optional[Callable[[CacheEntry], None]] = None,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None for infinite)")
        self.capacity = capacity
        self.policy = policy if policy is not None else KeyPolicy([SIZE])
        self._entries: Dict[str, CacheEntry] = {}
        self.used_bytes = 0
        self.max_used_bytes = 0
        self.eviction_count = 0
        self.evicted_bytes = 0
        self._random = random.Random(seed).random
        self._phases = None
        self._latency_estimator = latency_estimator
        self._ttl_assigner = ttl_assigner
        self._on_evict = on_evict
        self._index: Optional[EvictionIndex]
        if capacity is None or isinstance(self.policy, DynamicPolicy):
            self._index = None
        elif isinstance(self.policy, KeyPolicy):
            index_cls = HeapIndex if use_heap_index else NaiveIndex
            self._index = index_cls(self.policy, self._entries)
        else:
            raise TypeError(
                f"unsupported policy type: {type(self.policy).__name__}"
            )
        self._index_touch = (
            self._index.on_touch
            if self._index is not None and self._index.tracks_hits else None
        )
        self._on_admit = _hook(self.policy, "on_admit")
        self._on_hit = _hook(self.policy, "on_hit")
        self._on_remove = _hook(self.policy, "on_remove")

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, url: str) -> bool:
        return url in self._entries

    def get(self, url: str) -> Optional[CacheEntry]:
        """The live entry for a URL, or ``None``."""
        return self._entries.get(url)

    def entries(self) -> Iterator[CacheEntry]:
        """Iterate over live entries (no particular order)."""
        return iter(self._entries.values())

    @property
    def free_bytes(self) -> Optional[int]:
        """Free space, or ``None`` for an infinite cache."""
        if self.capacity is None:
            return None
        return self.capacity - self.used_bytes

    def removal_order(self) -> List[CacheEntry]:
        """Current entries in removal order (diagnostics; O(n log n))."""
        if isinstance(self.policy, KeyPolicy):
            return self.policy.order(self._entries.values())
        raise TypeError("removal_order is only defined for key policies")

    def stats_snapshot(self) -> Dict[str, Optional[int]]:
        """Occupancy and eviction counters as one plain dict — the shape
        the observability layer reports (simulator events, the proxy's
        ``GET /metrics`` store gauges)."""
        return {
            "capacity": self.capacity,
            "used_bytes": self.used_bytes,
            "max_used_bytes": self.max_used_bytes,
            "documents": len(self._entries),
            "eviction_count": self.eviction_count,
            "evicted_bytes": self.evicted_bytes,
        }

    def set_phase_timer(self, timer) -> None:
        """Attach (or with ``None`` detach) a per-access phase timer —
        a :class:`repro.obs.profile.CachePhaseTimer` — that the access
        path reports its lookup / evict / admit phases into.  Timed and
        untimed accesses run the same code, so timing can never perturb
        results."""
        self._phases = timer

    # -- the Section 1.1 access path ------------------------------------------

    def access(self, request: Request, now: Optional[float] = None) -> AccessResult:
        """Process one valid trace request against the cache."""
        evicted: List[CacheEntry] = []
        code = self.access_code(request, now, evicted)
        return AccessResult(OUTCOMES[code], request, evicted)

    def access_code(self, request: Request, now: Optional[float] = None,
                    evicted: Optional[List[CacheEntry]] = None) -> int:
        """One valid request (at ``now``, its own timestamp by default) as
        a one-row :meth:`access_run`; returns its outcome code."""
        codes = bytearray()
        self.access_run((request.url,), (request.size,), (
            request.timestamp if now is None else now,), (request.doc_type,),
            codes, evicted)
        return codes[0]

    def access_run(self, urls: Sequence[str], sizes: Sequence[int],
                   stamps: Sequence[float],
                   types: Sequence[Optional[DocumentType]], codes: bytearray,
                   evicted: Optional[List[CacheEntry]] = None) -> None:
        """The one access path: process a run of valid requests given as
        columns, appending each row's outcome code to ``codes`` (and the
        entries evicted to make room to ``evicted``, when a list is
        passed).  A ``None`` type is classified only on admission.  The
        cache's state is bound to locals once a run, not once a row."""
        entries = self._entries
        lookup = entries.get
        capacity = self.capacity
        on_demand = self.on_demand
        add = self._index.add if self._index is not None else None
        touch = self._index_touch
        on_hit = self._on_hit
        on_admit = self._on_admit
        draw = self._random
        latency = self._latency_estimator
        expires = self._ttl_assigner
        timer = self._phases
        if timer is not None:
            clock = timer.clock
            observe = timer.observe
        append = codes.append
        for url, size, now, kind in zip(urls, sizes, stamps, types):
            if timer is not None:
                start = clock()
            entry = lookup(url)
            code = MISS
            if entry is not None:
                if entry.size == size:
                    # Only a clock running backwards lowers a sort value (HeapIndex).
                    backwards = now < entry.atime
                    entry.atime = now
                    entry.nref += 1
                    if backwards and touch is not None:
                        touch(entry)
                    if on_hit is not None:
                        on_hit(entry)
                    if timer is not None:
                        observe("lookup", clock() - start)
                    append(HIT)
                    continue
                # Modified document: the cached copy is inconsistent.  The
                # access stays MISS_MODIFIED even if the new copy cannot fit.
                self._remove_entry(entry)
                code = MISS_MODIFIED
            if timer is not None:
                observe("lookup", clock() - start)
            if capacity is not None and size > (
                capacity if on_demand else capacity - self.used_bytes
            ):
                append(MISS_TOO_LARGE if code == MISS else code)
                continue
            if timer is not None:
                start = clock()
            if capacity is not None and capacity - self.used_bytes < size:
                self._make_room(size, now, evicted)
            if timer is not None:
                admit_start = clock()
                observe("evict", admit_start - start)
            if kind is None:
                kind = classify_url(url)
            # Positionally: keywords cost ~0.4 us a miss.
            entry = CacheEntry(url, size, now, now, 1, kind, draw())
            if latency is not None or expires is not None:  # see __init__
                request = Request(now, url, size, doc_type=kind)
                entry.latency = latency(request) if latency else 0.0
                entry.expires_at = expires(request, now) if expires else None
            entries[url] = entry
            self.used_bytes = used = self.used_bytes + size
            if used > self.max_used_bytes:
                self.max_used_bytes = used
            if add is not None:
                add(entry)
            if on_admit is not None:
                on_admit(entry)
            if timer is not None:
                observe("admit", clock() - admit_start)
            append(code)

    def remove(self, url: str) -> Optional[CacheEntry]:
        """Explicitly drop a URL (consistency invalidation, tests)."""
        entry = self._entries.get(url)
        if entry is not None:
            self._remove_entry(entry)
        return entry

    # -- internals -------------------------------------------------------------

    def _make_room(
        self, size: int, now: float, evicted: Optional[List[CacheEntry]],
    ) -> None:
        """Section 1.2: "removes zero or more documents from the head of
        the sorted list until the amount of free cache space equals or
        exceeds the incoming document size" — the one eviction loop.  A
        dynamic policy picks each victim for an incoming ``size``."""
        entries = self._entries
        index = self._index
        on_remove = self._on_remove
        on_evict = self._on_evict
        while self.capacity - self.used_bytes < size:
            if index is not None:
                victim = index.pop_head()
            else:
                victim = self.policy.choose_victim(
                    list(entries.values()), size, now
                )
            del entries[victim.url]
            victim.heap_seq = 0  # its heap records are stale from here on
            self.used_bytes -= victim.size
            self.eviction_count += 1
            self.evicted_bytes += victim.size
            if on_remove is not None:
                on_remove(victim)
            if evicted is not None:
                evicted.append(victim)
            if on_evict is not None:
                on_evict(victim)

    def _remove_entry(self, entry: CacheEntry) -> None:
        del self._entries[entry.url]
        entry.heap_seq = 0  # its heap records are stale from here on
        self.used_bytes -= entry.size
        if self._on_remove is not None:
            self._on_remove(entry)
