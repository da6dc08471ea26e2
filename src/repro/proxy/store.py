"""A thread-safe document store with policy-driven eviction.

:class:`ProxyStore` is the operational counterpart of the simulator's
:class:`~repro.core.cache.SimCache`: it actually holds response bodies, is
safe to use from the proxy's per-connection threads, and delegates every
eviction decision to the same removal policies the simulation studies — so
the SIZE result carries straight into a running proxy.

Internally the store *is* a ``SimCache`` (for metadata, occupancy and the
sorted eviction index) plus a body table kept in lock-step through the
cache's eviction callback.

Durability (``state_dir``): the store persists as one append-only
*journal* (:mod:`repro.durability`).  Every ``put``/``invalidate``/
eviction is fsynced into it before the call returns (a put as one
metadata line with its body raw behind it).  A warm restart folds the
journal (discarding a torn tail, the at-most-one mutation a crash can
lose), re-admits the surviving documents through the normal policy
machinery, then compacts: one atomic rewrite of the journal holding one
put per survivor, with its current stamp.  ``close()`` compacts the
same way.  A crash mid-compaction leaves the previous journal whole.
Lookups are deliberately not journaled: recency/frequency metadata
survives restarts only as of each document's last journaled mutation
(and the access stamps a compaction carries), a bounded staleness that
buys an fsync-free read path.
"""

from __future__ import annotations

import base64
import threading
import time as _time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

from repro.core.cache import SimCache
from repro.core.policy import RemovalPolicy
from repro.durability import Journal, read_journal, rewrite_journal

__all__ = ["CachedDocument", "StoreStats", "StoreRecovery", "ProxyStore"]

#: Journal ``kind`` tag for proxy-store state.
STATE_KIND = "proxy-store"

#: Journal file name inside a state directory.
JOURNAL_NAME = "journal.jsonl"


@dataclass
class CachedDocument:
    """A stored response body plus the metadata the proxy needs."""

    url: str
    body: bytes
    status: int = 200
    content_type: str = "application/octet-stream"
    fetched_at: float = 0.0
    last_modified: Optional[float] = None
    expires: Optional[float] = None

    @property
    def size(self) -> int:
        return len(self.body)


@dataclass
class StoreStats:
    """Hit/miss accounting for a running store."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    bytes_served_from_cache: int = 0
    #: Mutations durably appended to the state journal.
    journal_appends: int = 0
    #: Mutations the journal failed to record (durability degraded).
    journal_errors: int = 0

    @property
    def hit_rate(self) -> float:
        """HR in percent over lookups so far."""
        total = self.hits + self.misses
        return 100.0 * self.hits / total if total else 0.0


@dataclass
class StoreRecovery:
    """What a warm restart found in the state directory."""

    #: Documents alive in the store after replay.
    documents: int = 0
    #: Journal mutations folded into the store.
    journal_replayed: int = 0
    #: Torn/corrupt journal records discarded from the tail.
    tail_discarded: int = 0


def _document_meta(document: CachedDocument, stamp: float) -> dict:
    """What a journaled put carries in JSON: all but the body."""
    return {
        "url": document.url,
        "status": document.status,
        "content_type": document.content_type,
        "fetched_at": document.fetched_at,
        "last_modified": document.last_modified,
        "expires": document.expires,
        "stamp": stamp,
    }


def _record_to_document(
    record: dict, body: Optional[bytes] = None,
) -> "tuple[CachedDocument, float]":
    """A document from its metadata and raw ``body``, or from a format-1
    journal put's base64 ``body``."""
    document = CachedDocument(
        url=record["url"],
        body=base64.b64decode(record["body"]) if body is None else body,
        status=int(record.get("status", 200)),
        content_type=str(
            record.get("content_type", "application/octet-stream")
        ),
        fetched_at=float(record.get("fetched_at", 0.0)),
        last_modified=record.get("last_modified"),
        expires=record.get("expires"),
    )
    return document, float(record.get("stamp", 0.0))


class ProxyStore:
    """Byte-capacity document store with pluggable removal policy.

    Args:
        capacity: store size in bytes.
        policy: any :mod:`repro.core` removal policy; defaults to SIZE,
            the paper's recommendation.
        seed: tie-break seed for the eviction order.
        clock: time source (injectable for tests).
        state_dir: optional directory for crash-safe state (one
            journal).  When set, the constructor warm-restarts from
            whatever the directory holds (``self.recovery`` reports what
            it found) and journals every mutation from then on.
        fsync: fsync journal appends and compactions (tests disable
            it for speed; production leaves it on).
        disk_faults: optional disk-fault injector (see
            :meth:`repro.faults.FaultPlan.disk_injector`) threaded into
            every durable write.
    """

    def __init__(
        self,
        capacity: int,
        policy: Optional[RemovalPolicy] = None,
        seed: int = 0,
        clock=_time.monotonic,
        state_dir: Optional[Union[str, Path]] = None,
        fsync: bool = True,
        disk_faults=None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._lock = threading.Lock()
        self._bodies: Dict[str, CachedDocument] = {}
        self._stamps: Dict[str, float] = {}
        self._clock = clock
        self.stats = StoreStats()
        self._cache = SimCache(
            capacity=capacity,
            policy=policy,
            seed=seed,
            on_evict=self._drop_body,
        )
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self._fsync = fsync
        self._disk_faults = disk_faults
        self._journal: Optional[Journal] = None
        #: Warm-restart report; ``None`` for an ephemeral store.
        self.recovery: Optional[StoreRecovery] = None
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            self._recover()

    def _drop_body(self, entry) -> None:
        self._bodies.pop(entry.url, None)
        self._stamps.pop(entry.url, None)
        self.stats.evictions += 1
        self._journal_append({"op": "remove", "url": entry.url})

    def _journal_append(self, op: dict, body: Optional[bytes] = None) -> None:
        """Durably record one mutation (a put's body as the raw blob); a
        write failure degrades to an unjournaled store (counted) rather
        than failing the request."""
        if self._journal is None:
            return
        try:
            self._journal.append(op, body)
            self.stats.journal_appends += 1
        except OSError:
            self.stats.journal_errors += 1

    # -- public API -------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._cache.capacity

    @property
    def used_bytes(self) -> int:
        return self._cache.used_bytes

    @property
    def max_used_bytes(self) -> int:
        """High-water mark of store occupancy since startup."""
        return self._cache.max_used_bytes

    @property
    def policy_name(self) -> str:
        return self._cache.policy.name

    def enable_phase_metrics(self, registry, profiler=None) -> None:
        """Time the store's lookup/evict/admit phases per request into
        the per-policy ``repro_sim_phase_seconds`` histogram (and an
        optional profiler) — the live-proxy end of the same
        instrumentation the profiled simulator uses."""
        from repro.obs.profile import CachePhaseTimer

        self._cache.set_phase_timer(CachePhaseTimer(
            policy=self._cache.policy.name,
            registry=registry,
            profiler=profiler,
            prefix=("proxy.request", "store.access"),
        ))

    def __len__(self) -> int:
        return len(self._bodies)

    def __contains__(self, url: str) -> bool:
        with self._lock:
            return url in self._bodies

    def get(self, url: str, now: Optional[float] = None) -> Optional[CachedDocument]:
        """Look a document up, updating recency/frequency on a hit."""
        with self._lock:
            document = self._bodies.get(url)
            if document is None:
                self.stats.misses += 1
                return None
            stamp = max(0.0, self._clock() if now is None else now)
            # Drive the metadata cache through its hit path, as a one-row
            # run, so ATIME/NREF (and any mutable-key index) stay correct.
            self._cache.access_run(
                (url,), (document.size,), (stamp,), (None,), bytearray(),
            )
            # Touches are not journaled (see module docstring); the
            # stamp still feeds the next compaction's recency metadata.
            self._stamps[url] = stamp
            self.stats.hits += 1
            self.stats.bytes_served_from_cache += document.size
            return document

    def put(self, document: CachedDocument, now: Optional[float] = None) -> bool:
        """Insert (or replace) a document; returns False when it cannot fit.

        Replacement happens when the URL is already stored with a different
        body — the live analogue of the simulator's modified-document miss.
        """
        if not document.body:
            return False
        url = document.url
        with self._lock:
            stamp = max(0.0, self._clock() if now is None else now)
            existing = self._bodies.pop(url, None)
            if existing is not None:
                self._cache.remove(url)
            # A one-row run; admission classifies the URL's type.
            self._cache.access_run(
                (url,), (document.size,), (stamp,), (None,), bytearray(),
            )
            if url not in self._cache:  # larger than the whole store
                if existing is not None:  # and its old copy is gone too
                    self._stamps.pop(url, None)
                    self._journal_append({"op": "remove", "url": url})
                return False
            self._bodies[url] = document
            self._stamps[url] = stamp
            self.stats.insertions += 1
            self._journal_append(
                {"op": "put", "doc": _document_meta(document, stamp)},
                document.body,
            )
            return True

    def invalidate(self, url: str) -> bool:
        """Drop a URL (failed revalidation); returns whether it was held."""
        with self._lock:
            if url not in self._bodies:
                return False
            self._cache.remove(url)
            self._bodies.pop(url, None)
            self._stamps.pop(url, None)
            self._journal_append({"op": "remove", "url": url})
            return True

    def snapshot(self) -> Dict[str, int]:
        """URL -> size view of current contents (diagnostics)."""
        with self._lock:
            return {url: doc.size for url, doc in self._bodies.items()}

    # -- durability -------------------------------------------------------------

    @property
    def journal_path(self) -> Path:
        assert self.state_dir is not None
        return self.state_dir / JOURNAL_NAME

    def _recover(self) -> None:
        """Warm-restart: journal fold -> live store state -> compaction."""
        replay = read_journal(self.journal_path, kind=STATE_KIND)
        recovery = StoreRecovery(
            journal_replayed=replay.replayed,
            tail_discarded=replay.discarded,
        )
        documents: Dict[str, tuple] = {}  # url -> (record, raw body or None)
        for op in replay.records:
            if op.get("op") == "put" and isinstance(op.get("doc"), dict):
                url = op["doc"].get("url")
                if url:
                    documents.pop(url, None)  # re-append in journal order
                    documents[url] = (op["doc"], op.get("blob"))
            elif op.get("op") == "remove":
                documents.pop(op.get("url"), None)
        # Re-admit through the normal put path (self._journal is still
        # None, so replay is never re-journaled) with each document's
        # recorded stamp, so policy metadata survives the restart.
        for record, body in documents.values():
            try:
                document, stamp = _record_to_document(record, body)
            except (KeyError, TypeError, ValueError):
                continue  # one bad record never blocks the rest
            self.put(document, now=stamp)
        recovery.documents = len(self._bodies)
        self.stats = StoreStats()  # replay is not live traffic
        self._journal = self._compact()
        self.recovery = recovery

    def _compact(self) -> Optional[Journal]:
        """Atomically rewrite the journal as one put per survivor, with
        its current stamp; returns it open for appends, or ``None``
        (counted) when the disk refused and the previous file stands."""
        records = [
            {
                "op": "put",
                "doc": _document_meta(document, self._stamps.get(url, 0.0)),
                "blob": document.body,
            }
            for url, document in self._bodies.items()
        ]
        try:
            return rewrite_journal(
                self.journal_path, records, kind=STATE_KIND,
                fsync=self._fsync, faults=self._disk_faults,
            )
        except OSError:
            self.stats.journal_errors += 1
            return None

    def close(self) -> None:
        """Seal durable state: compact the journal, then close it.

        Safe to skip (a crash instead of a close just means the next
        start replays the longer journal); never raises.
        """
        if self.state_dir is None:
            return
        with self._lock:
            if self._journal is not None:
                self._journal.close()
            sealed = self._compact()
            if sealed is not None:
                sealed.close()
            self._journal = None
