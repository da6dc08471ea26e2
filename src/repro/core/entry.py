"""Cache entries: per-document state a removal policy may consult.

A cached document copy carries exactly the attributes the paper's Table 1
sorting keys are defined over — size, cache-entry time (ETIME), last-access
time (ATIME) and reference count (NREF) — plus the fields used by the
extension keys of Section 5 (media type, an estimated refetch latency, an
expiry time) and bookkeeping for tie-breaking and index invalidation.
"""

from __future__ import annotations

from typing import Optional

from repro.trace.record import DocumentType

__all__ = ["CacheEntry"]


class CacheEntry:
    """State of one cached document copy.

    Attributes:
        url: document identity; lookups match on exact URL.
        size: current copy's size in bytes.
        etime: simulation time the copy entered the cache (Table 1 ETIME).
        atime: time of last access (Table 1 ATIME); equals ``etime`` until
            the first hit.
        nref: number of references to the copy, counting the miss that
            loaded it (Table 1 NREF starts at 1, as in the paper's Table 2
            worked example).
        doc_type: media category, for type-aware extension policies and the
            partitioned cache of Experiment 4.
        random_stamp: uniform tie-break value drawn by the cache at
            insertion; gives the RANDOM key a stable, reproducible order.
        latency: estimated refetch latency in seconds (extension key).
        expires_at: expiry time for TTL-aware removal (extension key);
            ``None`` means no expiry is known.
        heap_seq: sequence number of the entry's live heap-index record
            (the record at the heap head is live iff it carries this
            number); 0, set on removal, matches no record.

    Slotted, with a hand-written ``__init__`` (``dataclass(slots=True)``
    needs Python 3.10); entries compare by identity.
    """

    __slots__ = (
        "url", "size", "etime", "atime", "nref", "doc_type", "random_stamp",
        "latency", "expires_at", "heap_seq",
    )

    def __init__(
        self, url: str, size: int, etime: float, atime: float, nref: int = 1,
        doc_type: DocumentType = DocumentType.UNKNOWN,
        random_stamp: float = 0.0, latency: float = 0.0,
        expires_at: Optional[float] = None, heap_seq: int = 0,
    ) -> None:
        if size <= 0:
            raise ValueError(f"cached document size must be positive, got {size}")
        self.url = url
        self.size = size
        self.etime = etime
        self.atime = atime
        self.nref = nref
        self.doc_type = doc_type
        self.random_stamp = random_stamp
        self.latency = latency
        self.expires_at = expires_at
        self.heap_seq = heap_seq

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"CacheEntry({fields})"

    def touch(self, now: float) -> None:
        """Record a hit: update recency and reference count."""
        self.atime = now
        self.nref += 1

    @property
    def atime_day(self) -> int:
        """Day of last access — the DAY(ATIME) key of Table 1."""
        return int(self.atime // 86400)
