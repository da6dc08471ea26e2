"""Trace validation: Section 1.1 rules for building the *valid* trace.

The paper stipulates conditions under which a raw logged request is
invalidated and "not considered part of the trace":

* The server return code must be ``200 Accept``.  Client or server errors,
  and requests satisfied by the client's own cache (``304 Not Modified``),
  are discarded.
* If the log records a size of 0 for a URL that has not been encountered
  before, the request is discarded.
* If the log records a size of 0 for a URL previously seen with a non-zero
  size, the URL is assumed unmodified: the request is kept and assigned the
  last known size.

Keeping HR and WHR "with respect to the same exact trace" means validation is
performed once, up front, and every simulated cache consumes the identical
validated stream; :class:`TraceValidator` supports both one-shot
(:meth:`TraceValidator.validate`) and streaming (:meth:`TraceValidator.feed`)
use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.trace.compiled import CompiledTrace, request_fields
from repro.trace.record import Request

__all__ = ["ValidationStats", "TraceValidator"]


@dataclass
class ValidationStats:
    """Counters describing what validation kept and discarded."""

    total: int = 0
    accepted: int = 0
    rejected_status: int = 0
    rejected_zero_size: int = 0
    inherited_size: int = 0
    accepted_bytes: int = 0

    @property
    def rejected(self) -> int:
        """Total requests dropped from the raw log."""
        return self.rejected_status + self.rejected_zero_size

    def as_dict(self) -> dict:
        """Return the counters as a plain dictionary (for reports)."""
        return {
            "total": self.total,
            "accepted": self.accepted,
            "rejected_status": self.rejected_status,
            "rejected_zero_size": self.rejected_zero_size,
            "inherited_size": self.inherited_size,
            "accepted_bytes": self.accepted_bytes,
        }


class TraceValidator:
    """Applies the Section 1.1 validation rules to a raw request stream.

    The validator is stateful: it remembers the last known non-zero size of
    every URL so that later size-0 requests can inherit it.  Feed requests in
    trace order.

    Args:
        accepted_statuses: HTTP statuses considered successful; the paper
            accepts only 200.
    """

    def __init__(self, accepted_statuses: Iterable[int] = (200,)) -> None:
        self._accepted_statuses = frozenset(accepted_statuses)
        self._last_known_size: Dict[str, int] = {}
        self.stats = ValidationStats()

    def _admit(self, url: str, size: int, status: int) -> Optional[int]:
        """The Section 1.1 rule for one logged line: the size it enters
        the valid trace with, or ``None`` when it is discarded."""
        stats = self.stats
        stats.total += 1
        if status not in self._accepted_statuses:
            stats.rejected_status += 1
            return None
        if size == 0:
            size = self._last_known_size.get(url)
            if size is None:
                stats.rejected_zero_size += 1
                return None
            stats.inherited_size += 1
        else:
            self._last_known_size[url] = size
        stats.accepted += 1
        stats.accepted_bytes += size
        return size

    def feed(self, request: Request) -> Optional[Request]:
        """Validate one request.

        Returns:
            The request to include in the valid trace (possibly with an
            inherited size), or ``None`` when the request is discarded.
        """
        size = self._admit(request.url, request.size, request.status)
        if size is None:
            return None
        return request if size == request.size else request.with_size(size)

    def validate(self, requests: Iterable[Request]) -> CompiledTrace:
        """Materialise the valid trace for a raw request sequence,
        compiled once for every replay over it.  A compiled trace is read
        column by column; a ``Request`` stream is compiled as it streams."""
        valid = CompiledTrace()
        add, admit = valid.appender(), self._admit
        for stamp, url, size, status, client, kind, modified in request_fields(requests):
            size = admit(url, size, status)
            if size is not None:
                add(stamp, url, size, status, client, kind, modified)
        valid.seal()
        return valid
