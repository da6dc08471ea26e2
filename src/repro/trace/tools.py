"""Trace manipulation tools: filter, slice, merge, split, anonymise.

Utilities a trace study needs around the core simulator: restricting a
trace to a day range or client set (the paper's own BR workload is "every
URL request ... with a client outside that domain"), merging several
traces in timestamp order (multi-population studies), splitting by media
type (partitioned-cache analysis), and anonymising client identities
before sharing a log.
"""

from __future__ import annotations

import heapq
import zlib
from itertools import repeat
from typing import Any, Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.trace.record import DocumentType, Request

__all__ = [
    "filter_days",
    "filter_clients",
    "filter_servers",
    "filter_types",
    "merge_tagged",
    "merge_traces",
    "split_by_type",
    "split_by_day",
    "anonymize_clients",
    "rebase_timestamps",
]


def filter_days(
    trace: Iterable[Request], first_day: int, last_day: int
) -> Iterator[Request]:
    """Requests whose day index lies in ``[first_day, last_day]``."""
    if first_day > last_day:
        raise ValueError("first_day must not exceed last_day")
    for request in trace:
        if first_day <= request.day <= last_day:
            yield request


def filter_clients(
    trace: Iterable[Request],
    predicate: Callable[[str], bool],
) -> Iterator[Request]:
    """Requests whose client satisfies ``predicate``.

    E.g. the paper's BR selection: clients *outside* ``.cs.vt.edu`` naming
    servers inside it::

        filter_clients(trace, lambda c: not c.endswith(".cs.vt.edu"))
    """
    for request in trace:
        if predicate(request.client):
            yield request


def filter_servers(
    trace: Iterable[Request],
    predicate: Callable[[str], bool],
) -> Iterator[Request]:
    """Requests whose URL names a server satisfying ``predicate``."""
    for request in trace:
        if predicate(request.server):
            yield request


def filter_types(
    trace: Iterable[Request],
    types: Sequence[DocumentType],
) -> Iterator[Request]:
    """Requests whose media type is one of ``types``."""
    wanted = frozenset(types)
    for request in trace:
        if request.media_type in wanted:
            yield request


def merge_tagged(
    traces: Dict[Any, Iterable[Request]],
) -> Iterator[Tuple[Any, Request]]:
    """``(name, request)`` pairs of named traces, ordered by ``(timestamp,
    name)``.  Each trace must itself be timestamp-ordered (as generated
    traces and parsed logs are); its requests keep their own order."""
    return heapq.merge(
        *(zip(repeat(name), trace) for name, trace in traces.items()),
        key=lambda pair: (pair[1].timestamp, pair[0]),
    )


def merge_traces(*traces: Sequence[Request]) -> List[Request]:
    """Merge traces into one, ordered by timestamp; requests at the same
    timestamp keep input order (an earlier trace's first)."""
    return [request for _, request in merge_tagged(dict(enumerate(traces)))]


def split_by_type(
    trace: Iterable[Request],
) -> Dict[DocumentType, List[Request]]:
    """Partition a trace by media type (all types present as keys)."""
    parts: Dict[DocumentType, List[Request]] = {
        doc_type: [] for doc_type in DocumentType
    }
    for request in trace:
        parts[request.media_type].append(request)
    return parts


def split_by_day(trace: Iterable[Request]) -> Dict[int, List[Request]]:
    """Partition a trace into per-day sub-traces."""
    parts: Dict[int, List[Request]] = {}
    for request in trace:
        parts.setdefault(request.day, []).append(request)
    return parts


def anonymize_clients(
    trace: Iterable[Request],
    salt: str = "",
) -> Iterator[Request]:
    """Replace client identities with stable opaque tokens.

    The same client always maps to the same token (so per-client analyses
    survive), but the mapping is one-way for a secret ``salt``.
    """
    for request in trace:
        token = zlib.crc32(f"{salt}:{request.client}".encode("utf-8"))
        yield Request(
            timestamp=request.timestamp,
            url=request.url,
            size=request.size,
            status=request.status,
            client=f"client-{token:08x}",
            doc_type=request.doc_type,
            last_modified=request.last_modified,
        )


def rebase_timestamps(
    trace: Sequence[Request], start: float = 0.0
) -> List[Request]:
    """Shift a trace so its first request lands at ``start``.

    Useful after :func:`filter_days`, so day-based statistics restart at
    day zero.
    """
    if not trace:
        return []
    offset = trace[0].timestamp - start
    rebased = []
    for request in trace:
        rebased.append(Request(
            timestamp=request.timestamp - offset,
            url=request.url,
            size=request.size,
            status=request.status,
            client=request.client,
            doc_type=request.doc_type,
            last_modified=request.last_modified,
        ))
    return rebased
