"""Workload characterisation (Section 2.2 of the paper).

These functions regenerate the statistics behind the paper's
characterisation figures and table:

* :func:`type_distribution` -- Table 4: percentage of references and bytes
  transferred per media type.
* :func:`server_rank_series` -- Figure 1: servers ranked by request count.
* :func:`url_bytes_rank_series` -- Figure 2: URLs ranked by bytes transferred.
* :func:`size_histogram` -- Figure 13: distribution of document sizes.
* :func:`interreference_scatter` -- Figure 14: (size, time since last
  reference) point per re-reference.
* :func:`summarize` -- headline numbers (requests, unique URLs/servers, GB
  transferred, duration) used throughout Section 2.

All functions consume the *valid* trace (see
:mod:`repro.trace.validation`); pass raw requests through a
:class:`~repro.trace.validation.TraceValidator` first when reproducing the
paper's numbers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.trace.compiled import compile_trace
from repro.trace.record import DocumentType, Request, server_of_url

__all__ = [
    "TypeShare",
    "WorkloadSummary",
    "type_distribution",
    "server_rank_series",
    "url_bytes_rank_series",
    "size_histogram",
    "interreference_scatter",
    "summarize",
    "zipf_slope",
]


@dataclass(frozen=True)
class TypeShare:
    """One row of Table 4: a media type's share of references and bytes."""

    doc_type: DocumentType
    refs: int
    bytes: int
    pct_refs: float
    pct_bytes: float


def type_distribution(requests: Iterable[Request]) -> List[TypeShare]:
    """Compute the Table 4 file-type distribution for a trace.

    Returns one :class:`TypeShare` per :class:`DocumentType`, in the fixed
    Table 4 row order (graphics, text, audio, video, cgi, unknown), with
    percentages of total references and total bytes transferred.
    """
    ref_counts: Counter = Counter()
    byte_counts: Counter = Counter()
    for request in requests:
        doc_type = request.media_type
        ref_counts[doc_type] += 1
        byte_counts[doc_type] += request.size
    total_refs = sum(ref_counts.values())
    total_bytes = sum(byte_counts.values())
    rows = []
    for doc_type in DocumentType:
        refs = ref_counts.get(doc_type, 0)
        size = byte_counts.get(doc_type, 0)
        rows.append(TypeShare(
            doc_type=doc_type,
            refs=refs,
            bytes=size,
            pct_refs=100.0 * refs / total_refs if total_refs else 0.0,
            pct_bytes=100.0 * size / total_bytes if total_bytes else 0.0,
        ))
    return rows


def server_rank_series(requests: Iterable[Request]) -> List[Tuple[int, int]]:
    """Figure 1 series: ``(rank, request_count)`` per server, rank 1 = busiest."""
    # A trace names each URL many times: split each URL once.
    counts: Counter = Counter()
    for url, references in Counter(r.url for r in requests).items():
        counts[server_of_url(url)] += references
    ordered = sorted(counts.values(), reverse=True)
    return [(rank + 1, count) for rank, count in enumerate(ordered)]


def url_bytes_rank_series(requests: Iterable[Request]) -> List[Tuple[int, int]]:
    """Figure 2 series: ``(rank, total_bytes)`` per URL, rank 1 = heaviest."""
    totals: Counter = Counter()
    for request in requests:
        totals[request.url] += request.size
    ordered = sorted(totals.values(), reverse=True)
    return [(rank + 1, total) for rank, total in enumerate(ordered)]


def size_histogram(
    requests: Iterable[Request],
    bin_width: int = 512,
    max_size: int = 20000,
) -> List[Tuple[int, int]]:
    """Figure 13 series: request counts per document-size bin.

    Args:
        requests: the valid trace.
        bin_width: histogram bin width in bytes.
        max_size: sizes at or above this are folded into the final bin,
            matching the figure's bounded x-axis.

    Returns:
        ``(bin_start_bytes, request_count)`` pairs covering
        ``[0, max_size)`` plus one overflow bin starting at ``max_size``.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    n_bins = max(1, math.ceil(max_size / bin_width))
    bins = [0] * (n_bins + 1)
    for request in requests:
        index = min(request.size // bin_width, n_bins)
        bins[index] += 1
    return [(i * bin_width, count) for i, count in enumerate(bins)]


def interreference_scatter(
    requests: Iterable[Request],
) -> List[Tuple[int, float]]:
    """Figure 14 series: one ``(size, seconds_since_last_ref)`` point per
    re-reference of a URL (URLs referenced two or more times)."""
    last_seen: Dict[str, float] = {}
    points: List[Tuple[int, float]] = []
    for request in requests:
        previous = last_seen.get(request.url)
        if previous is not None:
            points.append((request.size, request.timestamp - previous))
        last_seen[request.url] = request.timestamp
    return points


def zipf_slope(rank_series: Sequence[Tuple[int, int]]) -> float:
    """Least-squares slope of log(count) vs log(rank).

    A rank/frequency series following a Zipf distribution has slope close to
    ``-1``.  Used to check Figures 1 and 2 of the paper (both are straight
    lines on log-log axes).
    """
    points = [(math.log(r), math.log(c)) for r, c in rank_series if c > 0]
    if len(points) < 2:
        raise ValueError("need at least two non-zero ranks to fit a slope")
    n = len(points)
    sum_x = sum(x for x, _ in points)
    sum_y = sum(y for _, y in points)
    sum_xx = sum(x * x for x, _ in points)
    sum_xy = sum(x * y for x, y in points)
    denominator = n * sum_xx - sum_x * sum_x
    if denominator == 0:
        raise ValueError("degenerate rank series")
    return (n * sum_xy - sum_x * sum_y) / denominator


@dataclass
class WorkloadSummary:
    """Headline workload numbers (Section 2 of the paper)."""

    requests: int = 0
    total_bytes: int = 0
    unique_urls: int = 0
    unique_servers: int = 0
    duration_days: int = 0
    mean_requests_per_day: float = 0.0
    unique_bytes: int = 0
    per_day_requests: Dict[int, int] = field(default_factory=dict)

    @property
    def total_gigabytes(self) -> float:
        """Total bytes transferred, in binary gigabytes."""
        return self.total_bytes / 2**30

    @property
    def unique_megabytes(self) -> float:
        """Total unique-document footprint, in binary megabytes.

        This approximates MaxNeeded (the cache size at which nothing is ever
        removed) using the *last* observed size for each URL.
        """
        return self.unique_bytes / 2**20


def summarize(requests: Iterable[Request]) -> WorkloadSummary:
    """Compute headline numbers for a valid trace, from its columns (a
    trace that is not compiled yet is compiled first)."""
    trace = compile_trace(requests)
    summary = WorkloadSummary()
    # Each URL's last size, in order of first reference.
    urls: Dict[str, int] = dict(zip(trace.urls, trace.sizes))
    per_day = Counter(int(stamp // 86400) for stamp in trace.stamps)
    summary.requests = len(trace)
    summary.total_bytes = sum(trace.sizes)
    summary.unique_urls = len(urls)
    # A trace names each URL many times: split each URL once.
    summary.unique_servers = len({server_of_url(url) for url in urls})
    summary.unique_bytes = sum(urls.values())
    last_timestamp = max(trace.stamps, default=0.0)
    summary.duration_days = int(last_timestamp // 86400) + 1 if summary.requests else 0
    summary.per_day_requests = dict(per_day)
    if summary.duration_days:
        summary.mean_requests_per_day = summary.requests / summary.duration_days
    return summary
