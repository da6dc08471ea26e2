"""Response variables: hit rate, weighted hit rate, and their daily series.

The paper's two measures (Section 1):

* **HR** — hit rate: fraction of client-requested URLs returned by the
  proxy.
* **WHR** — weighted hit rate: fraction of client-requested *bytes*
  returned by the proxy.

Both are reported per day and smoothed with a 7-day moving average over
*recorded* days — "every plotted point is the average of hit rates for the
previous seven recorded days, no matter what amount of time has elapsed",
and "no point is plotted for days zero to five" (Section 3.2 and the
Figure 5 caption).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, List, Optional, Sequence, Tuple

from repro.trace.record import Request

__all__ = [
    "DayStats",
    "MetricsCollector",
    "moving_average",
    "ratio_series",
    "series_mean",
]

Series = List[Tuple[int, float]]


@dataclass
class DayStats:
    """Counters for one trace day."""

    requests: int = 0
    hits: int = 0
    bytes_requested: int = 0
    bytes_hit: int = 0

    @property
    def hit_rate(self) -> float:
        """Daily HR in percent."""
        return 100.0 * self.hits / self.requests if self.requests else 0.0

    @property
    def weighted_hit_rate(self) -> float:
        """Daily WHR in percent."""
        if not self.bytes_requested:
            return 0.0
        return 100.0 * self.bytes_hit / self.bytes_requested


@dataclass
class MetricsCollector:
    """Accumulates per-day and cumulative HR/WHR over a simulation.

    The collector is the one record of a replay's per-day history: the
    four counters per recorded day, plus — stamped by the replay driver
    when it closes a day — the cache's end-of-day occupancy.
    """

    days: Dict[int, DayStats] = field(default_factory=dict)
    total_requests: int = 0
    total_hits: int = 0
    total_bytes_requested: int = 0
    total_bytes_hit: int = 0
    #: day -> end-of-day ``(used_bytes, documents)`` of the cache this
    #: collector describes; not part of equality, which is over counters.
    occupancy: Dict[int, Tuple[int, int]] = field(
        default_factory=dict, compare=False,
    )

    def record(self, request: Request, is_hit: bool) -> None:
        """Account one valid request and whether the cache served it."""
        size = request.size
        self.add(request.day, 1, int(is_hit), size, size if is_hit else 0)

    def credit(self, day: int, sizes: Sequence[int], codes: bytes) -> None:
        """Account a run of requests on ``day`` from their sizes and their
        outcome codes (``HIT`` is 0: ``compress`` picks the misses)."""
        requested = sum(sizes)
        self.add(day, len(codes), codes.count(0), requested,
                 requested - sum(compress(sizes, codes)))

    def add(self, day: int, requests: int, hits: int,
            bytes_requested: int, bytes_hit: int) -> None:
        """Credit ``day`` and the totals with these many more requests,
        hits and bytes — how a replay accounts a whole day in one call."""
        stats = self.days.get(day)
        if stats is None:  # get-then-insert: no DayStats built per call
            stats = self.days[day] = DayStats()
        stats.requests += requests
        stats.hits += hits
        stats.bytes_requested += bytes_requested
        stats.bytes_hit += bytes_hit
        self.total_requests += requests
        self.total_hits += hits
        self.total_bytes_requested += bytes_requested
        self.total_bytes_hit += bytes_hit

    # -- cumulative measures ---------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Cumulative HR in percent over the whole trace."""
        if not self.total_requests:
            return 0.0
        return 100.0 * self.total_hits / self.total_requests

    @property
    def weighted_hit_rate(self) -> float:
        """Cumulative WHR in percent over the whole trace."""
        if not self.total_bytes_requested:
            return 0.0
        return 100.0 * self.total_bytes_hit / self.total_bytes_requested

    @property
    def mean_daily_hit_rate(self) -> float:
        """Unweighted mean of daily HRs (the paper's 'averaged over all
        days in the trace')."""
        if not self.days:
            return 0.0
        return sum(d.hit_rate for d in self.days.values()) / len(self.days)

    @property
    def mean_daily_weighted_hit_rate(self) -> float:
        """Unweighted mean of daily WHRs."""
        if not self.days:
            return 0.0
        return sum(
            d.weighted_hit_rate for d in self.days.values()
        ) / len(self.days)

    # -- series ------------------------------------------------------------------

    def recorded_days(self) -> List[int]:
        """Days with at least one valid request, ascending."""
        return sorted(self.days)

    def hr_series(self) -> Series:
        """Raw daily HR series over recorded days."""
        return [(day, self.days[day].hit_rate) for day in self.recorded_days()]

    def whr_series(self) -> Series:
        """Raw daily WHR series over recorded days."""
        return [
            (day, self.days[day].weighted_hit_rate)
            for day in self.recorded_days()
        ]

    def smoothed_hr(self, window: int = 7) -> Series:
        """7-day moving average of daily HR, as plotted in the figures."""
        return moving_average(self.hr_series(), window)

    def smoothed_whr(self, window: int = 7) -> Series:
        """7-day moving average of daily WHR."""
        return moving_average(self.whr_series(), window)


def moving_average(series: Sequence[Tuple[int, float]], window: int = 7) -> Series:
    """Moving average over *recorded* points, paper-style.

    Point ``i`` (for ``i >= window - 1``) is the mean of points
    ``i-window+1 .. i`` regardless of calendar gaps between them; earlier
    points are not plotted.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    result: Series = []
    values = [value for _, value in series]
    for i in range(window - 1, len(series)):
        day = series[i][0]
        mean = sum(values[i - window + 1: i + 1]) / window
        result.append((day, mean))
    return result


def ratio_series(
    numerator: Sequence[Tuple[int, float]],
    denominator: Sequence[Tuple[int, float]],
) -> Series:
    """Pointwise ``100 * numerator / denominator`` on shared days.

    Experiment 2 plots finite-cache HR as a percentage of the
    infinite-cache HR; days where the denominator is zero are skipped.
    """
    denominator_by_day = dict(denominator)
    result: Series = []
    for day, value in numerator:
        base = denominator_by_day.get(day)
        if base:
            result.append((day, 100.0 * value / base))
    return result


def series_mean(series: Sequence[Tuple[int, float]]) -> float:
    """Mean of a series' values (0.0 for an empty series)."""
    if not series:
        return 0.0
    return sum(value for _, value in series) / len(series)
