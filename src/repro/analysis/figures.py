"""Series builders for every figure in the paper.

Each function returns a :class:`FigureSeries`: the figure's identity plus
one or more named ``(x, y)`` series — exactly the data a plotting tool
would consume to redraw the figure, and what the benchmark harness prints
and summarises into EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.metrics import ratio_series, series_mean
from repro.core.multilevel import TwoLevelCache
from repro.core.partitioned import PartitionedCache
from repro.core.simulator import SimulationResult
from repro.trace.record import Request
from repro.trace.stats import (
    interreference_scatter,
    server_rank_series,
    size_histogram,
    url_bytes_rank_series,
)

__all__ = [
    "FigureSeries",
    "fig1_server_popularity",
    "fig2_url_bytes",
    "fig3_7_infinite_cache",
    "fig8_12_primary_keys",
    "fig13_size_histogram",
    "fig14_interreference",
    "fig15_secondary_keys",
    "fig16_18_second_level",
    "fig19_20_partitioned",
]

Points = List[Tuple[float, float]]


@dataclass
class FigureSeries:
    """The data behind one paper figure."""

    figure_id: str
    title: str
    xlabel: str
    ylabel: str
    series: Dict[str, Points] = field(default_factory=dict)

    def mean(self, name: str) -> float:
        """Mean y-value of one series."""
        return series_mean(self.series[name])

    def names(self) -> List[str]:
        return list(self.series)


def fig1_server_popularity(trace: Sequence[Request]) -> FigureSeries:
    """Figure 1: requests per server, ranked (log-log straight line)."""
    points = [(float(r), float(c)) for r, c in server_rank_series(trace)]
    return FigureSeries(
        figure_id="fig1",
        title="Distribution of requests for particular servers",
        xlabel="Server: ranked by number of requests",
        ylabel="No. requests",
        series={"requests": points},
    )


def fig2_url_bytes(trace: Sequence[Request]) -> FigureSeries:
    """Figure 2: bytes transferred per URL, ranked."""
    points = [(float(r), float(b)) for r, b in url_bytes_rank_series(trace)]
    return FigureSeries(
        figure_id="fig2",
        title="Distribution of bytes transferred for each URL",
        xlabel="URL: ranked by total bytes transferred",
        ylabel="No. bytes",
        series={"bytes": points},
    )


def fig3_7_infinite_cache(
    result: SimulationResult, workload: str
) -> FigureSeries:
    """Figures 3-7: infinite-cache HR and WHR, 7-day moving average."""
    metrics = result.metrics
    return FigureSeries(
        figure_id={"U": "fig3", "G": "fig4", "C": "fig5",
                   "BL": "fig6", "BR": "fig7"}.get(workload, "fig3-7"),
        title=f"Maximum achievable hit rate for workload {workload}",
        xlabel="Day",
        ylabel="Percent",
        series={
            "HR": [(float(d), v) for d, v in metrics.smoothed_hr()],
            "WHR": [(float(d), v) for d, v in metrics.smoothed_whr()],
        },
    )


def fig8_12_primary_keys(
    finite_results: Dict[str, SimulationResult],
    infinite_result: SimulationResult,
    workload: str,
    keys: Sequence[str] = ("SIZE", "ETIME", "ATIME", "NREF"),
) -> FigureSeries:
    """Figures 8-12: each primary key's smoothed HR as a percentage of the
    infinite-cache smoothed HR (the figures plot SIZE, ETIME, ATIME, NREF;
    the paper notes LOG2SIZE tracks SIZE and DAY(ATIME) tracks ETIME)."""
    infinite_hr = infinite_result.metrics.smoothed_hr()
    series: Dict[str, Points] = {}
    for key in keys:
        result = finite_results[key]
        ratio = ratio_series(result.metrics.smoothed_hr(), infinite_hr)
        series[key] = [(float(d), v) for d, v in ratio]
    return FigureSeries(
        figure_id={"U": "fig8", "G": "fig9", "C": "fig10",
                   "BL": "fig11", "BR": "fig12"}.get(workload, "fig8-12"),
        title=(
            f"Primary sort key performance, 10% cache size, workload "
            f"{workload}"
        ),
        xlabel="Day",
        ylabel="Percent of infinite-cache HR",
        series=series,
    )


def fig13_size_histogram(
    trace: Sequence[Request],
    bin_width: int = 512,
    max_size: int = 20000,
) -> FigureSeries:
    """Figure 13: distribution of document sizes (workload BL)."""
    points = [
        (float(start), float(count))
        for start, count in size_histogram(trace, bin_width, max_size)
    ]
    return FigureSeries(
        figure_id="fig13",
        title="Distribution of document sizes",
        xlabel="URL size in bytes",
        ylabel="No. of requests",
        series={"requests": points},
    )


def fig14_interreference(trace: Sequence[Request]) -> FigureSeries:
    """Figure 14: (size, interreference time) scatter (workload BL)."""
    points = [
        (float(size), float(gap))
        for size, gap in interreference_scatter(trace)
    ]
    return FigureSeries(
        figure_id="fig14",
        title="Size vs. time since last reference of re-referenced URLs",
        xlabel="Size (bytes)",
        ylabel="Interreference time (sec)",
        series={"references": points},
    )


def fig15_secondary_keys(
    secondary_results: Dict[str, SimulationResult],
    workload: str = "G",
) -> FigureSeries:
    """Figure 15: each secondary key's smoothed WHR as a percentage of the
    RANDOM secondary's, primary key fixed at ⌊log2(SIZE)⌋."""
    baseline = secondary_results["RANDOM"].metrics.smoothed_whr()
    series: Dict[str, Points] = {}
    for name, result in secondary_results.items():
        if name == "RANDOM":
            continue
        ratio = ratio_series(result.metrics.smoothed_whr(), baseline)
        series[name] = [(float(d), v) for d, v in ratio]
    return FigureSeries(
        figure_id="fig15",
        title=(
            f"Secondary sort key performance vs RANDOM, 10% cache, "
            f"workload {workload}"
        ),
        xlabel="Day",
        ylabel="Percent of RANDOM-secondary WHR",
        series=series,
    )


def fig16_18_second_level(
    result: TwoLevelCache, workload: str
) -> FigureSeries:
    """Figures 16-18: second-level cache HR and WHR over all requests."""
    l2 = result.l2_metrics
    return FigureSeries(
        figure_id={"BR": "fig16", "C": "fig17", "G": "fig18"}.get(
            workload, "fig16-18"
        ),
        title=f"Second-level cache performance, workload {workload}",
        xlabel="Day",
        ylabel="Percent",
        series={
            "WHR": [(float(d), v) for d, v in l2.smoothed_whr()],
            "HR": [(float(d), v) for d, v in l2.smoothed_hr()],
        },
    )


def fig19_20_partitioned(
    sweep: Dict[float, PartitionedCache],
    partition: str,
    infinite_result: SimulationResult = None,
) -> FigureSeries:
    """Figures 19-20: per-partition WHR for each audio-fraction level.

    ``partition`` is ``"audio"`` (Figure 19) or ``"non-audio"``
    (Figure 20).  When the infinite-cache result is supplied, its WHR is
    included as the reference curve the figures print on top.
    """
    series: Dict[str, Points] = {}
    for fraction in sorted(sweep):
        result = sweep[fraction]
        points = result.class_whr_series(partition)
        label = f"{partition} partition = {fraction:.2f} of cache"
        series[label] = [(float(d), v) for d, v in points]
    if infinite_result is not None:
        series["infinite cache WHR"] = [
            (float(d), v) for d, v in infinite_result.metrics.smoothed_whr()
        ]
    return FigureSeries(
        figure_id="fig19" if partition == "audio" else "fig20",
        title=f"WHR for {partition} requests, partitioned cache",
        xlabel="Day",
        ylabel="Percent",
        series=series,
    )
