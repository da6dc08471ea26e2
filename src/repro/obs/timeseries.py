"""Simulated-clock time series: periodic snapshots of a metrics registry.

The paper's Experiment 2 response variables are *time series* — HR/WHR
as 7-day moving averages over trace time — so end-of-run snapshots are
not enough.  :class:`TimeSeriesRecorder` snapshots any
:class:`~repro.obs.metrics.Registry` on a simulated-clock cadence (per
simulated day by default): the simulator ticks it at every day boundary
of the trace clock, and each tick flattens the registry into
``(sim_day, metric, labels, value)`` samples in one canonical order.

Determinism: samples depend only on the simulated clock and the counter
values at each boundary — never on wall time — so serial, parallel, and
result-cached replays of the same job produce byte-identical streams.
The JSONL export carries a trailing SHA-256 checksum line, making
truncation detectable (``repro obs summarize --timeseries``).

Derived views (:meth:`~TimeSeriesRecorder.smoothed`,
:meth:`~TimeSeriesRecorder.delta`, :meth:`~TimeSeriesRecorder.rate`)
turn cumulative counter series into the paper's plotted quantities; the
moving average is :func:`repro.core.metrics.moving_average` itself, so
figures driven by the recorder use the exact smoothing the analysis
layer always used.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.metrics import Series, moving_average
from repro.durability import (
    jsonl_checksum,
    read_checksummed_jsonl,
    write_checksummed_jsonl,
)
from repro.obs.metrics import Registry

__all__ = [
    "TimeSeriesRecorder",
    "TimeSeriesError",
    "SimStreamTicker",
    "hit_rate_series",
    "weighted_hit_rate_series",
    "occupancy_series",
    "read_timeseries",
    "write_timeseries",
    "merge_samples",
]

#: JSONL trailer record kind carrying the stream checksum.
CHECKSUM_KIND = "timeseries.checksum"

#: One flattened sample: (metric name, ((label, value), ...), value).
Sample = Tuple[str, Tuple[Tuple[str, str], ...], float]


class TimeSeriesError(ValueError):
    """A time-series export is missing, truncated, or corrupt."""


class TimeSeriesRecorder:
    """Snapshots a registry per simulated day into an ordered sample set.

    Args:
        registry: the registry to snapshot.  Defaults to a private one,
            so simulation streams never pollute a caller's exposition;
            pass a shared registry to sample it instead.
        cadence: minimum simulated-day gap between recorded snapshots.
            The default 1 records every ticked day; ``cadence=7`` records
            at most one snapshot per simulated week.
    """

    def __init__(
        self, registry: Optional[Registry] = None, cadence: int = 1,
    ) -> None:
        if cadence < 1:
            raise ValueError("cadence must be >= 1")
        self.registry = registry if registry is not None else Registry()
        self.cadence = cadence
        self._days: Dict[int, List[Sample]] = {}
        self._last_recorded: Optional[int] = None

    # -- recording -----------------------------------------------------------

    def tick(self, sim_day: int, force: bool = False) -> bool:
        """Snapshot the registry as of the end of ``sim_day``.

        Returns whether a snapshot was recorded: days closer than
        ``cadence`` to the last recorded one are skipped unless
        ``force`` is set (the simulator forces the final day so a trace
        always ends with a sample).  Re-ticking a recorded day
        overwrites its samples — the last snapshot of a day wins.
        """
        sim_day = int(sim_day)
        if not force and self._last_recorded is not None and (
            sim_day != self._last_recorded
            and sim_day - self._last_recorded < self.cadence
        ):
            return False
        self._days[sim_day] = self._flatten()
        if self._last_recorded is None or sim_day > self._last_recorded:
            self._last_recorded = sim_day
        return True

    def _flatten(self) -> List[Sample]:
        """The registry's current samples in one canonical order."""
        out: List[Sample] = []
        snapshot = self.registry.snapshot()
        for name in sorted(snapshot):
            entry = snapshot[name]
            if entry["kind"] == "histogram":
                continue  # distributions live in /metrics, not the stream
            for sample in sorted(
                entry["samples"],
                key=lambda s: sorted(s.get("labels", {}).items()),
            ):
                labels = tuple(sorted(sample.get("labels", {}).items()))
                out.append((name, labels, float(sample["value"])))
        return out

    # -- reading -------------------------------------------------------------

    def recorded_days(self) -> List[int]:
        """Days with a recorded snapshot, ascending."""
        return sorted(self._days)

    def __len__(self) -> int:
        return sum(len(samples) for samples in self._days.values())

    def samples(self) -> List[dict]:
        """Every sample as a plain dict, in canonical (day, metric,
        labels) order — the JSONL export's exact content."""
        out: List[dict] = []
        for day in self.recorded_days():
            for name, labels, value in self._days[day]:
                out.append({
                    "day": day,
                    "metric": name,
                    "labels": dict(labels),
                    "value": value,
                })
        return out

    def series(self, metric: str, **labels: object) -> Series:
        """One metric's ``(day, value)`` series over recorded days."""
        wanted = tuple(sorted(
            (key, str(value)) for key, value in labels.items()
        ))
        out: Series = []
        for day in self.recorded_days():
            for name, sample_labels, value in self._days[day]:
                if name == metric and sample_labels == wanted:
                    out.append((day, value))
                    break
        return out

    # -- derived views -------------------------------------------------------

    def delta(self, metric: str, **labels: object) -> Series:
        """Per-snapshot increments of a cumulative series (the first
        recorded day's delta is its value: counters start at zero)."""
        out: Series = []
        previous = 0.0
        for day, value in self.series(metric, **labels):
            out.append((day, value - previous))
            previous = value
        return out

    def rate(self, metric: str, **labels: object) -> Series:
        """Per-snapshot increments divided by the simulated-day gap
        (the first recorded point uses a gap of 1)."""
        out: Series = []
        previous: Optional[Tuple[int, float]] = None
        for day, value in self.series(metric, **labels):
            if previous is None:
                gap = 1
                increment = value
            else:
                gap = max(1, day - previous[0])
                increment = value - previous[1]
            out.append((day, increment / gap))
            previous = (day, value)
        return out

    def smoothed(
        self, metric: str, window: int = 7, **labels: object
    ) -> Series:
        """K-day moving average over recorded points, paper-style."""
        return moving_average(self.series(metric, **labels), window)

    # -- export --------------------------------------------------------------

    def checksum(self) -> str:
        """SHA-256 over the canonical JSONL body (what the trailer pins)."""
        return jsonl_checksum(self.samples())

    def write_jsonl(self, path: Union[str, Path]) -> int:
        """Write the stream as checksummed JSONL; returns the sample
        count (excluding the trailer line)."""
        return write_timeseries(self.samples(), path)


def write_timeseries(samples: List[dict], path: Union[str, Path]) -> int:
    """Write samples as JSONL with a trailing checksum record."""
    return write_checksummed_jsonl(samples, path, CHECKSUM_KIND)


def read_timeseries(path: Union[str, Path]) -> List[dict]:
    """Parse and verify a checksummed time-series JSONL export.

    Raises :class:`TimeSeriesError` (with a one-line reason) when the
    file is missing, empty, truncated, or fails its checksum — the
    failure modes ``repro obs summarize`` must diagnose, not traceback.
    """
    return read_checksummed_jsonl(path, CHECKSUM_KIND, TimeSeriesError)


def merge_samples(named: List[Tuple[str, "TimeSeriesRecorder"]]) -> List[dict]:
    """Flatten several runs' recorders into one stream, each sample
    tagged with its run name (for ``--timeseries-out`` on sweeps)."""
    out: List[dict] = []
    for run_name, recorder in named:
        for record in recorder.samples():
            tagged = dict(record)
            tagged["run"] = run_name
            out.append(tagged)
    return out


# -- the simulator-facing surface ---------------------------------------------


class SimStreamTicker:
    """Feeds one simulation stream's per-day state into a recorder's
    registry (the recorder itself is ticked by the driver, once per day,
    after every stream has updated).

    A *stream* is one ``stream=<name>`` label set over the
    ``repro_sim_ts_*`` families: ``main`` for a single cache, ``l1``/
    ``l2`` for a hierarchy, one per class for a partitioned cache.
    """

    def __init__(self, recorder: TimeSeriesRecorder, stream: str) -> None:
        from repro.obs.catalog import timeseries_metrics

        m = timeseries_metrics(recorder.registry)
        self._requests = m.requests.labels(stream=stream)
        self._hits = m.hits.labels(stream=stream)
        self._bytes = m.bytes_requested.labels(stream=stream)
        self._hit_bytes = m.bytes_hit.labels(stream=stream)
        self._used_bytes = m.used_bytes.labels(stream=stream)
        self._documents = m.documents.labels(stream=stream)
        self._seen = [0, 0, 0, 0]

    def update(self, metrics, cache=None) -> None:
        """Advance the stream's counters to a collector's current
        cumulative totals; gauges take the cache's occupancy as-is."""
        totals = (
            metrics.total_requests, metrics.total_hits,
            metrics.total_bytes_requested, metrics.total_bytes_hit,
        )
        children = (self._requests, self._hits, self._bytes, self._hit_bytes)
        for i, (child, total) in enumerate(zip(children, totals)):
            if total != self._seen[i]:
                child.inc(total - self._seen[i])
                self._seen[i] = total
        if cache is not None:
            self._used_bytes.set(cache.used_bytes)
            self._documents.set(len(cache))

    def set_occupancy(self, used_bytes: int, documents: int) -> None:
        """Directly set the occupancy gauges (record reconstruction)."""
        self._used_bytes.set(used_bytes)
        self._documents.set(documents)


def hit_rate_series(recorder: TimeSeriesRecorder, stream: str = "main") -> Series:
    """Daily HR (percent) derived from a recorded stream.

    Computes ``100 * Δhits / Δrequests`` per recorded day — the same
    integers and the same expression as
    :attr:`repro.core.metrics.DayStats.hit_rate`, so the derived series
    is byte-identical to the legacy in-analysis computation.
    """
    return _ratio_of_deltas(
        recorder,
        "repro_sim_ts_hits_total", "repro_sim_ts_requests_total",
        stream,
    )


def weighted_hit_rate_series(
    recorder: TimeSeriesRecorder, stream: str = "main"
) -> Series:
    """Daily WHR (percent) derived from a recorded stream (same math as
    :attr:`repro.core.metrics.DayStats.weighted_hit_rate`)."""
    return _ratio_of_deltas(
        recorder,
        "repro_sim_ts_bytes_hit_total", "repro_sim_ts_bytes_requested_total",
        stream,
    )


def _ratio_of_deltas(
    recorder: TimeSeriesRecorder,
    numerator_metric: str,
    denominator_metric: str,
    stream: str,
) -> Series:
    numerator = recorder.delta(numerator_metric, stream=stream)
    denominator = dict(recorder.delta(denominator_metric, stream=stream))
    out: Series = []
    for day, hit_delta in numerator:
        request_delta = int(denominator.get(day, 0.0))
        hit_delta = int(hit_delta)
        if request_delta:
            out.append((day, 100.0 * hit_delta / request_delta))
        else:
            out.append((day, 0.0))
    return out


def occupancy_series(
    recorder: TimeSeriesRecorder, stream: str = "main"
) -> Series:
    """End-of-day cache occupancy in bytes (Kesidis's occupancy-vs-time
    view; constant-at-max for an infinite cache once warmed)."""
    return recorder.series("repro_sim_ts_used_bytes", stream=stream)
