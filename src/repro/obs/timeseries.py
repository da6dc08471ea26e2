"""Simulated-clock time series: periodic snapshots of a metrics registry.

The paper's Experiment 2 response variables are *time series* — HR/WHR
as 7-day moving averages over trace time — so end-of-run snapshots are
not enough.  :class:`TimeSeriesRecorder` snapshots any
:class:`~repro.obs.metrics.Registry` on a simulated-clock cadence (per
simulated day by default); each tick flattens the registry into
``(sim_day, metric, labels, value)`` samples in one canonical order.

A simulation does not tick one.  Its per-day history is stored once, in
its :class:`~repro.core.metrics.MetricsCollector` (day counters and
end-of-day occupancy), and :func:`recorder_from_collectors` builds the
recorder from that when ``result.timeseries`` is read.  The fleet's
:class:`~repro.obs.telemetry.TelemetryAggregator` is the one caller
that ticks a recorder live, once per scrape round.

Determinism: samples depend only on the simulated clock and the counter
values at each boundary — never on wall time — and a serial, a parallel
and a result-cached replay of the same job hold the same collector, so
their streams are byte-identical by construction.  The JSONL export
carries a trailing SHA-256 checksum line, making truncation detectable
(``repro obs summarize --timeseries``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.metrics import MetricsCollector, Series
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
    "recorder_from_collectors",
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
        ``force`` is set.  Re-ticking a recorded day
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
    registry (the recorder itself is ticked by the caller, once per day,
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
        """Set the occupancy gauges from a collector's day stamp."""
        self._used_bytes.set(used_bytes)
        self._documents.set(documents)


def recorder_from_collectors(
    streams: Sequence[Tuple[str, MetricsCollector]],
) -> TimeSeriesRecorder:
    """The per-day sample stream of a finished replay, as a view.

    ``streams`` is ``(stream name, collector)`` per stream.  Each
    collector's day counters are replayed in day order as running
    totals, its stamped end-of-day occupancy set beside them, and the
    recorder ticked once per recorded day — on a trace in time order,
    exactly the samples a recorder ticked live at every day boundary
    would hold (``tests/core/test_reference_loop.py`` keeps that live
    ticking as its oracle).  A day without a stamp (a stream with no
    cache, a record older than the occupancy map) leaves the gauges be.
    """
    recorder = TimeSeriesRecorder()
    running = [
        (SimStreamTicker(recorder, stream), collector, MetricsCollector())
        for stream, collector in streams
    ]
    for day in sorted(set().union(*(c.days for _, c in streams))):
        for ticker, collector, totals in running:
            stats = collector.days.get(day)
            if stats is not None:
                totals.total_requests += stats.requests
                totals.total_hits += stats.hits
                totals.total_bytes_requested += stats.bytes_requested
                totals.total_bytes_hit += stats.bytes_hit
                ticker.update(totals)
            occupancy = collector.occupancy.get(day)
            if occupancy is not None:
                ticker.set_occupancy(*occupancy)
        recorder.tick(day, force=True)
    return recorder
