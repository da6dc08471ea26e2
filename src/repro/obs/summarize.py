"""``repro obs summarize`` — render a run's artifacts as a report.

Takes any subset of the artifacts a run writes (``--events-out`` JSONL,
``--trace-out`` Chrome trace JSON, ``--metrics-out`` Prometheus text,
``--timeseries-out`` checksummed JSONL, ``fleet chaos``'s
``FLEET_report.json``) and produces a human-readable summary: event
volumes by channel and level, the hottest event types, per-phase
wall-time breakdowns from the spans, every non-zero metric sample, the
recorded time-series coverage, and the fleet's verdict line and
dashboard.

A missing, empty, or truncated artifact raises :class:`ArtifactError`
with a one-line diagnostic naming the file — the CLI turns that into a
non-zero exit instead of a traceback.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.report import render_table

__all__ = [
    "ArtifactError", "fleet_verdict", "parse_prometheus_text",
    "summarize_run",
]


class ArtifactError(ValueError):
    """An export file that cannot be summarized (missing/empty/corrupt).

    The message is a single line naming the artifact and the problem."""


def _read_artifact(path: Path, what: str) -> str:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ArtifactError(f"{what}: cannot read {path}: {error}")
    if not text.strip():
        raise ArtifactError(f"{what}: {path} is empty")
    return text

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$"
)
_LABEL_PAIR_RE = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_prometheus_text(
    text: str,
) -> List[Tuple[str, Dict[str, str], float]]:
    """Parse exposition-format text into (name, labels, value) samples."""
    samples = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            continue
        labels = {
            key: value.replace(r"\"", '"').replace(r"\n", "\n")
            .replace(r"\\", "\\")
            for key, value in _LABEL_PAIR_RE.findall(
                match.group("labels") or ""
            )
        }
        raw = match.group("value")
        value = float("inf") if raw == "+Inf" else float(raw)
        samples.append((match.group("name"), labels, value))
    return samples


def _summarize_events(path: Path) -> str:
    text = _read_artifact(path, "events")
    records: List[dict] = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except ValueError:
            raise ArtifactError(
                f"events: {path} line {number} is not valid JSON "
                f"(truncated write?)"
            )
    if not records:
        return f"events: {path} is empty"
    by_channel_level: Counter = Counter(
        (r.get("channel", "?"), r.get("level", "?")) for r in records
    )
    by_event: Counter = Counter(
        (r.get("channel", "?"), r.get("event", "?")) for r in records
    )
    parts = [render_table(
        ["channel", "level", "events"],
        [
            [channel, level, count]
            for (channel, level), count in sorted(by_channel_level.items())
        ],
        title=f"Event volume ({len(records)} events)",
    )]
    top = by_event.most_common(10)
    parts.append(render_table(
        ["channel", "event", "count"],
        [[channel, event, count] for (channel, event), count in top],
        title="Top event types",
    ))
    return "\n\n".join(parts)


def _summarize_trace(path: Path) -> str:
    text = _read_artifact(path, "trace")
    try:
        trace = json.loads(text)
    except ValueError:
        raise ArtifactError(
            f"trace: {path} is not valid JSON (truncated write?)"
        )
    if not isinstance(trace, dict):
        raise ArtifactError(f"trace: {path} is not a Chrome trace object")
    events = [
        event for event in trace.get("traceEvents", ())
        if event.get("ph") == "X"
    ]
    if not events:
        return f"trace: {path} holds no complete spans"
    phases: Dict[str, Dict[str, float]] = {}
    for event in events:
        entry = phases.setdefault(
            event["name"], {"count": 0, "total_us": 0.0, "max_us": 0.0},
        )
        entry["count"] += 1
        entry["total_us"] += event.get("dur", 0.0)
        entry["max_us"] = max(entry["max_us"], event.get("dur", 0.0))
    rows = [
        [
            name,
            int(entry["count"]),
            f"{entry['total_us'] / 1e6:.3f}",
            f"{entry['max_us'] / 1e6:.3f}",
        ]
        for name, entry in sorted(
            phases.items(), key=lambda item: -item[1]["total_us"],
        )
    ]
    pids = {event["pid"] for event in events}
    return render_table(
        ["phase", "spans", "total s", "max s"],
        rows,
        title=(
            f"Wall-time breakdown ({len(events)} spans over "
            f"{len(pids)} process(es))"
        ),
    )


def _summarize_metrics(path: Path) -> str:
    samples = parse_prometheus_text(_read_artifact(path, "metrics"))
    nonzero = [
        (name, labels, value)
        for name, labels, value in samples
        if value and not name.endswith("_bucket")
    ]
    if not nonzero:
        return f"metrics: {path} holds no non-zero samples"
    rows = [
        [
            name,
            ",".join(
                f"{k}={v}" for k, v in sorted(labels.items())
            ) or "-",
            f"{value:g}",
        ]
        for name, labels, value in nonzero
    ]
    return render_table(
        ["metric", "labels", "value"],
        rows,
        title=f"Non-zero metrics ({len(nonzero)} samples)",
    )


def _summarize_timeseries(path: Path) -> str:
    """Verify and summarize a checksummed time-series JSONL export."""
    from repro.obs.timeseries import TimeSeriesError, read_timeseries

    try:
        samples = read_timeseries(path)
    except TimeSeriesError as error:
        raise ArtifactError(f"timeseries: {error}")
    days = sorted({sample["day"] for sample in samples})
    by_series: Counter = Counter(
        (sample.get("run", "-"), sample["metric"]) for sample in samples
    )
    rows = [
        [run, metric, count]
        for (run, metric), count in sorted(by_series.items())
    ]
    span = f"days {days[0]}..{days[-1]}" if days else "no days"
    return render_table(
        ["run", "metric", "samples"],
        rows,
        title=(
            f"Recorded time series ({len(samples)} samples over "
            f"{len(days)} day(s), {span}; checksum verified)"
        ),
    )


def fleet_verdict(report: dict) -> str:
    """The fleet's one verdict line from a ``FleetReport`` payload:
    shards, restarts, shed %, availability, PASS/FAIL and the names of
    the invariants that did not hold."""
    det, meas = report["deterministic"], report["measured"]
    requests = int(det["requests"])
    shed_pct = (
        100.0 * int(meas["counts"].get("shed", 0)) / requests
        if requests else 0.0
    )
    violated = sorted(
        name for name, held in det["invariants"].items() if not held
    )
    line = (
        f"fleet: {int(det['shards'])} shard(s), "
        f"{int(meas['restarts'])} restart(s), shed {shed_pct:.1f}%, "
        f"availability {float(meas['availability_pct']):.2f}% "
        f"[{'FAIL' if violated else 'PASS'}]"
    )
    if violated:
        line += " violated: " + ", ".join(violated)
    return line


def _summarize_fleet(path: Path) -> str:
    """A ``FLEET_report.json``: the verdict line, then the telemetry
    dashboard when the report carries one."""
    from repro.obs.telemetry import render_dashboard_ascii

    text = _read_artifact(path, "fleet report")
    try:
        record = json.loads(text)
        parts = [fleet_verdict(record)]
        telemetry = record["measured"].get("telemetry")
        if telemetry:
            parts.append(render_dashboard_ascii(telemetry))
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise ArtifactError(
            f"fleet report: {path} is not a FleetReport payload ({error})"
        )
    return "\n\n".join(parts)


def summarize_run(
    events_path: Optional[Union[str, Path]] = None,
    trace_path: Optional[Union[str, Path]] = None,
    metrics_path: Optional[Union[str, Path]] = None,
    timeseries_path: Optional[Union[str, Path]] = None,
    fleet_path: Optional[Union[str, Path]] = None,
) -> str:
    """Render whichever artifacts were provided into one report.

    Raises:
        ArtifactError: any named artifact is missing, empty, or corrupt.
    """
    sections = []
    if events_path:
        sections.append(_summarize_events(Path(events_path)))
    if trace_path:
        sections.append(_summarize_trace(Path(trace_path)))
    if metrics_path:
        sections.append(_summarize_metrics(Path(metrics_path)))
    if timeseries_path:
        sections.append(_summarize_timeseries(Path(timeseries_path)))
    if fleet_path:
        sections.append(_summarize_fleet(Path(fleet_path)))
    if not sections:
        return (
            "nothing to summarize: pass --events, --trace, --metrics, "
            "--timeseries or --fleet"
        )
    return "\n\n".join(sections)
