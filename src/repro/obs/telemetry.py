"""The fleet telemetry plane: span trees, rollups, SLO alerts.

Three layers (DESIGN.md §13), all dependency-free:

1. **Cross-process span trees** — the router, shard and origin carry a
   W3C-traceparent-style ``X-Trace-Context`` header
   (:class:`~repro.obs.tracing.TraceContext`, beside the
   :class:`~repro.obs.tracing.Tracer` so a live tier loads neither this
   module nor the aggregator's), and :func:`assemble_span_tree` joins
   the spans the three processes record into one tree.

2. **Rollup aggregation** — :class:`TelemetryAggregator` scrapes every
   shard's ``/metrics`` exposition on the supervisor's health cadence,
   reconstructs registry snapshots from the text
   (:func:`snapshot_from_exposition`), merges them into one fresh
   registry per round, and derives fleet-level ``repro_fleet_*``
   rollups: HR/WHR, per-shard occupancy, p50/p95/p99 request latency,
   degraded seconds.  Each round ticks a
   :class:`~repro.obs.timeseries.TimeSeriesRecorder`, so the fleet gets
   the same per-tick streams simulations already have.

3. **SLO engine** — declarative :class:`SLOSpec` objects (availability,
   p95 latency, hit-ratio floor) evaluated over the rollup stream with
   Google-SRE-style multi-window burn-rate alerts
   (:class:`BurnWindow`): an alert fires only when *both* the long and
   the short window burn above the threshold, so a brief blip cannot
   page and a slow leak cannot hide.

Determinism: trace/span ids and alert timings are measured quantities
and stay out of every ``deterministic`` report section; the SLO
*configuration* (:func:`slo_config`) is pure data and byte-stable.
"""

from __future__ import annotations

import threading
import time as _time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import Obs
from repro.obs.catalog import fleet_metrics, telemetry_metrics
from repro.obs.metrics import Registry, histogram_quantile
from repro.obs.summarize import parse_prometheus_text
from repro.obs.timeseries import TimeSeriesRecorder

__all__ = [
    "assemble_span_tree",
    "snapshot_from_exposition",
    "SLOSpec",
    "BurnWindow",
    "SLOEngine",
    "default_slo_specs",
    "DEFAULT_BURN_WINDOWS",
    "slo_config",
    "TelemetryAggregator",
    "render_dashboard_ascii",
]

def assemble_span_tree(spans: Sequence[dict], trace_id: str) -> List[dict]:
    """Assemble spans from any number of processes into one tree.

    Spans participate when their ``args`` carry the propagation triple
    (``trace_id``, ``ctx``, ``parent_ctx``) the instrumented tiers
    record.  Parent/child linking uses the *propagated* context ids —
    never the tracer-local span ids, which are re-keyed by
    :meth:`~repro.obs.tracing.Tracer.absorb`.

    Returns the list of root nodes (``parent_ctx`` absent, ``None``, or
    unknown), each ``{"name", "ctx", "parent_ctx", "pid", "args",
    "events", "children"}`` with children sorted by (name, ctx) so the
    tree is deterministic regardless of collection order.
    """
    nodes: List[dict] = []
    by_ctx: Dict[str, dict] = {}
    for span in spans:
        args = span.get("args", {})
        if args.get("trace_id") != trace_id or not args.get("ctx"):
            continue
        node = {
            "name": span.get("name"),
            "ctx": args["ctx"],
            "parent_ctx": args.get("parent_ctx"),
            "pid": span.get("pid"),
            "args": {
                key: value for key, value in args.items()
                if key not in ("trace_id", "ctx", "parent_ctx")
            },
            "events": [
                {k: v for k, v in event.items() if k != "ts"}
                for event in span.get("events", ())
            ],
            "children": [],
        }
        nodes.append(node)
        by_ctx.setdefault(node["ctx"], node)
    roots: List[dict] = []
    for node in nodes:
        parent = (
            by_ctx.get(node["parent_ctx"])
            if node["parent_ctx"] is not None else None
        )
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent["children"].append(node)
    for node in nodes:
        node["children"].sort(key=lambda n: (n["name"] or "", n["ctx"]))
    roots.sort(key=lambda n: (n["name"] or "", n["ctx"]))
    return roots


# -- exposition -> snapshot -----------------------------------------------------------


def snapshot_from_exposition(text: str) -> Dict[str, dict]:
    """Reconstruct a :meth:`~repro.obs.metrics.Registry.snapshot`-shaped
    dict from Prometheus text exposition.

    The inverse of :func:`~repro.obs.metrics.render_prometheus` for the
    output this codebase produces: counters and gauges round-trip
    exactly; histograms are de-cumulated back into per-bucket counts.
    Families with no data samples are skipped — an empty labelled family
    exposes no label names, and registering it bare would collide with
    the labelled declaration on merge.
    """
    kinds: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) == 4:
                kinds[parts[2]] = parts[3]
        elif line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) >= 3:
                helps[parts[2]] = parts[3] if len(parts) == 4 else ""

    scalars: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    # histogram name -> {group key: {"buckets": {le: cum}, "sum", "count"}}
    histograms: Dict[str, Dict[Tuple, dict]] = {}
    for name, labels, value in parse_prometheus_text(text):
        if name in kinds:
            scalars.setdefault(name, []).append((labels, value))
            continue
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and kinds.get(base) == "histogram":
                bare = {k: v for k, v in labels.items() if k != "le"}
                key = tuple(sorted(bare.items()))
                group = histograms.setdefault(base, {}).setdefault(
                    key, {"labels": bare, "buckets": {}, "sum": 0.0,
                          "count": 0},
                )
                if suffix == "_bucket":
                    le = labels.get("le", "")
                    edge = float("inf") if le == "+Inf" else float(le)
                    group["buckets"][edge] = int(value)
                elif suffix == "_sum":
                    group["sum"] = value
                else:
                    group["count"] = int(value)
                break

    out: Dict[str, dict] = {}
    for name, samples in sorted(scalars.items()):
        labelnames = sorted(samples[0][0])
        out[name] = {
            "kind": kinds[name],
            "help": helps.get(name, ""),
            "labelnames": labelnames,
            "samples": [
                {"labels": labels, "value": value}
                for labels, value in samples
            ],
        }
    for name, groups in sorted(histograms.items()):
        first = next(iter(groups.values()))
        edges = sorted(e for e in first["buckets"] if e != float("inf"))
        entry = {
            "kind": "histogram",
            "help": helps.get(name, ""),
            "labelnames": sorted(first["labels"]),
            "buckets_le": edges,
            "samples": [],
        }
        for _, group in sorted(groups.items()):
            cumulative = group["buckets"]
            counts: List[int] = []
            previous = 0
            for edge in edges:
                running = cumulative.get(edge, previous)
                counts.append(running - previous)
                previous = running
            entry["samples"].append({
                "labels": group["labels"],
                "bucket_counts": counts,
                "inf_count": max(0, group["count"] - previous),
                "sum": group["sum"],
                "count": group["count"],
            })
        out[name] = entry
    return out


# -- SLO engine -----------------------------------------------------------------------


@dataclass(frozen=True)
class SLOSpec:
    """One service-level objective over the rollup stream.

    ``target`` is the good-event fraction the objective promises
    (0.99 = "99% of requests are good").  ``kind`` selects how the
    aggregator derives (good, total) per tick:

    * ``availability`` — good = routed requests, total = routed + shed
      + failed (router outcome counters);
    * ``latency`` — good = requests at or under ``threshold_s``
      (cumulative fleet latency-histogram count at the threshold edge);
    * ``hit_ratio`` — good = requests served from shard caches, total =
      all shard requests (the paper's HR as a floor objective).
    """

    name: str
    kind: str
    target: float
    threshold_s: Optional[float] = None
    description: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "threshold_s": self.threshold_s,
            "description": self.description,
        }


@dataclass(frozen=True)
class BurnWindow:
    """One multi-window burn-rate alerting rule.

    Burn rate = (bad fraction over the window) / (1 - target): 1.0
    burns the error budget exactly at quota, 14.4 exhausts a 30-day
    budget in ~2 days.  The alert condition requires *both* windows
    (``long_ticks`` and ``short_ticks`` aggregator rounds) above
    ``threshold`` — the long window filters noise, the short window
    makes the alert reset quickly once the burn stops.
    """

    name: str
    long_ticks: int
    short_ticks: int
    threshold: float
    severity: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "long_ticks": self.long_ticks,
            "short_ticks": self.short_ticks,
            "threshold": self.threshold,
            "severity": self.severity,
        }


#: The classic fast-page / slow-ticket pair, in aggregator ticks.
DEFAULT_BURN_WINDOWS: Tuple[BurnWindow, ...] = (
    BurnWindow(
        name="fast", long_ticks=8, short_ticks=2,
        threshold=14.4, severity="page",
    ),
    BurnWindow(
        name="slow", long_ticks=32, short_ticks=8,
        threshold=6.0, severity="ticket",
    ),
)


def default_slo_specs() -> Tuple[SLOSpec, ...]:
    """The fleet's stock objectives."""
    return (
        SLOSpec(
            name="availability", kind="availability", target=0.99,
            description="99% of fleet requests are routed "
                        "(not shed, not failed)",
        ),
        SLOSpec(
            name="latency_p95", kind="latency", target=0.95,
            threshold_s=2.5,
            description="95% of fleet requests finish within 2.5s",
        ),
        SLOSpec(
            name="hit_ratio_floor", kind="hit_ratio", target=0.20,
            description="at least 20% of shard requests are served "
                        "from cache",
        ),
    )


def slo_config(
    specs: Sequence[SLOSpec],
    windows: Sequence[BurnWindow] = DEFAULT_BURN_WINDOWS,
) -> dict:
    """The SLO configuration as pure data — the byte-stable blob chaos
    reports embed in their ``deterministic`` section."""
    return {
        "specs": [spec.to_dict() for spec in specs],
        "windows": [window.to_dict() for window in windows],
    }


class SLOEngine:
    """Evaluates burn-rate alerts over per-tick (good, total) streams.

    Feed one :meth:`observe` per SLO per aggregator round, then call
    :meth:`evaluate`.  Alerts are edge-triggered: an ``slo.burn`` event
    and a ``repro_fleet_slo_alerts_total`` increment fire when a
    (spec, window) pair crosses into alerting, and an ``slo.recovered``
    event when it crosses back.
    """

    def __init__(
        self,
        specs: Sequence[SLOSpec] = (),
        windows: Sequence[BurnWindow] = DEFAULT_BURN_WINDOWS,
        obs: Optional[Obs] = None,
    ) -> None:
        self.specs: Tuple[SLOSpec, ...] = (
            tuple(specs) if specs else default_slo_specs()
        )
        self.windows: Tuple[BurnWindow, ...] = tuple(windows)
        self.obs = obs if obs is not None else Obs.private()
        self.m = telemetry_metrics(self.obs.registry)
        self._channel = self.obs.channel("slo")
        self._lock = threading.Lock()
        depth = max(
            (w.long_ticks for w in self.windows), default=1,
        )
        self._ticks: Dict[str, deque] = {
            spec.name: deque(maxlen=depth) for spec in self.specs
        }
        self._active: Dict[Tuple[str, str], bool] = {}

    def observe(self, name: str, good: float, total: float) -> None:
        """Record one tick's (good, total) deltas for one SLO."""
        with self._lock:
            ticks = self._ticks.get(name)
            if ticks is not None:
                ticks.append((max(0.0, good), max(0.0, total)))

    def burn_rate(self, spec: SLOSpec, ticks: int) -> float:
        """Burn over the last ``ticks`` observations (0.0 with no data)."""
        with self._lock:
            window = list(self._ticks[spec.name])[-ticks:]
        total = sum(t for _, t in window)
        if total <= 0:
            return 0.0
        bad = sum(max(0.0, t - g) for g, t in window)
        budget = 1.0 - spec.target
        if budget <= 0:
            return float("inf") if bad else 0.0
        return (bad / total) / budget

    def evaluate(self) -> List[dict]:
        """One evaluation pass: update burn gauges, fire edge-triggered
        alerts, and return the currently-firing alert list."""
        alerts: List[dict] = []
        for spec in self.specs:
            for window in self.windows:
                long_burn = self.burn_rate(spec, window.long_ticks)
                short_burn = self.burn_rate(spec, window.short_ticks)
                self.m.slo_burn_rate.labels(
                    slo=spec.name, window=window.name,
                ).set(long_burn)
                firing = (
                    long_burn >= window.threshold
                    and short_burn >= window.threshold
                )
                key = (spec.name, window.name)
                was_firing = self._active.get(key, False)
                if firing and not was_firing:
                    self.m.slo_alerts.labels(
                        slo=spec.name, severity=window.severity,
                    ).inc()
                    self._channel.warning(
                        "slo.burn", slo=spec.name, window=window.name,
                        severity=window.severity,
                        burn_long=round(long_burn, 3),
                        burn_short=round(short_burn, 3),
                        threshold=window.threshold,
                    )
                elif was_firing and not firing:
                    self._channel.info(
                        "slo.recovered", slo=spec.name, window=window.name,
                    )
                self._active[key] = firing
                if firing:
                    alerts.append({
                        "slo": spec.name,
                        "window": window.name,
                        "severity": window.severity,
                        "burn_rate_long": round(long_burn, 4),
                        "burn_rate_short": round(short_burn, 4),
                        "threshold": window.threshold,
                    })
        return alerts

    def status(self) -> dict:
        """Per-SLO burn rates and the firing set, for telemetry docs."""
        objectives = []
        for spec in self.specs:
            entry = dict(spec.to_dict())
            entry["burn_rates"] = {
                window.name: round(
                    self.burn_rate(spec, window.long_ticks), 4,
                )
                for window in self.windows
            }
            objectives.append(entry)
        return {
            "objectives": objectives,
            "alerts": [
                {"slo": slo, "window": window}
                for (slo, window), firing in sorted(self._active.items())
                if firing
            ],
        }


# -- the rollup aggregator ------------------------------------------------------------


@dataclass
class _ShardTelemetry:
    """The aggregator's per-shard scrape state."""

    snapshot: Optional[dict] = None
    last_success: Optional[float] = None
    failures: int = 0
    occupancy: float = 0.0
    degraded_seconds: Dict[str, float] = field(default_factory=dict)


def _default_fetch(address: Tuple[str, int], timeout: float) -> str:
    from repro.httpnet.client import fetch as _fetch
    from repro.proxy.server import METRICS_PATH

    response = _fetch(address, METRICS_PATH, timeout=timeout)
    if response.status != 200:
        raise OSError(f"scrape answered {response.status}")
    return response.body.decode("utf-8")


#: A shard is reported stale after this many consecutive scrape failures.
STALE_AFTER_FAILURES = 3


class TelemetryAggregator:
    """Scrapes the fleet and derives the ``repro_fleet_*`` rollups.

    Args:
        supervisor: the shard directory — anything with ``ids()`` and
            ``address_of(shard_id)`` (the
            :class:`~repro.proxy.fleet.FleetSupervisor`, or a
            :class:`~repro.proxy.router.StaticDirectory` in tests).
        obs: the observability context *shared with the router and
            supervisor* — rollup gauges land on its registry and the
            recorder samples it, so router-side families (request
            latency, outcome counters) are visible to the SLO engine.
        interval: scrape cadence in seconds; defaults to the
            supervisor's ``health_interval`` (0.5s when absent).
        specs, windows: SLO configuration (defaults to
            :func:`default_slo_specs` / :data:`DEFAULT_BURN_WINDOWS`).
        clock: monotonic time source, injectable for tests.
        fetch: ``(address, timeout) -> exposition text``, injectable for
            socket-free tests.

    A failed scrape keeps the shard's last good snapshot in the rollup
    (its counters are cumulative; dropping them would make fleet totals
    go backwards) and counts toward its staleness report — so a stale
    shard is distinguishable from a dead one on ``/fleet/telemetry``.
    """

    def __init__(
        self,
        supervisor,
        obs: Optional[Obs] = None,
        interval: Optional[float] = None,
        specs: Sequence[SLOSpec] = (),
        windows: Sequence[BurnWindow] = DEFAULT_BURN_WINDOWS,
        scrape_timeout: float = 1.0,
        clock: Callable[[], float] = _time.monotonic,
        fetch: Optional[Callable[[Tuple[str, int], float], str]] = None,
    ) -> None:
        self.supervisor = supervisor
        self.obs = obs if obs is not None else Obs.private()
        self.m = telemetry_metrics(self.obs.registry)
        self.fleet_m = fleet_metrics(self.obs.registry)
        self.slo = SLOEngine(specs, windows, obs=self.obs)
        self.recorder = TimeSeriesRecorder(self.obs.registry)
        self.interval = (
            interval if interval is not None
            else getattr(supervisor, "health_interval", 0.5)
        )
        self.scrape_timeout = scrape_timeout
        self._clock = clock
        self._fetch = fetch if fetch is not None else _default_fetch
        self._channel = self.obs.channel("telemetry")
        self._lock = threading.Lock()
        self._shards: Dict[int, _ShardTelemetry] = {}
        self._rounds = 0
        self._fleet: Dict[str, object] = {}
        self._prev_slo: Dict[str, Tuple[float, float]] = {}
        self._running = False
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "TelemetryAggregator":
        self._running = True
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._running = False
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def _loop(self) -> None:
        while self._running:
            try:
                self.scrape_once()
            except Exception as error:  # pragma: no cover - defensive
                self._channel.error("scrape.crashed", error=str(error))
            _time.sleep(self.interval)

    # -- scraping ----------------------------------------------------------------

    def _scrape_shard(self, shard_id: int) -> None:
        state = self._shards.setdefault(shard_id, _ShardTelemetry())
        address = self.supervisor.address_of(shard_id)
        if address is None:
            state.failures += 1
            self.m.scrapes.labels(outcome="unreachable").inc()
            return
        try:
            text = self._fetch(address, self.scrape_timeout)
            snapshot = snapshot_from_exposition(text)
        except (OSError, ValueError) as error:
            state.failures += 1
            self.m.scrapes.labels(outcome="error").inc()
            if state.failures == STALE_AFTER_FAILURES:
                self._channel.warning(
                    "scrape.stale", shard=shard_id, error=str(error),
                )
            return
        state.snapshot = snapshot
        state.last_success = self._clock()
        state.failures = 0
        self.m.scrapes.labels(outcome="ok").inc()
        occupancy = snapshot.get("repro_proxy_store_occupancy_ratio", {})
        for sample in occupancy.get("samples", ()):
            state.occupancy = float(sample["value"])
        degraded = snapshot.get("repro_proxy_degraded_seconds_total", {})
        state.degraded_seconds = {
            sample["labels"].get("mode", "?"): float(sample["value"])
            for sample in degraded.get("samples", ())
        }

    @staticmethod
    def _merged_value(merged: Registry, name: str, **labels) -> float:
        try:
            return merged.value(name, **labels)
        except KeyError:
            return 0.0

    def scrape_once(self) -> dict:
        """One full aggregation round; returns the fleet rollup dict."""
        with self._lock:
            for shard_id in self.supervisor.ids():
                self._scrape_shard(shard_id)

            # A *fresh* registry per round: shard counters are cumulative,
            # so re-merging into a persistent one would double-count.
            merged = Registry()
            for state in self._shards.values():
                if state.snapshot is not None:
                    merged.merge(state.snapshot)

            requests = self._merged_value(
                merged, "repro_proxy_requests_total",
            )
            cache_served = (
                self._merged_value(merged, "repro_proxy_hits_total")
                + self._merged_value(
                    merged, "repro_proxy_revalidation_hits_total",
                )
                + self._merged_value(
                    merged, "repro_proxy_stale_served_total",
                )
            )
            from_cache = self._merged_value(
                merged, "repro_proxy_bytes_from_cache_total",
            )
            from_origin = self._merged_value(
                merged, "repro_proxy_bytes_from_origin_total",
            )
            hit_ratio = 100.0 * cache_served / requests if requests else 0.0
            weighted = (
                100.0 * from_cache / (from_cache + from_origin)
                if (from_cache + from_origin) else 0.0
            )
            self.m.hit_ratio.set(hit_ratio)
            self.m.weighted_hit_ratio.set(weighted)

            degraded_totals: Dict[str, float] = {}
            for state in self._shards.values():
                for mode, seconds in state.degraded_seconds.items():
                    degraded_totals[mode] = (
                        degraded_totals.get(mode, 0.0) + seconds
                    )
            for mode, seconds in sorted(degraded_totals.items()):
                self.m.shard_degraded_seconds.labels(mode=mode).set(seconds)

            now = self._clock()
            for shard_id, state in sorted(self._shards.items()):
                self.m.shard_occupancy.labels(shard=str(shard_id)).set(
                    state.occupancy,
                )
                staleness = (
                    now - state.last_success
                    if state.last_success is not None else -1.0
                )
                self.m.scrape_staleness.labels(shard=str(shard_id)).set(
                    staleness,
                )
                self.m.scrape_failures.labels(shard=str(shard_id)).set(
                    state.failures,
                )

            # One read of the router-observed request latency a round:
            # the quantile gauges and every latency SLO derive from it.
            family = self.fleet_m.request_seconds
            [(_, latency)] = family.samples()
            counts, observed = list(latency.counts), latency.count
            quantiles = {
                f"p{int(q * 100)}": histogram_quantile(
                    q, family.buckets, counts, latency.inf_count,
                )
                for q in (0.50, 0.95, 0.99)
            }
            for quantile, seconds in sorted(quantiles.items()):
                self.m.latency_quantile.labels(quantile=quantile).set(
                    seconds,
                )

            self._feed_slo(
                requests, cache_served, family.buckets, counts, observed,
            )
            alerts = self.slo.evaluate()

            self._rounds += 1
            self.m.rounds.inc()
            self.recorder.tick(self._rounds, force=True)

            self._fleet = {
                "requests": requests,
                "hit_ratio_pct": round(hit_ratio, 4),
                "weighted_hit_ratio_pct": round(weighted, 4),
                "latency": {
                    f"{q}_s": round(v, 6)
                    for q, v in sorted(quantiles.items())
                },
                "degraded_seconds": {
                    mode: round(seconds, 4)
                    for mode, seconds in sorted(degraded_totals.items())
                },
                "alerts": alerts,
            }
            return dict(self._fleet)

    def _feed_slo(
        self, requests: float, cache_served: float,
        edges: Sequence[float], latency_counts: List[int], observed: int,
    ) -> None:
        """Convert cumulative counters into per-tick (good, total) deltas
        and feed them to the SLO engine.  A latency SLO's good requests
        are the histogram's cumulative count at the first bucket edge at
        or over its threshold."""
        registry = self.obs.registry
        routed = registry.value("repro_fleet_requests_total", outcome="routed")
        shed = registry.value("repro_fleet_requests_total", outcome="shed")
        failed = registry.value("repro_fleet_requests_total", outcome="failed")
        cumulative: Dict[str, Tuple[float, float]] = {}
        for spec in self.slo.specs:
            if spec.kind == "availability":
                cumulative[spec.name] = (routed, routed + shed + failed)
            elif spec.kind == "latency":
                threshold = spec.threshold_s or 0.0
                good = 0
                for edge, count in zip(edges, latency_counts):
                    good += count
                    if edge >= threshold:
                        break
                cumulative[spec.name] = (float(good), float(observed))
            elif spec.kind == "hit_ratio":
                cumulative[spec.name] = (cache_served, requests)
        for name, (good, total) in cumulative.items():
            prev_good, prev_total = self._prev_slo.get(name, (0.0, 0.0))
            self.slo.observe(name, good - prev_good, total - prev_total)
            self._prev_slo[name] = (good, total)

    # -- the telemetry document ----------------------------------------------------

    def telemetry(self) -> dict:
        """The JSON document served at ``/fleet/telemetry``."""
        with self._lock:
            now = self._clock()
            shards = {}
            for shard_id, state in sorted(self._shards.items()):
                age = (
                    round(now - state.last_success, 4)
                    if state.last_success is not None else None
                )
                shards[str(shard_id)] = {
                    "occupancy_ratio": round(state.occupancy, 6),
                    "last_scrape_age_s": age,
                    "consecutive_scrape_failures": state.failures,
                    "stale": (
                        state.failures >= STALE_AFTER_FAILURES
                        or state.last_success is None
                    ),
                }
            return {
                "rounds": self._rounds,
                "fleet": dict(self._fleet),
                "shards": shards,
                "slo": self.slo.status(),
            }


# -- dashboard rendering --------------------------------------------------------------


def render_dashboard_ascii(doc: dict) -> str:
    """The telemetry document as ASCII tables: the fleet's one dashboard
    (``fleet telemetry``, ``obs summarize --fleet``)."""
    from repro.analysis.report import render_table

    fleet = doc.get("fleet", {})
    latency = fleet.get("latency", {})
    parts = [render_table(
        ["measure", "value"],
        [
            ["scrape rounds", doc.get("rounds", 0)],
            ["shard requests", int(fleet.get("requests", 0))],
            ["hit ratio %", f"{fleet.get('hit_ratio_pct', 0.0):.2f}"],
            ["weighted hit ratio %",
             f"{fleet.get('weighted_hit_ratio_pct', 0.0):.2f}"],
            ["latency p50 s", f"{latency.get('p50_s', 0.0):.4f}"],
            ["latency p95 s", f"{latency.get('p95_s', 0.0):.4f}"],
            ["latency p99 s", f"{latency.get('p99_s', 0.0):.4f}"],
        ],
        title="Fleet rollup",
    )]
    shard_rows = [
        [
            shard_id,
            f"{entry.get('occupancy_ratio', 0.0):.3f}",
            (
                f"{entry['last_scrape_age_s']:.2f}"
                if entry.get("last_scrape_age_s") is not None else "never"
            ),
            entry.get("consecutive_scrape_failures", 0),
            "STALE" if entry.get("stale") else "fresh",
        ]
        for shard_id, entry in sorted(doc.get("shards", {}).items())
    ]
    if shard_rows:
        parts.append(render_table(
            ["shard", "occupancy", "scrape age s", "failures", "freshness"],
            shard_rows, title="Shards",
        ))
    slo_rows = [
        [
            objective.get("name", "?"),
            objective.get("kind", "?"),
            f"{objective.get('target', 0.0):.2f}",
            ", ".join(
                f"{window}={burn:.2f}"
                for window, burn in sorted(
                    objective.get("burn_rates", {}).items(),
                )
            ) or "-",
        ]
        for objective in doc.get("slo", {}).get("objectives", ())
    ]
    if slo_rows:
        parts.append(render_table(
            ["slo", "kind", "target", "burn rates"],
            slo_rows, title="Objectives",
        ))
    alerts = fleet.get("alerts", ())
    if alerts:
        parts.append("FIRING: " + ", ".join(
            f"{a['slo']}/{a['window']} ({a['severity']})" for a in alerts
        ))
    return "\n\n".join(parts)
