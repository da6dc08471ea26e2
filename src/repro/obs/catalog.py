"""The catalog: every metric the codebase exposes, declared in one place.

Each ``*_metrics`` function registers (idempotently) one subsystem's
metric families on a registry and returns them as a namespace, so call
sites write ``m.hits.inc()`` instead of repeating name strings.  Because
registration is centralised here, ``repro obs check`` can build the
canonical registry by applying :data:`ALL_METRIC_SETS` and then verify
that (a) no two declarations collide, (b) every name follows the
``repro_<subsystem>_<name>`` convention, and (c) no metric-name literal
anywhere else in the source tree bypasses the catalog.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.obs.metrics import Registry

__all__ = [
    "sim_metrics",
    "phase_metrics",
    "timeseries_metrics",
    "sweep_metrics",
    "proxy_metrics",
    "fleet_metrics",
    "chaos_metrics",
    "mrc_metrics",
    "trace_metrics",
    "telemetry_metrics",
    "ALL_METRIC_SETS",
]

#: Wall-time buckets for simulation/sweep jobs (seconds): jobs range
#: from milliseconds (tiny test grids) to minutes (full-scale traces).
JOB_SECONDS_BUCKETS = (
    0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0,
)

#: Origin-fetch latency buckets (seconds), shaped for LAN origins with
#: retry/backoff tails.
FETCH_SECONDS_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 15.0,
)

#: Per-access phase buckets (seconds): one cache access phase is
#: sub-microsecond to a few milliseconds (a large eviction cascade).
PHASE_SECONDS_BUCKETS = (
    1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
    1e-4, 1e-3, 1e-2, 0.1,
)


def sim_metrics(registry: Registry) -> SimpleNamespace:
    """Trace-driven simulator metrics (``repro_sim_*``)."""
    return SimpleNamespace(
        requests=registry.counter(
            "repro_sim_requests_total",
            "Simulated cache accesses by outcome",
            labelnames=("outcome",),
        ),
        hits=registry.counter(
            "repro_sim_hits_total", "Simulated cache hits",
        ),
        evictions=registry.counter(
            "repro_sim_evictions_total",
            "Documents removed on demand by the removal policy",
        ),
        evicted_bytes=registry.counter(
            "repro_sim_evicted_bytes_total",
            "Bytes removed on demand by the removal policy",
        ),
        replays=registry.counter(
            "repro_sim_replays_total", "Completed trace replays",
        ),
        replay_seconds=registry.histogram(
            "repro_sim_replay_seconds",
            "Wall time of one trace replay",
            buckets=JOB_SECONDS_BUCKETS,
        ),
    )


def phase_metrics(registry: Registry) -> SimpleNamespace:
    """Per-access phase timing (``repro_sim_phase_seconds``).

    Recorded by the cache access path when a phase timer is attached
    (profiled replays, the live proxy store): one histogram per
    (policy, phase) where the phases are ``lookup`` (entry probe + hit
    bookkeeping), ``evict`` (making room in removal order) and ``admit``
    (entry construction and index insertion).
    """
    return SimpleNamespace(
        sim_phase_seconds=registry.histogram(
            "repro_sim_phase_seconds",
            "Wall time of one cache-access phase, per removal policy",
            labelnames=("policy", "phase"),
            buckets=PHASE_SECONDS_BUCKETS,
        ),
    )


def timeseries_metrics(registry: Registry) -> SimpleNamespace:
    """Simulated-clock stream families (``repro_sim_ts_*``).

    Sampled per simulated day by a
    :class:`~repro.obs.timeseries.TimeSeriesRecorder`; the ``stream``
    label distinguishes the caches of one simulation (``main``, ``l1``,
    ``l2``, partition class names).  Counters are cumulative over the
    trace; a day's own counts are the collector's ``days``.
    """
    return SimpleNamespace(
        requests=registry.counter(
            "repro_sim_ts_requests_total",
            "Valid requests replayed, cumulative at each sampled day",
            labelnames=("stream",),
        ),
        hits=registry.counter(
            "repro_sim_ts_hits_total",
            "Cache hits, cumulative at each sampled day",
            labelnames=("stream",),
        ),
        bytes_requested=registry.counter(
            "repro_sim_ts_bytes_requested_total",
            "Bytes requested, cumulative at each sampled day",
            labelnames=("stream",),
        ),
        bytes_hit=registry.counter(
            "repro_sim_ts_bytes_hit_total",
            "Bytes served from cache, cumulative at each sampled day",
            labelnames=("stream",),
        ),
        used_bytes=registry.gauge(
            "repro_sim_ts_used_bytes",
            "Cache occupancy in bytes at the end of each sampled day",
            labelnames=("stream",),
        ),
        documents=registry.gauge(
            "repro_sim_ts_documents",
            "Documents cached at the end of each sampled day",
            labelnames=("stream",),
        ),
    )


def sweep_metrics(registry: Registry) -> SimpleNamespace:
    """Sweep-engine metrics (``repro_sweep_*``)."""
    return SimpleNamespace(
        jobs=registry.counter(
            "repro_sweep_jobs_total",
            "Grid cells finished, by source (computed vs result cache)",
            labelnames=("source",),
        ),
        resumed=registry.counter(
            "repro_sweep_resumed_jobs_total",
            "Jobs restored from a checkpoint journal instead of recomputed",
        ),
        retried=registry.counter(
            "repro_sweep_retried_jobs_total",
            "Job executions re-attempted after a worker crash or failure",
        ),
        recovered=registry.counter(
            "repro_sweep_recovered_jobs_total",
            "Jobs that completed after at least one failure",
        ),
        pool_restarts=registry.counter(
            "repro_sweep_pool_restarts_total",
            "Process-pool rebuilds after worker death",
        ),
        fallback=registry.counter(
            "repro_sweep_fallback_jobs_total",
            "Jobs finished on the in-process fallback path",
        ),
        job_seconds=registry.histogram(
            "repro_sweep_job_seconds",
            "Wall time of one computed grid cell",
            buckets=JOB_SECONDS_BUCKETS,
        ),
        result_cache=registry.counter(
            "repro_sweep_result_cache_total",
            "On-disk result cache operations",
            labelnames=("event",),
        ),
    )


def proxy_metrics(registry: Registry) -> SimpleNamespace:
    """Live caching-proxy metrics (``repro_proxy_*``)."""
    return SimpleNamespace(
        requests=registry.counter(
            "repro_proxy_requests_total", "Client requests handled",
        ),
        hits=registry.counter(
            "repro_proxy_hits_total", "Fresh cached copies served",
        ),
        revalidations=registry.counter(
            "repro_proxy_revalidations_total",
            "Conditional GETs sent for stale copies",
        ),
        revalidation_hits=registry.counter(
            "repro_proxy_revalidation_hits_total",
            "Revalidations answered 304 (copy confirmed, a hit)",
        ),
        misses=registry.counter(
            "repro_proxy_misses_total", "Requests served from the origin",
        ),
        errors=registry.counter(
            "repro_proxy_errors_total",
            "Requests that failed (client or origin side)",
        ),
        bytes_from_cache=registry.counter(
            "repro_proxy_bytes_from_cache_total",
            "Body bytes served from the store",
        ),
        bytes_from_origin=registry.counter(
            "repro_proxy_bytes_from_origin_total",
            "Body bytes fetched and cached from origins",
        ),
        retries=registry.counter(
            "repro_proxy_retries_total",
            "Origin fetch attempts retried after a transient failure",
        ),
        stale_served=registry.counter(
            "repro_proxy_stale_served_total",
            "Cached copies served because revalidation/refetch failed",
        ),
        breaker_open=registry.counter(
            "repro_proxy_breaker_open_total",
            "Requests failed fast by an open circuit breaker",
        ),
        breaker_transitions=registry.counter(
            "repro_proxy_breaker_transitions_total",
            "Circuit-breaker state transitions, by new state",
            labelnames=("state",),
        ),
        origin_fetch_seconds=registry.histogram(
            "repro_proxy_origin_fetch_seconds",
            "Origin fetch wall time including retries and backoff",
            buckets=FETCH_SECONDS_BUCKETS,
        ),
        store_used_bytes=registry.gauge(
            "repro_proxy_store_used_bytes",
            "Bytes currently held by the document store",
        ),
        store_documents=registry.gauge(
            "repro_proxy_store_documents",
            "Documents currently held by the store",
        ),
        store_max_used_bytes=registry.gauge(
            "repro_proxy_store_max_used_bytes",
            "High-water mark of store occupancy since startup",
        ),
        store_occupancy_ratio=registry.gauge(
            "repro_proxy_store_occupancy_ratio",
            "Fraction of store capacity in use (0 for an unbounded store)",
        ),
        store_recovered_documents=registry.gauge(
            "repro_proxy_store_recovered_documents",
            "Documents restored from snapshot+journal at the last warm "
            "restart",
        ),
        store_journal_tail_discarded=registry.gauge(
            "repro_proxy_store_journal_tail_discarded",
            "Torn/corrupt journal lines discarded at the last warm restart",
        ),
        store_journal_appends=registry.counter(
            "repro_proxy_store_journal_appends_total",
            "Store mutations durably appended to the state journal",
        ),
        store_journal_errors=registry.counter(
            "repro_proxy_store_journal_errors_total",
            "Store journal writes that failed (journaling then disabled)",
        ),
        client_timeouts=registry.counter(
            "repro_proxy_client_timeouts_total",
            "Client connections dropped for exceeding the request-read "
            "deadline (slowloris guard)",
        ),
        shed=registry.counter(
            "repro_proxy_shed_total",
            "Requests refused with 503 + Retry-After, by reason "
            "(saturated admission vs hit-only degradation)",
            labelnames=("reason",),
        ),
        deadline_exhausted=registry.counter(
            "repro_proxy_deadline_exhausted_total",
            "Origin work abandoned because the propagated deadline "
            "budget ran out",
        ),
        degraded_mode=registry.gauge(
            "repro_proxy_degraded_mode",
            "Current saturation-ladder position (0=full, 1=hit-only, "
            "2=shed)",
        ),
        degraded_seconds=registry.counter(
            "repro_proxy_degraded_seconds_total",
            "Seconds spent in each saturation mode (updated at scrape)",
            labelnames=("mode",),
        ),
    )


def fleet_metrics(registry: Registry) -> SimpleNamespace:
    """Sharded-fleet metrics (``repro_fleet_*``).

    Recorded by the :class:`~repro.proxy.fleet.FleetSupervisor` (shard
    lifecycle, aggregated shard counters) and the
    :class:`~repro.proxy.router.FleetRouter` (routing outcomes,
    front-tier shedding).
    """
    return SimpleNamespace(
        requests=registry.counter(
            "repro_fleet_requests_total",
            "Requests seen by the front router, by outcome "
            "(routed, shed, failed)",
            labelnames=("outcome",),
        ),
        failover=registry.counter(
            "repro_fleet_failover_total",
            "Requests answered by a lower-ranked shard after the "
            "preferred shard failed",
        ),
        shed=registry.counter(
            "repro_fleet_shed_total",
            "Requests shed with 503 + Retry-After, by tier "
            "(router vs shard)",
            labelnames=("tier",),
        ),
        shard_restarts=registry.counter(
            "repro_fleet_shard_restarts_total",
            "Shard processes restarted by the supervisor, per shard",
            labelnames=("shard",),
        ),
        degraded_seconds=registry.counter(
            "repro_fleet_degraded_seconds_total",
            "Router-tier seconds spent in each saturation mode",
            labelnames=("mode",),
        ),
        shards=registry.gauge(
            "repro_fleet_shards",
            "Shards currently in each lifecycle state",
            labelnames=("state",),
        ),
        request_seconds=registry.histogram(
            "repro_fleet_request_seconds",
            "Router-observed wall time of one fleet request",
            buckets=FETCH_SECONDS_BUCKETS,
        ),
    )


def chaos_metrics(registry: Registry) -> SimpleNamespace:
    """Chaos-harness metrics (``repro_chaos_*``)."""
    return SimpleNamespace(
        faults=registry.counter(
            "repro_chaos_faults_injected_total",
            "Faults injected into origin traffic, by kind",
            labelnames=("kind",),
        ),
        replays=registry.counter(
            "repro_chaos_replays_total",
            "Full trace replays completed, by phase",
            labelnames=("phase",),
        ),
        degradation_points=registry.gauge(
            "repro_chaos_degradation_points",
            "Hit-rate points lost to injected faults in the last run",
        ),
    )


def mrc_metrics(registry: Registry) -> SimpleNamespace:
    """Single-pass MRC engine metrics (``repro_mrc_*``).

    Recorded by :func:`repro.analysis.mrc.single_pass_mrc`: volume
    counters for the shadow-bank hot path plus one wall-time histogram
    per engine phase (``scan``, ``shadow_bank``, ``estimate``).
    """
    return SimpleNamespace(
        requests=registry.counter(
            "repro_mrc_requests_total",
            "Trace requests consumed by single-pass MRC runs",
        ),
        shadow_accesses=registry.counter(
            "repro_mrc_shadow_accesses_total",
            "Shadow-cache feeds performed across all cells and salts",
        ),
        replicates=registry.counter(
            "repro_mrc_replicates_total",
            "Salted replicates completed",
        ),
        points=registry.counter(
            "repro_mrc_points_total",
            "Curve points estimated (key x fraction pairs)",
        ),
        phase_seconds=registry.histogram(
            "repro_mrc_phase_seconds",
            "Wall time of one single-pass MRC engine phase",
            labelnames=("phase",),
            buckets=JOB_SECONDS_BUCKETS,
        ),
    )


def trace_metrics(registry: Registry) -> SimpleNamespace:
    """Trace-ingestion metrics (``repro_trace_*``)."""
    return SimpleNamespace(
        rejected_lines=registry.counter(
            "repro_trace_rejected_lines_total",
            "Malformed/truncated log lines quarantined during lenient "
            "ingestion",
        ),
    )


def telemetry_metrics(registry: Registry) -> SimpleNamespace:
    """Fleet telemetry-plane metrics (``repro_fleet_*`` rollups).

    Recorded by the :class:`~repro.obs.telemetry.TelemetryAggregator`
    (scrape health, merged fleet rollups) and its
    :class:`~repro.obs.telemetry.SLOEngine` (burn rates, alert counts).
    Gauges here are *derived* each aggregation round from merged shard
    snapshots — they are rollups over the ``repro_proxy_*`` families,
    not independent measurements.
    """
    return SimpleNamespace(
        scrapes=registry.counter(
            "repro_fleet_scrapes_total",
            "Shard /metrics scrape attempts, by outcome "
            "(ok, error, unreachable)",
            labelnames=("outcome",),
        ),
        rounds=registry.counter(
            "repro_fleet_telemetry_rounds_total",
            "Completed fleet aggregation rounds",
        ),
        hit_ratio=registry.gauge(
            "repro_fleet_hit_ratio",
            "Fleet-wide hit ratio (percent), merged over all shards",
        ),
        weighted_hit_ratio=registry.gauge(
            "repro_fleet_weighted_hit_ratio",
            "Fleet-wide weighted (byte) hit ratio, percent",
        ),
        shard_occupancy=registry.gauge(
            "repro_fleet_shard_occupancy_ratio",
            "Per-shard store occupancy from the latest scrape",
            labelnames=("shard",),
        ),
        latency_quantile=registry.gauge(
            "repro_fleet_latency_quantile_seconds",
            "Interpolated fleet request-latency quantiles (p50/p95/p99)",
            labelnames=("quantile",),
        ),
        shard_degraded_seconds=registry.gauge(
            "repro_fleet_shard_degraded_seconds",
            "Shard-tier seconds in each saturation mode, summed over "
            "the fleet",
            labelnames=("mode",),
        ),
        scrape_staleness=registry.gauge(
            "repro_fleet_scrape_staleness_seconds",
            "Seconds since each shard's last successful scrape "
            "(-1 if never scraped)",
            labelnames=("shard",),
        ),
        scrape_failures=registry.gauge(
            "repro_fleet_scrape_failures",
            "Consecutive failed scrapes per shard",
            labelnames=("shard",),
        ),
        slo_burn_rate=registry.gauge(
            "repro_fleet_slo_burn_rate",
            "Error-budget burn rate per SLO and alert window",
            labelnames=("slo", "window"),
        ),
        slo_alerts=registry.counter(
            "repro_fleet_slo_alerts_total",
            "Burn-rate alerts fired, by SLO and severity",
            labelnames=("slo", "severity"),
        ),
    )


#: Everything ``repro obs check`` applies to one registry to build the
#: canonical declaration set.
ALL_METRIC_SETS = (
    sim_metrics, phase_metrics, timeseries_metrics, sweep_metrics,
    proxy_metrics, fleet_metrics, chaos_metrics, mrc_metrics,
    trace_metrics, telemetry_metrics,
)
