"""Chaos harness: trace replay through the live proxy under injected faults.

Runs the same validated trace twice through two identical proxy stacks —
once against a healthy origin (the baseline) and once against a
:class:`~repro.faults.FaultyOriginServer` executing a seeded
:class:`~repro.faults.FaultPlan` — and reports the *degradation*: how far
the delivered hit rate fell, how many requests were absorbed by
stale-if-error serving and retries, and how many leaked to clients as
errors.  Both replays drive the proxy's clock from trace timestamps, so
freshness (and thus revalidation traffic, the path stale-if-error
protects) follows the trace, and the whole run is deterministic for a
given (trace, plan, seed).

This is the engine behind ``python -m repro chaos`` and the chaos test
suite's acceptance criterion: under a plan failing a fifth of origin
connections, a resilient proxy finishes the replay with zero unhandled
exceptions and an HR within a few points of the fault-free run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from repro.faults import FaultPlan, FaultyOriginServer
from repro.obs import Obs
from repro.obs.catalog import chaos_metrics
from repro.proxy.consistency import ConsistencyEstimator
from repro.proxy.origin import OriginServer
from repro.proxy.replay import ReplayReport, TraceOriginSite, replay_through_proxy
from repro.proxy.server import CachingProxy, ProxyStats
from repro.proxy.store import ProxyStore
from repro.retry import RetryPolicy
from repro.trace.record import Request

__all__ = ["ChaosReport", "run_chaos"]


@dataclass
class ChaosReport:
    """Baseline vs. faulted replay of one trace, plus proxy telemetry."""

    baseline: ReplayReport
    faulted: ReplayReport
    baseline_stats: ProxyStats
    faulted_stats: ProxyStats
    faults_injected: Dict[str, int]
    plan: FaultPlan
    capacity: int

    @property
    def degradation_points(self) -> float:
        """Hit-rate points lost to the injected faults."""
        return self.baseline.hit_rate - self.faulted.hit_rate

    def as_dict(self) -> dict:
        """JSON-serialisable degradation report (the CI artifact)."""
        stats = self.faulted_stats
        return {
            "capacity": self.capacity,
            "baseline": self.baseline.as_dict(),
            "faulted": self.faulted.as_dict(),
            "degradation_points": self.degradation_points,
            "proxy": {
                "retries": stats.retries,
                "stale_served": stats.stale_served,
                "breaker_open": stats.breaker_open,
                "errors": stats.errors,
                "revalidations": stats.revalidations,
            },
            "faults_injected": dict(self.faults_injected),
            "plan": self.plan.to_dict(),
        }

    def write(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.as_dict(), indent=2) + "\n", encoding="utf-8",
        )

    def render(self) -> str:
        """Human-readable degradation summary."""
        lines = [
            f"requests replayed:      {self.faulted.requests}",
            f"baseline HR:            {self.baseline.hit_rate:.2f}%",
            f"HR under faults:        {self.faulted.hit_rate:.2f}%",
            f"degradation:            {self.degradation_points:.2f} points",
            f"stale copies served:    {self.faulted.stale}",
            f"origin retries:         {self.faulted_stats.retries}",
            f"breaker fast-fails:     {self.faulted_stats.breaker_open}",
            f"5xx leaked to clients:  {self.faulted.server_errors}",
            f"client-side errors:     {self.faulted.client_errors}",
            "faults injected:        " + (
                ", ".join(
                    f"{kind}={count}"
                    for kind, count in sorted(self.faults_injected.items())
                ) or "none"
            ),
        ]
        return "\n".join(lines)


def _unique_footprint(trace: Sequence[Request]) -> int:
    """Bytes needed to hold every distinct document at its largest size."""
    sizes: Dict[str, int] = {}
    for request in trace:
        if request.size > sizes.get(request.url, 0):
            sizes[request.url] = request.size
    return sum(sizes.values())


def _replay_once(
    trace: Sequence[Request],
    origin: OriginServer,
    site: TraceOriginSite,
    capacity: int,
    policy,
    ttl: float,
    retry_policy: RetryPolicy,
    obs: Optional[Obs] = None,
) -> tuple:
    """One full stack lifecycle: origin + proxy up, replay, tear down."""
    now_box = [trace[0].timestamp if trace else 0.0]
    store = ProxyStore(capacity=capacity, policy=policy)
    proxy = CachingProxy(
        store,
        resolver=lambda host: origin.address,
        estimator=ConsistencyEstimator(
            default_ttl=ttl, lm_factor=0.0, min_ttl=ttl, max_ttl=ttl,
        ),
        clock=lambda: now_box[0],
        timeout=retry_policy.timeout,
        retry_policy=retry_policy,
        obs=obs,
    )
    origin.start()
    proxy.start()
    try:
        report = replay_through_proxy(
            trace, proxy, site,
            timeout=retry_policy.worst_case_seconds() + 5.0,
            advance_clock=lambda ts: now_box.__setitem__(0, ts),
        )
    finally:
        proxy.stop()
        origin.stop()
    return report, proxy.stats


def run_chaos(
    trace: Sequence[Request],
    plan: FaultPlan,
    capacity: Optional[int] = None,
    fraction: float = 0.25,
    policy=None,
    ttl: Optional[float] = None,
    retry_policy: Optional[RetryPolicy] = None,
    obs: Optional[Obs] = None,
) -> ChaosReport:
    """Replay ``trace`` twice — fault-free and under ``plan`` — and
    report the degradation.

    Args:
        trace: validated requests (e.g. from ``generate_valid`` or a
            CLF file).
        plan: the fault schedule for the second replay.
        capacity: proxy store bytes; defaults to ``fraction`` of the
            trace's unique-document footprint.
        fraction: used only when ``capacity`` is omitted.
        policy: removal policy for the store (default SIZE).
        ttl: freshness lifetime pinned for every copy; defaults to a
            tenth of the trace's time span, so long traces revalidate.
        retry_policy: proxy retry/backoff configuration (default:
            1 s attempts, 2 retries, fast backoff).
        obs: optional :class:`repro.obs.Obs` context.  Collects the
            ``repro_chaos_*`` metrics, per-phase spans and chaos events;
            the *faulted* stack's proxy also reports into it (its
            ``repro_proxy_*`` counters describe the replay under faults,
            matching the report's ``proxy`` section).  The baseline
            proxy keeps a private context so the two replays' proxy
            counters never mix.
    """
    if not trace:
        raise ValueError("chaos replay needs a non-empty trace")
    if capacity is None:
        capacity = max(1, int(fraction * _unique_footprint(trace)))
    if ttl is None:
        span = trace[-1].timestamp - trace[0].timestamp
        ttl = max(1.0, span / 10.0)
    if retry_policy is None:
        retry_policy = RetryPolicy(
            timeout=1.0, max_retries=2, backoff_base=0.01, max_backoff=0.1,
        )

    obs = obs if obs is not None else Obs.private()
    m = chaos_metrics(obs.registry)
    channel = obs.channel("chaos")

    baseline_site = TraceOriginSite()
    with obs.span("chaos.baseline", requests=len(trace)):
        baseline_report, baseline_stats = _replay_once(
            trace, OriginServer(site=baseline_site), baseline_site,
            capacity, policy, ttl, retry_policy,
        )
    m.replays.labels(phase="baseline").inc()
    channel.info(
        "replay.done", phase="baseline",
        requests=baseline_report.requests,
        hit_rate=round(baseline_report.hit_rate, 4),
    )

    injector = plan.injector()
    injector.on_fault = lambda kind: m.faults.labels(kind=kind).inc()
    faulted_site = TraceOriginSite()
    with obs.span("chaos.faulted", requests=len(trace)):
        faulted_report, faulted_stats = _replay_once(
            trace, FaultyOriginServer(injector, site=faulted_site),
            faulted_site, capacity, policy, ttl, retry_policy, obs=obs,
        )
    m.replays.labels(phase="faulted").inc()
    channel.info(
        "replay.done", phase="faulted",
        requests=faulted_report.requests,
        hit_rate=round(faulted_report.hit_rate, 4),
        faults_injected=dict(sorted(injector.counts.items())),
    )

    report = ChaosReport(
        baseline=baseline_report,
        faulted=faulted_report,
        baseline_stats=baseline_stats,
        faulted_stats=faulted_stats,
        faults_injected=dict(injector.counts),
        plan=plan,
        capacity=capacity,
    )
    m.degradation_points.set(report.degradation_points)
    return report
