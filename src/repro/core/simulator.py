"""Trace-driven cache simulation (the paper's Appendix A simulator).

:func:`simulate` drives a single cache over a valid trace and collects the
response variables.  Its loop is :func:`replay`, the one replay loop: the
other single-trace topologies (two-level, partitioned, periodic removal)
are caches it drives too, and each is its own result.

The Appendix A simulator also reported "location in sorted list of each
URL hit" — how deep into the removal order the hits land.  Pass
``track_positions_every=N`` to sample that diagnostic every N-th hit
(it costs a full sort per sample); positions near the head mean the
policy was about to evict documents that were still useful.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.core.cache import HIT, OUTCOMES, SimCache
from repro.core.metrics import MetricsCollector
from repro.core.policy import KeyPolicy
from repro.trace.compiled import compile_trace
from repro.trace.record import Request

__all__ = ["SimulationResult", "replay", "simulate"]


@dataclass
class SimulationResult:
    """Outcome of driving one cache over one trace."""

    name: str
    policy_name: str
    capacity: Optional[int]
    metrics: MetricsCollector
    cache: SimCache
    outcomes: Counter = field(default_factory=Counter)
    #: Sampled (position_in_removal_order, cache_population) pairs at hit
    #: time; empty unless ``track_positions_every`` was set.  Position 0
    #: is the next eviction victim.
    hit_positions: List = field(default_factory=list)

    @property
    def timeseries(self):
        """The replay's per-simulated-day sample stream (a
        :class:`repro.obs.timeseries.TimeSeriesRecorder` with one
        ``main`` stream): a view built from ``metrics`` on every read,
        never stored — a live result, one that crossed a process
        boundary and one served from the result cache hold the same
        collector, so they give the same samples."""
        from repro.obs.timeseries import recorder_from_collectors

        return recorder_from_collectors([("main", self.metrics)])

    @property
    def hit_rate(self) -> float:
        """Cumulative HR (percent)."""
        return self.metrics.hit_rate

    @property
    def weighted_hit_rate(self) -> float:
        """Cumulative WHR (percent)."""
        return self.metrics.weighted_hit_rate

    @property
    def max_used_bytes(self) -> int:
        """Largest cache occupancy seen; for an infinite cache this is the
        paper's *MaxNeeded* (Experiment 1, objective 2)."""
        return self.cache.max_used_bytes

    @property
    def mean_hit_depth(self) -> float:
        """Mean relative depth of sampled hits in the removal order
        (0 = at the eviction head, 1 = safest).  0.0 when not tracked."""
        if not self.hit_positions:
            return 0.0
        return sum(
            position / population if population > 1 else 1.0
            for position, population in self.hit_positions
        ) / len(self.hit_positions)

    def summary(self) -> dict:
        """Headline numbers as a plain dict (for reports)."""
        return {
            "name": self.name,
            "policy": self.policy_name,
            "capacity": self.capacity,
            "hit_rate": round(self.hit_rate, 2),
            "weighted_hit_rate": round(self.weighted_hit_rate, 2),
            "max_used_mb": round(self.max_used_bytes / 2**20, 2),
            "evictions": self.cache.eviction_count,
            "requests": self.metrics.total_requests,
        }


#: ``run(urls, sizes, stamps, types, codes)`` answers a run of rows, as
#: :meth:`SimCache.access_run` does, or a topology over its caches.
Run = Callable[[list, list, list, list, bytearray], None]


def replay(
    trace: Iterable[Request],
    run: Run,
    metrics: MetricsCollector,
    streams: Sequence[Tuple[MetricsCollector, SimCache]],
) -> Counter:
    """The one replay loop: pass each day slice of a valid trace (a
    :class:`~repro.trace.compiled.CompiledTrace`; anything else is
    compiled first) to ``run`` as one run of rows, credit the day to
    ``metrics`` from the outcome codes, and stamp each cache of
    ``streams`` with its end-of-day occupancy, into its collector (a day
    the clock re-enters is stamped again: the last close wins).  A
    topology is whatever ``run`` routes the rows through, and it records
    its own inner collectors.  Returns the outcome counts."""
    trace = compile_trace(trace)
    counts = [0] * len(OUTCOMES)
    codes = bytearray()
    for day, start, stop in trace.day_slices:
        # A day's sizes and stamps are boxed once, not once a read.
        sizes = trace.sizes[start:stop].tolist()
        run(trace.urls[start:stop], sizes, trace.stamps[start:stop].tolist(),
            trace.types[start:stop], codes)
        metrics.credit(day, sizes, codes)
        counts = [count + codes.count(code) for code, count in enumerate(counts)]
        for collector, cache in streams:
            collector.occupancy[day] = (cache.used_bytes, len(cache))
        codes.clear()
    return Counter({
        OUTCOMES[code]: count for code, count in enumerate(counts) if count
    })


def _run(cache: SimCache, every: int, channel, hit_positions: List) -> Run:
    """``cache.access_run`` itself, unless it must also sample every
    ``every``-th hit's position in the removal order into
    ``hit_positions`` or stream each eviction to ``channel`` at debug
    level: then a run doing that work around it, a row at a time."""
    plain = cache.access_run
    # Victims are collected only when someone reads them.
    evicted = (
        [] if channel is not None and channel.enabled_for("debug") else None
    )
    if not every and evicted is None:
        return plain
    hit_count = 0

    def run(urls, sizes, stamps, types, codes) -> None:
        nonlocal hit_count
        for url, size, now, kind in zip(urls, sizes, stamps, types):
            plain((url,), (size,), (now,), (kind,), codes, evicted)
            if codes[-1] == HIT:
                if every:
                    hit_count += 1
                    if hit_count % every == 0:
                        order = [entry.url for entry in cache.removal_order()]
                        hit_positions.append((order.index(url), len(order)))
            elif evicted:
                for entry in evicted:
                    channel.debug("evict", url=entry.url, size=entry.size,
                                  nref=entry.nref, for_url=url)
                evicted.clear()

    return run


def simulate(
    trace: Iterable[Request],
    cache: SimCache,
    name: str = "",
    track_positions_every: int = 0,
    obs=None,
    profiler=None,
) -> SimulationResult:
    """Drive ``cache`` over a *valid* trace.

    The trace must already be validated (Section 1.1); feeding raw logs
    here would count invalid requests in HR/WHR.  All experiments start
    with an empty cache and run the full trace (Section 3.2).  The
    result's ``metrics`` are the one record of the replay's days — the
    counters and the end-of-day occupancy; the sample stream is derived
    from them when read, so the loop builds no recorder.

    Args:
        trace: the validated request stream.
        cache: the cache under test.
        name: label for reports.
        track_positions_every: when > 0 (and the policy is a key policy),
            sample the hit document's position in the removal order every
            N-th hit — the Appendix A "location in sorted list" output.
        obs: optional :class:`repro.obs.Obs` context.  Outcome counters
            are flushed to its registry *after* the replay (the hot loop
            stays untouched), eviction decisions stream to the ``sim``
            event channel at debug level, and the whole replay runs
            under a ``sim.replay`` span.  Instrumentation reads state
            only — it can never perturb HR/WHR.
        profiler: optional :class:`~repro.obs.profile.Profiler`.  When
            set (or when ``obs.profiler`` is), the replay attaches a
            phase timer to the cache, timing the lookup / evict / admit
            phases into the profiler and — if ``obs`` is given — the
            per-policy ``repro_sim_phase_seconds`` histogram.
    """
    metrics = MetricsCollector()
    hit_positions = []
    channel = obs.channel("sim") if obs is not None else None
    every = track_positions_every if isinstance(cache.policy, KeyPolicy) else 0
    run = _run(cache, max(every, 0), channel, hit_positions)
    if profiler is None and obs is not None:
        profiler = obs.profiler
    if profiler is not None:
        from repro.obs.profile import CachePhaseTimer

        cache.set_phase_timer(CachePhaseTimer(
            policy=cache.policy.name,
            registry=obs.registry if obs is not None else None,
            profiler=profiler,
        ))
    start_evictions = cache.eviction_count
    start_evicted_bytes = cache.evicted_bytes
    start_seconds = time.perf_counter()
    span = (
        obs.span(
            "sim.replay", label=name, policy=cache.policy.name,
            capacity=cache.capacity,
        )
        if obs is not None else nullcontext()
    )
    with span:
        outcomes = replay(trace, run, metrics, [(metrics, cache)])
    if profiler is not None:
        cache.set_phase_timer(None)
        profiler.record(
            ("sim.replay",), time.perf_counter() - start_seconds,
        )
    if obs is not None:
        _flush_obs(
            obs, name, cache, metrics, outcomes,
            evictions=cache.eviction_count - start_evictions,
            evicted_bytes=cache.evicted_bytes - start_evicted_bytes,
            seconds=time.perf_counter() - start_seconds,
            channel=channel,
        )
    return SimulationResult(
        name=name,
        policy_name=cache.policy.name,
        capacity=cache.capacity,
        metrics=metrics,
        cache=cache,
        outcomes=outcomes,
        hit_positions=hit_positions,
    )


def _flush_obs(
    obs, name, cache, metrics, outcomes, evictions, evicted_bytes,
    seconds, channel,
) -> None:
    """Record one finished replay into an obs context (post-loop, so the
    per-request path pays nothing for instrumentation)."""
    from repro.obs.catalog import sim_metrics

    m = sim_metrics(obs.registry)
    for outcome, count in sorted(
        outcomes.items(), key=lambda item: item[0].value,
    ):
        m.requests.labels(outcome=outcome.value).inc(count)
        if outcome.is_hit:
            m.hits.inc(count)
    m.evictions.inc(evictions)
    m.evicted_bytes.inc(evicted_bytes)
    m.replays.inc()
    m.replay_seconds.observe(seconds)
    channel.info(
        "replay.done",
        name=name,
        policy=cache.policy.name,
        requests=metrics.total_requests,
        hit_rate=round(metrics.hit_rate, 4),
        weighted_hit_rate=round(metrics.weighted_hit_rate, 4),
        evictions=evictions,
        **cache.stats_snapshot(),
    )
