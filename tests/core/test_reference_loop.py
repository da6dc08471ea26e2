"""Differential test: ``simulate()``'s flat loop against a reference
replay built from the public per-request API.

``simulate`` counts outcomes as integer codes and bytes in locals and
brings the collector up to date once a day; the reference below does
what the simulator did before that — one ``SimCache.access`` (an
``AccessResult``), one ``MetricsCollector.record`` and one ``request.day``
per request.  Both must produce the same numbers, the same recorded
time series and the same eviction event stream, for every policy.
"""

import random
from collections import Counter

import pytest

from repro.core import (
    AccessOutcome,
    KeyPolicy,
    LRUMin,
    MetricsCollector,
    SimCache,
    simulate,
    taxonomy_policies,
)
from repro.obs import Obs
from repro.obs.timeseries import SimStreamTicker, TimeSeriesRecorder
from repro.trace import Request

CAPACITY = 1000
TRACK_EVERY = 3
DAY = 86400


def reference_replay(trace, cache, obs):
    """The old loop, kept here as the oracle."""
    metrics, outcomes, positions = MetricsCollector(), Counter(), []
    recorder = TimeSeriesRecorder()
    ticker = SimStreamTicker(recorder, stream="main")
    channel = obs.channel("sim")
    day, hits = None, 0
    for request in trace:
        if request.day != day:
            if day is not None:
                ticker.update(metrics, cache)
                recorder.tick(day)
            day = request.day
        result = cache.access(request)
        outcomes[result.outcome] += 1
        metrics.record(request, result.is_hit)
        for entry in result.evicted:
            channel.debug("evict", url=entry.url, size=entry.size,
                          nref=entry.nref, for_url=request.url)
        if result.is_hit and isinstance(cache.policy, KeyPolicy):
            hits += 1
            if hits % TRACK_EVERY == 0:
                order = [entry.url for entry in cache.removal_order()]
                positions.append((order.index(request.url), len(order)))
    ticker.update(metrics, cache)
    recorder.tick(day, force=True)
    return metrics, outcomes, positions, recorder


def build_trace():
    """Hand-placed edge cases, then a hit-and-evict-heavy random tail."""
    def req(t, url, size):
        return Request(timestamp=float(t), url=url, size=size)

    trace = [
        req(0, "a", 300), req(5, "b", 400), req(9, "a", 300),
        req(20, "c", 500),                      # must evict
        req(30, "huge", 5 * CAPACITY),          # oversized: never stored
        req(40, "b", 400),
        req(DAY + 1, "a", 350),                 # size change: modified
        req(DAY + 2, "d", 200), req(DAY + 3, "a", 350),
        req(5 * DAY, "c", 500),                 # after a multi-day gap
        req(5 * DAY + 1, "c", 2 * CAPACITY),    # modified to oversized
        req(5 * DAY + 2, "c", 2 * CAPACITY),    # ... and now plain oversized
    ]
    rng = random.Random(12)
    sizes = {f"u{i}": rng.randrange(40, 400) for i in range(30)}
    clock = 5 * DAY + 10
    for _ in range(400):
        clock += rng.randrange(1, 1500)
        url = f"u{min(rng.randrange(30), rng.randrange(30))}"
        trace.append(req(clock, url, sizes[url]))
    return trace


TRACE = build_trace()
POLICY_FACTORIES = [
    (policy.name, lambda keys=policy.keys: KeyPolicy(keys))
    for policy in taxonomy_policies()
] + [("LRU-MIN", LRUMin)]


def test_trace_covers_the_edge_cases():
    result = simulate(TRACE, SimCache(CAPACITY))
    assert all(result.outcomes[outcome] for outcome in AccessOutcome)
    days = sorted(result.metrics.days)
    assert max(b - a for a, b in zip(days, days[1:])) > 1
    assert result.cache.eviction_count > 50


@pytest.mark.parametrize("capacity", [CAPACITY, None], ids=["finite", "infinite"])
@pytest.mark.parametrize(
    "factory", [f for _, f in POLICY_FACTORIES],
    ids=[name for name, _ in POLICY_FACTORIES],
)
def test_simulate_equals_reference_replay(factory, capacity):
    ref_obs, sim_obs = Obs.create(log_level="debug"), Obs.create(log_level="debug")
    metrics, outcomes, positions, recorder = reference_replay(
        TRACE, SimCache(capacity, policy=factory(), seed=5), ref_obs,
    )
    result = simulate(
        TRACE, SimCache(capacity, policy=factory(), seed=5),
        track_positions_every=TRACK_EVERY, obs=sim_obs,
    )
    assert result.outcomes == outcomes
    assert result.metrics.days == metrics.days
    assert list(result.metrics.days) == list(metrics.days)
    assert result.metrics == metrics  # the four totals too
    assert result.timeseries.samples() == recorder.samples()
    assert result.hit_positions == positions
    assert (
        sim_obs.events.events(channel="sim", event="evict")
        == ref_obs.events.events(channel="sim", event="evict")
    )
