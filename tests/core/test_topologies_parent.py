"""The two-level, shared-L2, cooperative and periodic replays, pinned at
the parent commit.

At commit ``ae71411`` each of these topologies ran its own loop over the
allocating ``SimCache.access``.  The numbers below were recorded there,
before those loops were folded into ``simulate``'s one replay loop, into
``tests/fixtures/topologies_parent.json`` with::

    PYTHONPATH=<parent checkout>/src python tests/core/test_topologies_parent.py

(the periodic cache was then built as ``PeriodicRemovalCache(SimCache(
capacity, policy), period=..., ...)`` and its HR counted by hand) and
every topology must reproduce them.  ``tests/core/test_timeseries_parent.py``
pins the two-level and partitioned day series; this file covers the
collectors and counters those series do not show.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import (
    KeyPolicy,
    PeriodicRemovalCache,
    RANDOM,
    SIZE,
    SimCache,
    simulate,
)
from repro.core.cooperative import simulate_cooperative
from repro.core.experiments import max_needed_for, run_two_level
from repro.core.multilevel import simulate_shared_second_level
from repro.durability import canonical_json
from repro.workloads import generate_valid

FIXTURE = (
    Path(__file__).resolve().parents[1] / "fixtures" / "topologies_parent.json"
)
SEED, SCALE, FRACTION = 21, 0.03, 0.10


def totals(collector) -> dict:
    """A collector's four totals plus a digest of its day counters."""
    days = [
        [day, stats.requests, stats.hits, stats.bytes_requested,
         stats.bytes_hit]
        for day, stats in sorted(collector.days.items())
    ]
    return {
        "requests": collector.total_requests,
        "hits": collector.total_hits,
        "bytes_requested": collector.total_bytes_requested,
        "bytes_hit": collector.total_bytes_hit,
        "days_sha256": hashlib.sha256(
            canonical_json(days).encode("utf-8")
        ).hexdigest(),
    }


def size_cache(capacity: int) -> SimCache:
    return SimCache(capacity=capacity, policy=KeyPolicy([SIZE, RANDOM]))


def capacities(traces) -> dict:
    return {
        key: max(1, int(FRACTION * max_needed_for(trace)))
        for key, trace in traces.items()
    }


def two_level() -> dict:
    trace = generate_valid("G", seed=SEED, scale=SCALE)
    result = run_two_level(trace, max_needed_for(trace), FRACTION)
    return {"l2_local_metrics": totals(result.l2_local_metrics)}


def shared_second_level() -> dict:
    traces = {
        key: generate_valid(key, seed=SEED, scale=0.02)
        for key in ("C", "G", "BL")
    }
    # Two populations of one site, so the shared level sees cross hits.
    traces["C-again"] = generate_valid("C", seed=SEED + 1, scale=0.02)
    sizes = capacities(traces)
    shared = simulate_shared_second_level(
        traces, l1_factory=lambda key: size_cache(sizes[key]),
    )
    return {
        "l1_metrics": {
            key: totals(collector)
            for key, collector in sorted(shared.l1_metrics.items())
        },
        "l2_metrics": totals(shared.l2_metrics),
        "l2_hits_by_origin": dict(sorted(shared.l2_hits_by_origin.items())),
    }


def cooperative() -> dict:
    base = generate_valid("C", seed=SEED, scale=SCALE)
    third = len(base) // 3
    traces = {
        "pop-a": base[:third],
        "pop-b": base[third: 2 * third],
        "pop-c": base[2 * third:],
    }
    sizes = capacities(traces)
    group = simulate_cooperative(traces, lambda name: size_cache(sizes[name]))
    return {
        "local_metrics": {
            name: totals(collector)
            for name, collector in sorted(group.local_metrics.items())
        },
        "sibling_hits": dict(sorted(group.sibling_hits.items())),
        "origin_fetches": dict(sorted(group.origin_fetches.items())),
        "group_hit_rate": group.group_hit_rate,
        "sibling_hit_rate": group.sibling_hit_rate,
    }


def periodic() -> dict:
    trace = generate_valid("U", seed=SEED, scale=SCALE)
    capacity = max(1, int(FRACTION * max_needed_for(trace)))
    modes = {}
    for label, on_demand, comfort in (
        ("hybrid", True, 0.8),
        ("pure", False, 0.8),
        ("aggressive", False, 0.5),
    ):
        cache = PeriodicRemovalCache(
            capacity, KeyPolicy([SIZE]),
            period=86400.0, comfort_level=comfort, on_demand=on_demand,
        )
        result = simulate(trace, cache)
        modes[label] = {
            "hit_rate": result.hit_rate,
            "weighted_hit_rate": result.weighted_hit_rate,
            "evictions": cache.eviction_count,
            "sweeps": cache.sweep_count,
            "swept_entries": cache.swept_entries,
        }
    return modes


@pytest.fixture(scope="module")
def parent():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_two_level_l2_local_metrics_are_the_parents(parent):
    assert two_level() == parent["two_level"]


def test_shared_second_level_is_the_parents(parent):
    recorded = parent["shared_second_level"]
    assert sum(recorded["l2_hits_by_origin"].values()) > 0
    assert shared_second_level() == recorded


def test_cooperative_counts_are_the_parents(parent):
    recorded = parent["cooperative"]
    assert sum(recorded["sibling_hits"].values()) > 0
    assert cooperative() == recorded


def test_periodic_modes_are_the_parents(parent):
    recorded = parent["periodic"]
    assert sorted(recorded) == ["aggressive", "hybrid", "pure"]
    assert all(mode["sweeps"] > 0 for mode in recorded.values())
    assert periodic() == recorded


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(
            {
                "recorded_at": "ae71411",
                "two_level": two_level(),
                "shared_second_level": shared_second_level(),
                "cooperative": cooperative(),
                "periodic": periodic(),
            },
            indent=1, sort_keys=True,
        ) + "\n",
        encoding="utf-8",
    )
