"""Tests for the clairvoyant (offline MIN) baselines."""

import math

import pytest

from repro.core import SimCache, simulate, size_policy
from repro.core.offline import next_reference_indexes, simulate_clairvoyant
from repro.trace import Request


def req(t, url, size):
    return Request(timestamp=float(t), url=url, size=size)


class TestNextReference:
    def test_indexes(self):
        trace = [req(0, "a", 1), req(1, "b", 1), req(2, "a", 1)]
        assert next_reference_indexes(trace) == [2.0, math.inf, math.inf]

    def test_empty(self):
        assert next_reference_indexes([]) == []

    def test_repeats(self):
        trace = [req(i, "u", 1) for i in range(4)]
        assert next_reference_indexes(trace) == [1.0, 2.0, 3.0, math.inf]


class TestClairvoyant:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            simulate_clairvoyant([], 0)

    def test_belady_beats_lru(self):
        """The classic construction: on `a b a c a b` with room for two
        documents, clairvoyance keeps `b` through the one-shot `c` and
        scores 3 hits where LRU scores 2."""
        from repro.core import lru
        trace = [
            req(0, "a", 100), req(1, "b", 100), req(2, "a", 100),
            req(3, "c", 100), req(4, "a", 100), req(5, "b", 100),
        ]
        clairvoyant = simulate_clairvoyant(
            trace, capacity=200, size_aware=False,
        )
        online = simulate(trace, SimCache(capacity=200, policy=lru()))
        assert clairvoyant.metrics.total_hits == 3
        assert online.metrics.total_hits == 2

    def test_never_again_documents_not_cached(self):
        trace = [req(0, "once", 100), req(1, "again", 50), req(2, "again", 50)]
        result = simulate_clairvoyant(trace, capacity=100)
        assert result.metrics.total_hits == 1
        # 'once' was not cached at all: no eviction was ever needed.
        assert result.cache.eviction_count == 0

    def test_modified_documents_count_as_misses(self):
        trace = [req(0, "u", 100), req(1, "u", 150), req(2, "u", 150)]
        result = simulate_clairvoyant(trace, capacity=1000)
        assert result.metrics.total_hits == 1  # only the third access

    def test_oversized_served_uncached(self):
        trace = [req(0, "huge", 500), req(1, "huge", 500)]
        result = simulate_clairvoyant(trace, capacity=100)
        assert result.metrics.total_hits == 0

    @pytest.mark.parametrize("trace", [
        # A modified copy that no longer fits, then an oversized document.
        [req(0, "x", 500), req(1, "x", 50), req(2, "big", 5000),
         req(3, "big", 5000)],
        [req(0, "u", 100), req(1, "u", 150), req(2, "u", 150),
         req(3, "huge", 2000), req(4, "u", 2000)],
    ])
    def test_one_outcome_per_request(self, trace):
        """Each request has exactly one outcome, the one ``SimCache``
        gives it (these traces evict nothing, so the two agree)."""
        result = simulate_clairvoyant(trace, capacity=1000)
        assert sum(result.outcomes.values()) == len(trace)
        assert result.outcomes == simulate(
            trace, SimCache(capacity=1000),
        ).outcomes

    def test_hr_at_least_online_policies(self):
        """On a real workload the clairvoyant baseline dominates every
        online policy (it is a heuristic, not proven optimal for variable
        sizes — but it should never lose to SIZE by construction of the
        size-aware tie-break)."""
        from repro.workloads import generate_valid
        from repro.core.experiments import max_needed_for
        trace = generate_valid("BL", seed=3, scale=0.04)
        capacity = max(1, int(0.1 * max_needed_for(trace)))
        clairvoyant = simulate_clairvoyant(trace, capacity)
        online = simulate(
            trace, SimCache(capacity=capacity, policy=size_policy()),
        )
        assert clairvoyant.hit_rate >= online.hit_rate

    def test_bounded_by_infinite(self):
        from repro.workloads import generate_valid
        trace = generate_valid("C", seed=3, scale=0.03)
        infinite = simulate(trace, SimCache(capacity=None))
        clairvoyant = simulate_clairvoyant(trace, capacity=10**6)
        assert clairvoyant.hit_rate <= infinite.hit_rate + 1e-9

    def test_size_aware_beats_plain_min_on_skewed_sizes(self):
        from repro.workloads import generate_valid
        from repro.core.experiments import max_needed_for
        trace = generate_valid("BL", seed=9, scale=0.04)
        capacity = max(1, int(0.1 * max_needed_for(trace)))
        plain = simulate_clairvoyant(trace, capacity, size_aware=False)
        aware = simulate_clairvoyant(trace, capacity, size_aware=True)
        assert aware.hit_rate >= plain.hit_rate - 1.0
