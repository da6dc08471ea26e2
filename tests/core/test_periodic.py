"""Tests for periodic/hybrid removal (Section 1.3 extension)."""

import pytest

from repro.core import (
    AccessOutcome,
    KeyPolicy,
    PeriodicRemovalCache,
    SIZE,
    SimCache,
)
from repro.trace import Request


def req(t, url, size):
    return Request(timestamp=float(t), url=url, size=size)


def make(capacity=1000, period=86400.0, comfort=0.5, on_demand=True):
    return PeriodicRemovalCache(
        capacity, KeyPolicy([SIZE]),
        period=period,
        comfort_level=comfort,
        on_demand=on_demand,
    )


class TestValidation:
    def test_requires_finite_cache(self):
        with pytest.raises(ValueError):
            PeriodicRemovalCache(None)

    def test_period_positive(self):
        with pytest.raises(ValueError):
            make(period=0)

    def test_comfort_in_range(self):
        with pytest.raises(ValueError):
            make(comfort=1.0)
        with pytest.raises(ValueError):
            make(comfort=-0.1)


class TestSweep:
    def test_sweep_reaches_comfort_level(self):
        cache = make(capacity=1000, comfort=0.5)
        for i in range(9):
            cache.access(req(i, f"u{i}", 100))
        assert cache.used_bytes == 900
        removed = cache.sweep(now=100.0)
        assert cache.used_bytes <= 500
        assert removed

    def test_sweep_removes_in_policy_order(self):
        cache = make(capacity=1000, comfort=0.5)
        cache.access(req(0, "small", 100))
        cache.access(req(1, "big", 800))
        removed = cache.sweep(now=10.0)
        assert [e.url for e in removed] == ["big"]

    def test_sweeps_run_at_period_boundaries(self):
        cache = make(capacity=1000, period=86400.0, comfort=0.0)
        cache.access(req(0, "a", 100))
        assert cache.sweep_count == 0
        cache.access(req(86400.0 + 1, "b", 100))
        assert cache.sweep_count == 1
        assert "a" not in cache  # comfort 0: everything swept

    def test_multiple_missed_periods_all_run(self):
        cache = make(period=100.0, comfort=0.0)
        cache.access(req(0, "a", 10))
        cache.access(req(501, "b", 10))
        assert cache.sweep_count == 5

    def test_first_sweep_ends_the_first_requests_period(self):
        """A log read with Unix times starts decades after time zero:
        its first request runs no sweep for the days before it."""
        cache = make(period=86400.0)
        start = 804_556_800.0  # 1995-07-01, inside one day
        for i in range(3):
            cache.access(req(start + i * 3600, f"u{i}", 10))
        assert cache.sweep_count == 0
        cache.access(req(start + 86400.0, "next-day", 10))
        assert cache.sweep_count == 1


class TestHybridVsPurePeriodic:
    def test_hybrid_still_evicts_on_demand(self):
        cache = make(capacity=200, on_demand=True)
        cache.access(req(0, "a", 150))
        result = cache.access(req(1, "b", 150))
        assert result.outcome == AccessOutcome.MISS
        assert "b" in cache

    def test_pure_periodic_does_not_evict_on_demand(self):
        cache = make(capacity=200, on_demand=False)
        cache.access(req(0, "a", 150))
        result = cache.access(req(1, "b", 150))
        assert result.outcome == AccessOutcome.MISS_TOO_LARGE
        assert "a" in cache
        assert "b" not in cache

    def test_pure_periodic_hits_still_work(self):
        cache = make(capacity=200, on_demand=False)
        cache.access(req(0, "a", 150))
        assert cache.access(req(1, "a", 150)).is_hit

    def test_pure_periodic_caches_when_room(self):
        cache = make(capacity=400, on_demand=False)
        cache.access(req(0, "a", 150))
        result = cache.access(req(1, "b", 150))
        assert result.outcome == AccessOutcome.MISS
        assert "b" in cache

    def test_pure_periodic_modified_replacement(self):
        cache = make(capacity=300, on_demand=False)
        cache.access(req(0, "a", 200))
        result = cache.access(req(1, "a", 250))  # fits once old copy freed
        assert result.outcome == AccessOutcome.MISS_MODIFIED
        assert cache.get("a").size == 250

    def test_pure_periodic_modified_too_big(self):
        cache = make(capacity=300, on_demand=False)
        cache.access(req(0, "a", 200))
        cache.access(req(1, "filler", 90))
        result = cache.access(req(2, "a", 280))  # 280 > 300-290+200
        assert result.outcome == AccessOutcome.MISS_MODIFIED
        assert "a" not in cache  # stale copy invalidated


class TestHitRateCost:
    """The paper's Section 1.3 argument: periodic removal removes documents
    earlier than required and more than required, so it cannot beat pure
    on-demand removal by much and pure-periodic clearly loses."""

    @pytest.fixture(scope="class")
    def scenario(self):
        from repro.workloads import generate_valid
        from repro.core.experiments import max_needed_for
        trace = generate_valid("C", seed=5, scale=0.05)
        capacity = max(1, int(0.1 * max_needed_for(trace)))
        return trace, capacity

    def run_periodic(self, trace, capacity, on_demand):
        from repro.core import simulate
        periodic = PeriodicRemovalCache(
            capacity, KeyPolicy([SIZE]),
            period=86400.0, comfort_level=0.5, on_demand=on_demand,
        )
        return simulate(trace, periodic).hit_rate, periodic

    def test_hybrid_close_to_on_demand_and_evicts_more(self, scenario):
        from repro.core import simulate
        trace, capacity = scenario
        on_demand = simulate(
            trace, SimCache(capacity=capacity, policy=KeyPolicy([SIZE])),
        )
        hybrid_hr, periodic = self.run_periodic(trace, capacity, True)
        # Sweeping evicts far more documents than on-demand needs...
        assert periodic.eviction_count > on_demand.cache.eviction_count
        assert periodic.sweep_count > 0
        # ...for at best a marginal hit-rate change.
        assert hybrid_hr <= on_demand.hit_rate + 2.0

    def test_pure_periodic_clearly_loses(self, scenario):
        from repro.core import simulate
        trace, capacity = scenario
        on_demand = simulate(
            trace, SimCache(capacity=capacity, policy=KeyPolicy([SIZE])),
        )
        pure_hr, _ = self.run_periodic(trace, capacity, False)
        assert pure_hr < on_demand.hit_rate
