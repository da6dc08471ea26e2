"""Tests for the two-level and shared-second-level hierarchies."""

import pytest

from repro.core import (
    KeyPolicy,
    SIZE,
    SimCache,
    simulate_shared_second_level,
    simulate_two_level,
)
from repro.trace import Request


def req(t, url, size):
    return Request(timestamp=float(t), url=url, size=size)


class TestTwoLevel:
    def test_l2_catches_l1_evictions(self):
        """A document evicted from L1 is still in the infinite L2, so the
        next request for it is an L2 hit."""
        l1 = SimCache(capacity=250, policy=KeyPolicy([SIZE]))
        trace = [
            req(0, "big", 200),
            req(1, "small", 100),   # evicts big from L1
            req(2, "big", 200),     # L1 miss, L2 hit
        ]
        result = simulate_two_level(trace, l1)
        assert result.l1_metrics.total_hits == 0
        assert result.l2_metrics.total_hits == 1

    def test_l1_hit_never_reaches_l2(self):
        l1 = SimCache(capacity=10_000)
        trace = [req(0, "a", 100), req(1, "a", 100)]
        result = simulate_two_level(trace, l1)
        assert result.l1_metrics.total_hits == 1
        # L2 saw one real lookup (the first miss).
        assert result.l2_local_metrics.total_requests == 1

    def test_l2_metrics_over_all_requests(self):
        """The figure convention: L2 HR is over total client traffic.

        The 250-byte L1 thrashes: each access evicts the other document,
        so every request misses L1 and the two re-references hit L2.
        """
        l1 = SimCache(capacity=250, policy=KeyPolicy([SIZE]))
        trace = [
            req(0, "big", 200),
            req(1, "small", 100),   # evicts big from L1
            req(2, "big", 200),     # L1 miss, L2 hit; evicts small
            req(3, "small", 100),   # L1 miss, L2 hit
        ]
        result = simulate_two_level(trace, l1)
        assert result.l1_metrics.total_hits == 0
        assert result.l2_metrics.total_requests == 4
        assert result.l2_metrics.hit_rate == pytest.approx(50.0)
        assert result.l2_local_metrics.total_requests == 4

    def test_l1_plus_l2_bounded_by_infinite(self):
        from repro.workloads import generate_valid
        from repro.core import simulate
        trace = generate_valid("C", seed=3, scale=0.05)
        infinite = simulate(trace, SimCache(capacity=None))
        l1 = SimCache(capacity=100_000, policy=KeyPolicy([SIZE]))
        result = simulate_two_level(trace, l1)
        combined = (
            result.l1_metrics.total_hits + result.l2_metrics.total_hits
        )
        assert combined == infinite.metrics.total_hits

    def test_whr_exceeds_hr_with_size_policy(self):
        """SIZE displaces big documents into L2, so L2 catches bytes more
        than it catches requests (Figures 16-18's signature)."""
        from repro.workloads import generate_valid
        from repro.core.experiments import max_needed_for, run_two_level
        trace = generate_valid("BR", seed=3, scale=0.03)
        result = run_two_level(trace, max_needed_for(trace), fraction=0.10)
        assert (
            result.l2_metrics.weighted_hit_rate
            > result.l2_metrics.hit_rate
        )


class TestSharedSecondLevel:
    def test_cross_workload_sharing(self):
        """A document fetched through one L1 is an L2 hit for the other."""
        traces = {
            "one": [req(0, "shared", 100)],
            "two": [req(5, "shared", 100)],
        }
        shared = simulate_shared_second_level(
            traces, l1_factory=lambda key: SimCache(capacity=50),
        )
        # L1s are too small to hold the document (50 < 100).
        assert shared.l2_metrics.total_hits == 1
        assert shared.l2_hits_by_origin["two"] == 1

    def test_interleaves_by_timestamp(self):
        """Each L1 sees its own workload in timestamp order, and the
        shared L2 sees every L1 miss in the merged timestamp order (the
        L1s are independent, so no order between them is observable)."""
        seen = {}
        class Spy(SimCache):
            def access_run(self, urls, sizes, stamps, types, codes, evicted=None):
                seen.setdefault(self.tag, []).extend(stamps)
                super().access_run(urls, sizes, stamps, types, codes, evicted)

        def spy(tag, capacity):
            cache = Spy(capacity=capacity)
            cache.tag = tag
            return cache

        traces = {
            "a": [req(0, "x", 10), req(10, "y", 10)],
            "b": [req(5, "z", 10)],
        }
        simulate_shared_second_level(
            traces, l1_factory=lambda key: spy(key, 1000), l2=spy("l2", None),
        )
        assert seen == {"a": [0.0, 10.0], "b": [5.0], "l2": [0.0, 5.0, 10.0]}

    def test_per_origin_metrics(self):
        traces = {
            "a": [req(0, "x", 10), req(1, "x", 10)],
            "b": [req(2, "y", 10)],
        }
        shared = simulate_shared_second_level(
            traces, l1_factory=lambda key: SimCache(capacity=1000),
        )
        assert shared.l1_metrics["a"].total_requests == 2
        assert shared.l1_metrics["a"].total_hits == 1
        assert shared.l1_metrics["b"].total_requests == 1
