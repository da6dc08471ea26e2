"""Tests for cooperating sibling caches."""

import pytest

from repro.core import KeyPolicy, SIZE, SimCache
from repro.core.cooperative import CooperativeGroup, simulate_cooperative
from repro.trace import Request


def req(t, url, size):
    return Request(timestamp=float(t), url=url, size=size)


def make_group(capacity=10_000):
    return CooperativeGroup({
        "a": SimCache(capacity=capacity, policy=KeyPolicy([SIZE])),
        "b": SimCache(capacity=capacity, policy=KeyPolicy([SIZE])),
    })


class TestGroup:
    def test_needs_two_members(self):
        with pytest.raises(ValueError):
            CooperativeGroup({"solo": SimCache(capacity=10)})

    def test_unknown_member(self):
        group = make_group()
        with pytest.raises(KeyError):
            group.access("c", req(0, "u", 10))

    def test_local_hit(self):
        group = make_group()
        group.access("a", req(0, "u", 100))
        assert group.access("a", req(1, "u", 100)) == "local"

    def test_sibling_hit(self):
        group = make_group()
        assert group.access("a", req(0, "u", 100)) == "origin"
        assert group.access("b", req(1, "u", 100)) == "sibling"
        # The copy now lives in b too: a third population-b request hits
        # locally.
        assert group.access("b", req(2, "u", 100)) == "local"

    def test_sibling_query_does_not_touch_recency(self):
        group = make_group()
        group.access("a", req(0, "u", 100))
        entry_before = group.caches["a"].get("u")
        nref_before = entry_before.nref
        group.access("b", req(5, "u", 100))  # sibling query
        assert group.caches["a"].get("u").nref == nref_before

    def test_modified_copy_not_a_sibling_hit(self):
        group = make_group()
        group.access("a", req(0, "u", 100))
        # b requests the document at a *different* size: a's copy is
        # inconsistent, so the bytes must come from the origin.
        assert group.access("b", req(1, "u", 150)) == "origin"

    def test_counters(self):
        group = make_group()
        group.access("a", req(0, "u", 100))
        group.access("b", req(1, "u", 100))
        group.access("b", req(2, "u", 100))
        result = group
        assert result.total_requests == 3
        assert result.sibling_hits == {"a": 0, "b": 1}
        assert result.origin_fetches == {"a": 1, "b": 0}
        assert result.group_hit_rate == pytest.approx(100 * 2 / 3)
        assert result.sibling_hit_rate == pytest.approx(100 / 3)

    def test_empty_result_rates(self):
        empty = make_group()
        assert empty.group_hit_rate == 0.0
        assert empty.sibling_hit_rate == 0.0


class TestSimulateCooperative:
    def test_interleaves_and_shares(self):
        # Two populations over the same document set, shifted in time:
        # population b benefits from a's earlier fetches.
        trace_a = [req(i * 10, f"u{i % 4}", 100) for i in range(8)]
        trace_b = [req(i * 10 + 5, f"u{i % 4}", 100) for i in range(8)]
        result = simulate_cooperative(
            {"a": trace_a, "b": trace_b},
            cache_factory=lambda name: SimCache(capacity=10_000),
        )
        assert result.sibling_hits["b"] > 0
        assert result.total_requests == 16
        # Every document fetched from the origin exactly once overall.
        assert sum(result.origin_fetches.values()) == 4

    def test_disjoint_populations_no_sibling_hits(self):
        trace_a = [req(i, f"a{i}", 50) for i in range(5)]
        trace_b = [req(i, f"b{i}", 50) for i in range(5)]
        result = simulate_cooperative(
            {"a": trace_a, "b": trace_b},
            cache_factory=lambda name: SimCache(capacity=10_000),
        )
        assert result.sibling_hit_rate == 0.0
        assert sum(result.origin_fetches.values()) == 10
