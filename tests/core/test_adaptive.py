"""Tests for GreedyDual-Size and GDSF."""

import heapq
import random

import pytest

from repro.core import (
    GreedyDualSize,
    SimCache,
    gds_byte_cost,
    gds_hit_cost,
    simulate,
    size_policy,
)
from repro.trace import Request


def req(t, url, size):
    return Request(timestamp=float(t), url=url, size=size)


class TestMechanics:
    def test_min_h_evicted_first(self):
        """With unit cost, H = L + 1/size: the largest document has the
        smallest H and leaves first (SIZE-like)."""
        cache = SimCache(capacity=1000, policy=GreedyDualSize())
        cache.access(req(0, "small", 100))
        cache.access(req(1, "big", 800))
        result = cache.access(req(2, "new", 500))
        assert [e.url for e in result.evicted] == ["big"]

    def test_inflation_rises_on_eviction(self):
        policy = GreedyDualSize()
        cache = SimCache(capacity=1000, policy=policy)
        cache.access(req(0, "a", 500))
        cache.access(req(1, "b", 600))  # evicts a (H = 1/500)
        assert policy.inflation == pytest.approx(1 / 500)

    def test_hit_restores_value(self):
        """A hit re-baselines H at the current inflation, protecting
        recently used documents — the recency component GDS adds over a
        pure SIZE sort."""
        policy = GreedyDualSize()
        cache = SimCache(capacity=1000, policy=policy)
        cache.access(req(0, "idle", 200))
        cache.access(req(1, "hot", 200))
        # Evict something to raise inflation.
        cache.access(req(2, "filler", 700))   # evicts one of the two
        survivors = {e.url for e in cache.entries()}
        assert "filler" in survivors
        # Touch the survivor so its H rises above the old baseline.
        other = (survivors - {"filler"}).pop()
        cache.access(req(3, other, 200))
        assert policy._h[other] > policy.inflation or (
            policy._h[other] == pytest.approx(policy.inflation + 1 / 200)
        )

    def test_gdsf_frequency_raises_value(self):
        policy = GreedyDualSize(with_frequency=True)
        cache = SimCache(capacity=10_000, policy=policy)
        cache.access(req(0, "popular", 400))
        cache.access(req(1, "popular", 400))
        cache.access(req(2, "popular", 400))
        cache.access(req(3, "cold", 400))
        # popular's H = 3 * cost/size, cold's = 1 * cost/size.
        assert policy._h["popular"] > policy._h["cold"]

    def test_gdsf_protects_popular_over_recent(self):
        cache = SimCache(capacity=800, policy=GreedyDualSize(with_frequency=True))
        for t in range(3):
            cache.access(req(t, "popular", 400))
        cache.access(req(3, "recent", 400))
        result = cache.access(req(4, "new", 400))
        assert [e.url for e in result.evicted] == ["recent"]

    def test_byte_cost_is_size_neutral(self):
        """With cost = size, H = L + 1 for every document: eviction
        reduces to FIFO-with-ageing rather than anti-size."""
        policy = GreedyDualSize(cost=gds_byte_cost)
        cache = SimCache(capacity=1000, policy=policy)
        cache.access(req(0, "first", 600))
        cache.access(req(1, "second", 300))
        result = cache.access(req(2, "third", 500))
        assert [e.url for e in result.evicted] == ["first"]

    def test_modified_document_handled(self):
        cache = SimCache(capacity=1000, policy=GreedyDualSize())
        cache.access(req(0, "u", 300))
        cache.access(req(1, "u", 400))  # modified: replace
        assert cache.get("u").size == 400
        # Policy state follows: one live H record for u.
        policy = cache.policy
        assert set(policy._h) == {"u"}

    def test_names(self):
        assert GreedyDualSize().name == "GDS"
        assert GreedyDualSize(with_frequency=True).name == "GDSF"
        assert GreedyDualSize(cost=gds_byte_cost).name == "GDS(bytes)"
        assert "GreedyDual" in GreedyDualSize().describe()


class _NeverCompacted(GreedyDualSize):
    """``_push`` without the compaction: a record a push, for ever."""

    def _push(self, url, value):
        self._h[url] = value
        self._seq = self._newest[url] = seq = self._seq + 1
        heapq.heappush(self._heap, (value, seq, url))


class TestHeapBound:
    """The private heap grows with documents, not hits."""

    DOCUMENTS = 100
    BOUND = 2 * DOCUMENTS + 64

    def hit_heavy(self, policy, hits):
        """Admit 100 documents of mixed sizes that exactly fill the
        cache, hit them ``hits`` times, then flush with one document as
        large as the cache; returns the heap's size before the flush
        and the flush's eviction order."""
        sizes = [10 + 3 * (i % 7) for i in range(self.DOCUMENTS)]
        requests = [req(0, f"doc{i}", size) for i, size in enumerate(sizes)]
        cache = SimCache(sum(sizes), policy)
        for request in requests:
            cache.access_code(request)
        rng = random.Random(8)
        picks = [min(rng.randrange(self.DOCUMENTS), rng.randrange(self.DOCUMENTS))
                 for _ in range(10_000)]
        access = cache.access_code
        for step in range(hits):
            assert access(requests[picks[step % len(picks)]], float(step)) == 0
        heap_size = len(policy._heap)
        evicted = []
        cache.access_code(req(hits, "flush", sum(sizes)), None, evicted)
        assert len(evicted) == self.DOCUMENTS
        return heap_size, [entry.url for entry in evicted]

    @pytest.mark.parametrize("with_frequency", [True, False])
    def test_bounded_over_a_million_hits(self, with_frequency):
        """Under GDSF every hit raises H and pushes a record; the heap is
        compacted past the bound.  Under plain GDS no eviction moves the
        inflation, H does not move, and a hit pushes nothing."""
        policy = GreedyDualSize(with_frequency=with_frequency)
        heap_size, _ = self.hit_heavy(policy, 1_000_000)
        assert heap_size <= self.BOUND
        if not with_frequency:
            assert heap_size == self.DOCUMENTS

    def test_compaction_keeps_the_eviction_order(self):
        """200,000 GDSF hits: the flush evicts in exactly the order a
        never-compacted policy gives (whose heap holds a record a hit)."""
        hits = 200_000
        heap_size, order = self.hit_heavy(
            GreedyDualSize(with_frequency=True), hits,
        )
        reference_size, reference_order = self.hit_heavy(
            _NeverCompacted(with_frequency=True), hits,
        )
        assert heap_size <= self.BOUND < reference_size == hits + self.DOCUMENTS
        assert order == reference_order

    @pytest.mark.parametrize("with_frequency", [False, True])
    @pytest.mark.parametrize("cost", [gds_hit_cost, gds_byte_cost])
    def test_compaction_never_moves_a_result(self, cost, with_frequency):
        """On a generated trace (evictions, modified documents, H values
        that tie) a record is live iff it is its document's newest, so
        dropping the others cannot change a victim."""
        from repro.workloads import generate_valid
        from repro.core.experiments import max_needed_for
        trace = generate_valid("BR", seed=23, scale=0.05)
        capacity = max(1, int(0.1 * max_needed_for(trace)))
        compacted, reference = (
            simulate(trace, SimCache(capacity, cls(cost, with_frequency)))
            for cls in (GreedyDualSize, _NeverCompacted)
        )
        assert compacted.metrics.total_hits == reference.metrics.total_hits
        assert compacted.metrics.total_bytes_hit == reference.metrics.total_bytes_hit
        assert compacted.cache.eviction_count == reference.cache.eviction_count
        assert len(compacted.cache.policy._heap) <= len(reference.cache.policy._heap)


class TestOnWorkload:
    @pytest.fixture(scope="class")
    def scenario(self):
        from repro.workloads import generate_valid
        from repro.core.experiments import max_needed_for
        trace = generate_valid("BL", seed=23, scale=0.05)
        capacity = max(1, int(0.1 * max_needed_for(trace)))
        return trace, capacity

    def run(self, scenario, policy):
        trace, capacity = scenario
        return simulate(trace, SimCache(capacity=capacity, policy=policy))

    def test_gds_competitive_with_size_on_hr(self, scenario):
        gds = self.run(scenario, GreedyDualSize())
        size = self.run(scenario, size_policy())
        assert gds.hit_rate > 0.85 * size.hit_rate

    def test_gdsf_beats_lru(self, scenario):
        from repro.core import lru
        gdsf = self.run(scenario, GreedyDualSize(with_frequency=True))
        lru_result = self.run(scenario, lru())
        assert gdsf.hit_rate > lru_result.hit_rate

    def test_byte_cost_improves_whr_over_unit_cost(self, scenario):
        """The design goal of the cost function: byte cost trades hit rate
        for weighted hit rate."""
        unit = self.run(scenario, GreedyDualSize())
        byte = self.run(scenario, GreedyDualSize(cost=gds_byte_cost))
        assert byte.weighted_hit_rate > unit.weighted_hit_rate
        assert unit.hit_rate > byte.hit_rate
