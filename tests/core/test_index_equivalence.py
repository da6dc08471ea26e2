"""Property tests: the heap index must behave exactly like the naive
re-sort index for every policy in the taxonomy, on arbitrary traces.

This is the core correctness argument for the O(log n) eviction path: any
divergence in hit sequence, eviction order, or final contents between
:class:`HeapIndex` and :class:`NaiveIndex` is a bug.
"""

import heapq
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ATIME, NREF, RANDOM, TAXONOMY_KEYS, KeyPolicy, SimCache,
    taxonomy_policies,
)
from repro.core.cache import HIT, EvictionIndex
from repro.core.experiments import max_needed_for
from repro.trace import Request
from repro.workloads import generate_valid

POLICIES = taxonomy_policies()
POLICY_IDS = [p.name for p in POLICIES]


def drive(cache, trace):
    """Run a trace; return (hit pattern, eviction sequence, final urls)."""
    hits = []
    evictions = []
    for request in trace:
        result = cache.access(request)
        hits.append(result.is_hit)
        evictions.extend(e.url for e in result.evicted)
    return hits, evictions, sorted(e.url for e in cache.entries())


trace_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15),   # url id
        st.integers(min_value=1, max_value=400),  # size
    ),
    min_size=1,
    max_size=80,
).map(lambda pairs: [
    Request(timestamp=float(i), url=f"u{uid}", size=size)
    for i, (uid, size) in enumerate(pairs)
])


@pytest.mark.parametrize("policy_index", range(len(POLICIES)), ids=POLICY_IDS)
@given(trace=trace_strategy, capacity=st.integers(min_value=50, max_value=900))
@settings(max_examples=25, deadline=None)
def test_heap_equals_naive(policy_index, trace, capacity):
    """Identical behaviour for this policy on an arbitrary trace.

    Sizes in the trace are fixed per URL id?  No — a URL may recur with a
    different size, exercising the modified-document path too.
    """
    keys = POLICIES[policy_index].keys
    heap_cache = SimCache(
        capacity=capacity, policy=KeyPolicy(keys), seed=7, use_heap_index=True,
    )
    naive_cache = SimCache(
        capacity=capacity, policy=KeyPolicy(keys), seed=7, use_heap_index=False,
    )
    heap_out = drive(heap_cache, trace)
    naive_out = drive(naive_cache, trace)
    assert heap_out == naive_out
    assert heap_cache.used_bytes == naive_cache.used_bytes
    assert heap_cache.eviction_count == naive_cache.eviction_count


#: Primary/secondary pairs of distinct Table 1 keys — the RANDOM tertiary
#: tie-break is appended implicitly by KeyPolicy, which is exactly the
#: configuration under test below.
TERTIARY_PAIRS = [
    (primary, secondary)
    for primary, secondary in itertools.permutations(TAXONOMY_KEYS, 2)
]


@given(
    pair=st.sampled_from(TERTIARY_PAIRS),
    trace=trace_strategy,
    capacity=st.integers(min_value=50, max_value=900),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=120, deadline=None)
def test_random_tertiary_key_heap_equals_naive(pair, trace, capacity, seed):
    """With the implicit RANDOM tertiary tie-break and a fixed seed, the
    heap and naive indexes produce identical eviction sequences for every
    primary/secondary key pair.

    RANDOM stamps are drawn per admitted copy from the cache's seeded
    RNG, so two caches built with the same seed assign identical stamps
    request-for-request — index choice must not change anything.
    """
    primary, secondary = pair
    policy_keys = KeyPolicy([primary, secondary]).keys
    assert policy_keys[-1] is RANDOM  # the tertiary tie-break is in play
    heap_cache = SimCache(
        capacity=capacity, policy=KeyPolicy([primary, secondary]),
        seed=seed, use_heap_index=True,
    )
    naive_cache = SimCache(
        capacity=capacity, policy=KeyPolicy([primary, secondary]),
        seed=seed, use_heap_index=False,
    )
    heap_hits, heap_evictions, heap_urls = drive(heap_cache, trace)
    naive_hits, naive_evictions, naive_urls = drive(naive_cache, trace)
    assert heap_evictions == naive_evictions
    assert heap_hits == naive_hits
    assert heap_urls == naive_urls


@given(trace=trace_strategy, capacity=st.integers(min_value=50, max_value=900))
@settings(max_examples=100, deadline=None)
def test_cache_invariants(trace, capacity):
    """Structural invariants hold on arbitrary traces (SIZE policy)."""
    cache = SimCache(capacity=capacity, seed=3)
    for request in trace:
        cache.access(request)
        # Occupancy accounting is exact.
        assert cache.used_bytes == sum(e.size for e in cache.entries())
        assert cache.used_bytes <= capacity
        assert cache.max_used_bytes <= capacity
        # No duplicate URLs.
        urls = [e.url for e in cache.entries()]
        assert len(urls) == len(set(urls))


# -- past the compaction threshold --------------------------------------------

@given(
    policy_index=st.integers(min_value=0, max_value=len(POLICIES) - 1),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    capacity=st.integers(min_value=700, max_value=1600),
    length=st.integers(min_value=2000, max_value=2600),
)
@settings(max_examples=30, deadline=None)
def test_long_hit_heavy_runs_heap_equals_naive(
    policy_index, seed, capacity, length,
):
    """Thousands of hit-heavy steps with removals and mid-trace size
    changes push the heap through many compactions; the victim of every
    step must equal the naive index's, and occupancy must stay exact.

    The steps are drawn from ``random.Random(seed)`` (hypothesis cannot
    usefully shrink a 2,000-element list): 12 hot urls that about fit
    the cache take 95% of the steps, 48 cold ones force evictions; 3% of
    steps are an explicit ``cache.remove`` and 3% request the url's
    other size."""
    rng = random.Random(seed)
    steps = []
    for _ in range(length):
        roll = rng.random()
        uid = rng.randrange(12, 60) if roll < 0.05 else rng.randrange(12)
        steps.append(
            (uid, None if 0.05 <= roll < 0.08 else int(0.08 <= roll < 0.11))
        )
    keys = POLICIES[policy_index].keys
    heap_cache = SimCache(capacity, KeyPolicy(keys), seed=seed)
    naive_cache = SimCache(
        capacity, KeyPolicy(keys), seed=seed, use_heap_index=False,
    )
    for clock, (uid, variant) in enumerate(steps):
        url = f"u{uid}"
        if variant is None:
            removed = heap_cache.remove(url), naive_cache.remove(url)
            assert (removed[0] is None) == (removed[1] is None)
        else:
            request = Request(
                timestamp=clock * 700.0, url=url,
                size=30 + 7 * (uid % 12) + 25 * variant,
            )
            heap_result = heap_cache.access(request)
            naive_result = naive_cache.access(request)
            assert heap_result.outcome == naive_result.outcome
            assert (
                [e.url for e in heap_result.evicted]
                == [e.url for e in naive_result.evicted]
            )
        for cache in (heap_cache, naive_cache):
            assert cache.used_bytes == sum(e.size for e in cache.entries())
            assert cache.used_bytes <= capacity


# -- hits never reach the index -------------------------------------------------

@pytest.mark.parametrize("primary", [ATIME, NREF], ids=lambda key: key.name)
def test_hits_leave_the_heap_unchanged(primary):
    """A hit under a mutable key pushes nothing: the entry's one record
    is revalued only if it surfaces at the heap head."""
    cache = SimCache(1000, KeyPolicy([primary, RANDOM]), seed=5)
    requests = [Request(timestamp=0.0, url=f"d{i}", size=10) for i in range(20)]
    for request in requests:
        cache.access_code(request)
    for step in range(500):
        assert cache.access_code(requests[step % 7], float(step)) == HIT
    assert len(cache._index._heap) == len(requests)


# -- the parent's index as the oracle -----------------------------------------

class _EagerHeapIndex(EvictionIndex):
    """``HeapIndex`` as it stood before lazy revaluation (commit 6fcf92e),
    verbatim: every hit of a mutable-key policy pushes a fresh record."""

    #: Stale records tolerated beyond one per live entry.
    SLACK = 64

    def __init__(self, policy, entries) -> None:
        super().__init__(policy, entries)
        self._heap = []
        self._seq = 0
        self.tracks_hits = policy.mutable

    def add(self, entry) -> None:
        self._seq = entry.heap_seq = seq = self._seq + 1
        heap = self._heap
        heapq.heappush(heap, (self.policy.sort_value(entry), seq, entry))
        if len(heap) > 2 * len(self._entries) + self.SLACK:
            heap[:] = [record for record in heap if record[2].heap_seq == record[1]]
            heapq.heapify(heap)

    on_touch = add

    def pop_head(self):
        heap = self._heap
        while heap:
            _, seq, entry = heapq.heappop(heap)
            if entry.heap_seq == seq:
                return entry
        raise LookupError("cannot evict from an empty cache")


def eager_cache(capacity, keys, seed):
    """A cache whose every hit reaches an :class:`_EagerHeapIndex`, as
    the parent's hit path did (through the otherwise unused hit hook)."""
    cache = SimCache(capacity, KeyPolicy(keys), seed=seed)
    cache._index = _EagerHeapIndex(cache.policy, cache._entries)
    cache._index_touch = None
    if cache._index.tracks_hits:
        cache._on_hit = cache._index.on_touch
    return cache


@pytest.fixture(scope="module")
def br_trace():
    trace = generate_valid("BR", seed=4242, scale=0.02)
    return trace, max_needed_for(trace) // 10


@pytest.mark.parametrize("policy_index", range(len(POLICIES)), ids=POLICY_IDS)
def test_same_victims_as_the_eager_index_on_a_trace(policy_index, br_trace):
    """Victim for victim, at every eviction of a generated BR trace at
    10% of MaxNeeded — not merely equal totals."""
    trace, capacity = br_trace
    keys = POLICIES[policy_index].keys
    lazy = SimCache(capacity, KeyPolicy(keys), seed=11)
    eager = eager_cache(capacity, keys, seed=11)
    for request in trace:
        lazy_evicted, eager_evicted = [], []
        assert (
            lazy.access_code(request, None, lazy_evicted)
            == eager.access_code(request, None, eager_evicted)
        )
        assert (
            [entry.url for entry in lazy_evicted]
            == [entry.url for entry in eager_evicted]
        )
    assert lazy.eviction_count == eager.eviction_count > 0


# -- a clock that runs backwards ------------------------------------------------

clock_steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=11),        # url id
        st.sampled_from([0, 0, 0, 0, 0, 1]),           # the url's other size
        st.integers(min_value=0, max_value=4 * 86400),  # now, any order
        st.sampled_from([False] * 15 + [True]),         # explicit remove
    ),
    min_size=1,
    max_size=120,
)


@pytest.mark.parametrize("policy_index", range(len(POLICIES)), ids=POLICY_IDS)
@given(steps=clock_steps, capacity=st.integers(min_value=120, max_value=600))
@settings(max_examples=40, deadline=None)
def test_heap_equals_naive_under_a_non_monotone_clock(
    policy_index, steps, capacity,
):
    """``now=`` may fall between accesses (an explicit ``now``, the live
    proxy's wall clock): a hit can then *lower* ATIME and DAY(ATIME), the
    one case in which the hit path must tell the index.  Fails if the
    ``now < entry.atime`` branch of ``access_code`` is deleted."""
    keys = POLICIES[policy_index].keys
    heap_cache = SimCache(capacity, KeyPolicy(keys), seed=9)
    naive_cache = SimCache(capacity, KeyPolicy(keys), seed=9, use_heap_index=False)
    for uid, variant, now, remove in steps:
        url = f"u{uid}"
        if remove:
            removed = heap_cache.remove(url), naive_cache.remove(url)
            assert (removed[0] is None) == (removed[1] is None)
            continue
        request = Request(
            timestamp=0.0, url=url, size=30 + 7 * uid + 25 * variant,
        )
        heap_result = heap_cache.access(request, float(now))
        naive_result = naive_cache.access(request, float(now))
        assert heap_result.outcome == naive_result.outcome
        assert (
            [e.url for e in heap_result.evicted]
            == [e.url for e in naive_result.evicted]
        )
    assert (
        sorted(e.url for e in heap_cache.entries())
        == sorted(e.url for e in naive_cache.entries())
    )


def test_heap_stays_bounded_over_a_million_hits():
    """ROADMAP 4b: the heap grows with documents, not hits.  One million
    hits over 100 resident documents under NREF/RANDOM — no hit reaches
    the index — must leave the heap at one record a document, and the
    evictions that follow (every record revalued at the head) must come
    in the naive index's order."""
    documents, hits = 100, 1_000_000
    requests = [
        Request(timestamp=0.0, url=f"doc{i}", size=10) for i in range(documents)
    ]
    caches = [
        SimCache(
            10 * documents, KeyPolicy([NREF, RANDOM]), seed=3,
            use_heap_index=use_heap,
        )
        for use_heap in (True, False)
    ]
    rng = random.Random(8)
    picks = [min(rng.randrange(documents), rng.randrange(documents))
             for _ in range(10_000)]
    for cache in caches:
        for request in requests:
            cache.access_code(request)
        access = cache.access_code
        for step in range(hits):
            assert access(requests[picks[step % len(picks)]], float(step)) == HIT
    assert len(caches[0]._index._heap) == documents
    # One document as large as the cache evicts everything, in order.
    flush = Request(timestamp=float(hits), url="flush", size=10 * documents)
    evictions = []
    for cache in caches:
        evicted = []
        cache.access_code(flush, None, evicted)
        evictions.append([entry.url for entry in evicted])
    assert evictions[0] == evictions[1]
    assert len(evictions[0]) == documents
