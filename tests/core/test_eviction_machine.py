"""Stateful property test of the eviction path: ``HeapIndex`` against
``NaiveIndex``, step by step, for every policy the index serves.

Two caches with the same policy and seed — one on the lazy heap, one on
the re-sort-per-eviction reference — take the same steps: accesses (hit,
miss, modified, too large, with a clock that may run backwards),
explicit removals and periodic sweeps (``SimCache._make_room``, the one
eviction loop ``PeriodicRemovalCache.sweep`` runs).  After every step
they must agree on the outcome, on every victim in order, and on the
occupancy and eviction counters.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.core import (
    ATIME, LATENCY, NREF, RANDOM, SIZE, TTL, TYPE_PRIORITY, KeyPolicy,
    SimCache, taxonomy_policies,
)
from repro.trace import DocumentType, Request

POLICIES = taxonomy_policies() + [
    KeyPolicy([RANDOM]),
    KeyPolicy([TYPE_PRIORITY, SIZE]),
    KeyPolicy([LATENCY, NREF]),
    KeyPolicy([TTL, ATIME]),
]
TYPES = list(DocumentType)
URLS = 12


def estimate_latency(request):
    return (request.size % 7) * 0.25


def assign_expiry(request, now):
    return now + (request.size % 5) * 43200.0


class EvictionMachine(RuleBasedStateMachine):
    def __init__(self, policy):
        super().__init__()
        self.policy = policy

    @initialize(
        capacity=st.integers(min_value=120, max_value=600),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def build(self, capacity, seed):
        self.capacity = capacity
        self.heap, self.naive = (
            SimCache(
                capacity, self.policy, seed=seed, use_heap_index=use_heap,
                latency_estimator=estimate_latency,
                ttl_assigner=assign_expiry,
            )
            for use_heap in (True, False)
        )

    @rule(
        uid=st.integers(min_value=0, max_value=URLS - 1),
        variant=st.sampled_from([0, 0, 0, 0, 1, 2]),  # 0: the url's usual size
        now=st.integers(min_value=0, max_value=4 * 86400),  # any order
    )
    def access(self, uid, variant, now):
        size = (
            self.capacity + 1 if variant == 2           # too large
            else 10 + 17 * uid + 5 * variant            # 1: modified
        )
        request = Request(
            timestamp=float(now), url=f"u{uid}", size=size,
            doc_type=TYPES[uid % len(TYPES)],
        )
        heap_evicted, naive_evicted = [], []
        assert (
            self.heap.access_code(request, float(now), heap_evicted)
            == self.naive.access_code(request, float(now), naive_evicted)
        )
        assert urls(heap_evicted) == urls(naive_evicted)

    @rule(uid=st.integers(min_value=0, max_value=URLS - 1))
    def remove(self, uid):
        heap_gone = self.heap.remove(f"u{uid}")
        naive_gone = self.naive.remove(f"u{uid}")
        assert (heap_gone is None) == (naive_gone is None)

    @rule(
        comfort=st.sampled_from([0.0, 0.3, 0.5, 0.8]),
        now=st.integers(min_value=0, max_value=4 * 86400),
    )
    def sweep(self, comfort, now):
        room = self.capacity - int(self.capacity * comfort)
        heap_swept, naive_swept = [], []
        self.heap._make_room(room, float(now), heap_swept)
        self.naive._make_room(room, float(now), naive_swept)
        assert urls(heap_swept) == urls(naive_swept)
        assert self.heap.used_bytes <= self.capacity - room

    @invariant()
    def caches_agree(self):
        for cache in (self.heap, self.naive):
            assert cache.used_bytes == sum(e.size for e in cache.entries())
            assert cache.used_bytes <= self.capacity
        assert sorted(e.url for e in self.heap.entries()) == sorted(
            e.url for e in self.naive.entries()
        )
        assert self.heap.eviction_count == self.naive.eviction_count
        assert self.heap.evicted_bytes == self.naive.evicted_bytes


def urls(entries):
    return [entry.url for entry in entries]


@pytest.mark.parametrize("policy", POLICIES, ids=lambda policy: policy.name)
def test_heap_and_naive_evict_alike(policy):
    run_state_machine_as_test(
        lambda: EvictionMachine(policy),
        settings=settings(
            max_examples=12, stateful_step_count=40, deadline=None,
        ),
    )
