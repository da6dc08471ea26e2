"""Property tests on multi-cache invariants (two-level, partitioned,
cooperative)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    KeyPolicy,
    PartitionedCache,
    SIZE,
    SimCache,
    replay,
    simulate,
    simulate_two_level,
)
from repro.core.cooperative import CooperativeGroup
from repro.trace import Request

trace_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),    # url id
        st.integers(min_value=1, max_value=300),   # size
    ),
    min_size=1,
    max_size=60,
).map(lambda pairs: [
    Request(
        timestamp=float(i),
        url=f"u{uid}",
        size=size,
    )
    for i, (uid, size) in enumerate(pairs)
])


@given(trace=trace_strategy, capacity=st.integers(min_value=100, max_value=800))
@settings(max_examples=100, deadline=None)
def test_two_level_hit_partition(trace, capacity):
    """L1 hits + L2 hits always equal the infinite-cache hits, and the L2
    (being infinite and loaded on every miss) never misses a re-consistent
    document."""
    l1 = SimCache(capacity=capacity, policy=KeyPolicy([SIZE]), seed=2)
    result = simulate_two_level(trace, l1)
    infinite = simulate(trace, SimCache(capacity=None))
    combined = result.l1_metrics.total_hits + result.l2_metrics.total_hits
    assert combined == infinite.metrics.total_hits
    assert result.l1_metrics.total_requests == len(trace)
    assert result.l2_metrics.total_requests == len(trace)
    # Occupancy sanity on both levels.
    assert result.l1_cache.used_bytes <= capacity
    assert result.l2_cache.used_bytes == sum(
        e.size for e in result.l2_cache.entries()
    )


@given(trace=trace_strategy, capacity=st.integers(min_value=100, max_value=800))
@settings(max_examples=100, deadline=None)
def test_partitioned_accounting(trace, capacity):
    """Partition class metrics each count every request; class hits sum to
    the overall hits; partitions never exceed their own capacities."""
    partitions = {
        "even": SimCache(capacity=capacity, policy=KeyPolicy([SIZE])),
        "odd": SimCache(capacity=capacity, policy=KeyPolicy([SIZE])),
    }
    cache = PartitionedCache(
        partitions,
        classify=lambda r: "even" if len(r.url) % 2 == 0 else "odd",
    )
    replay(trace, cache.access_run, cache.overall, [])
    class_hits = sum(
        collector.total_hits for collector in cache.class_metrics.values()
    )
    assert class_hits == cache.overall.total_hits
    for collector in cache.class_metrics.values():
        assert collector.total_requests == len(trace)
    for partition in partitions.values():
        assert partition.used_bytes <= capacity


@given(trace=trace_strategy, capacity=st.integers(min_value=100, max_value=800))
@settings(max_examples=100, deadline=None)
def test_cooperative_accounting(trace, capacity):
    """Outcomes partition the request stream: every request is exactly one
    of local / sibling / origin."""
    group = CooperativeGroup({
        "a": SimCache(capacity=capacity, policy=KeyPolicy([SIZE]), seed=1),
        "b": SimCache(capacity=capacity, policy=KeyPolicy([SIZE]), seed=2),
    })
    outcomes = {"local": 0, "sibling": 0, "origin": 0}
    for index, request in enumerate(trace):
        member = "a" if index % 2 == 0 else "b"
        outcomes[group.access(member, request)] += 1
    assert sum(outcomes.values()) == len(trace)
    result = group
    assert result.total_requests == len(trace)
    assert sum(result.sibling_hits.values()) == outcomes["sibling"]
    assert sum(result.origin_fetches.values()) == outcomes["origin"]
    local_hits = sum(
        collector.total_hits for collector in result.local_metrics.values()
    )
    assert local_hits == outcomes["local"]
