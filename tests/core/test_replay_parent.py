"""The batched access path against the per-request one it replaced.

Copied verbatim below, from commit ``ab3ae64`` (the last one whose
replay called the cache once per request): ``replay`` and ``_close_day``
from ``repro.core.simulator``, ``SimCache.access_code`` and
``SimCache._make_room`` from ``repro.core.cache``,
``MetricsCollector.advance_to`` (which ``_close_day`` calls; today's
collector adds increments instead), the per-request
``access_code`` of the two-level, partitioned and periodic caches, and
the shared-L2 loop.  They run on top of today's ``SimCache`` internals
(entries, index, hooks), so each case replays the same trace twice —
once through the old loop, once through today's ``simulate`` or
topology driver — and compares five things: the per-day ``DayStats``
(in insertion order), the end-of-day occupancy, the outcome
``Counter``, the eviction sequence and the final entries.
"""

import random
from collections import Counter

import pytest

from repro.core import (
    ATIME,
    KeyPolicy,
    LRUMin,
    MetricsCollector,
    NREF,
    PeriodicRemovalCache,
    RANDOM,
    SIZE,
    SimCache,
    simulate,
    taxonomy_policies,
)
from repro.core.cache import HIT, MISS, MISS_MODIFIED, MISS_TOO_LARGE, OUTCOMES
from repro.core.entry import CacheEntry
from repro.core.metrics import DayStats
from repro.core.experiments import max_needed_for
from repro.core.multilevel import simulate_shared_second_level, simulate_two_level
from repro.core.partitioned import audio_partition, simulate_partitioned
from repro.trace import (
    Request,
    TraceValidator,
    read_clf_lines,
    write_clf_lines,
)
from repro.trace.tools import merge_tagged
from repro.workloads import generate_valid

SEED, SCALE, FRACTION = 1996, 0.04, 0.10
DAY = 86400


# -- the parent's code, verbatim ---------------------------------------------


def replay(trace, access, metrics, streams):
    counts = [0] * len(OUTCOMES)
    bytes_requested = bytes_hit = 0
    day = None
    day_start = day_end = 0.0  # empty, so the first request opens a day
    for request in trace:
        timestamp = request.timestamp
        if not day_start <= timestamp < day_end:
            _close_day(day, metrics, streams, counts, bytes_requested, bytes_hit)
            day = int(timestamp // 86400)
            day_start, day_end = day * 86400.0, (day + 1) * 86400.0
        code = access(request)
        counts[code] += 1
        size = request.size
        bytes_requested += size
        if code == HIT:
            bytes_hit += size
    _close_day(day, metrics, streams, counts, bytes_requested, bytes_hit)
    return Counter({
        OUTCOMES[code]: count for code, count in enumerate(counts) if count
    })


def _close_day(day, metrics, streams, counts, bytes_requested, bytes_hit):
    if day is None:  # no day is open before the first request
        return
    metrics.advance_to(
        day, sum(counts), counts[HIT], bytes_requested, bytes_hit,
    )
    for collector, cache in streams:
        collector.occupancy[day] = (cache.used_bytes, len(cache))


class ParentMetrics(MetricsCollector):
    """Today's collector, with the parent's ``advance_to``."""

    def advance_to(
        self, day: int, requests: int, hits: int,
        bytes_requested: int, bytes_hit: int,
    ) -> None:
        stats = self.days.get(day)
        if stats is None:  # get-then-insert: no DayStats built per call
            stats = self.days[day] = DayStats()
        stats.requests += requests - self.total_requests
        stats.hits += hits - self.total_hits
        stats.bytes_requested += bytes_requested - self.total_bytes_requested
        stats.bytes_hit += bytes_hit - self.total_bytes_hit
        self.total_requests = requests
        self.total_hits = hits
        self.total_bytes_requested = bytes_requested
        self.total_bytes_hit = bytes_hit


class ParentCache(SimCache):
    """Today's cache state, driven by the parent's access path."""

    def access_code(
        self,
        request,
        now=None,
        evicted=None,
    ):
        timer = self._phases
        if timer is not None:
            clock = timer.clock
            start = clock()
        if now is None:
            now = request.timestamp
        size = request.size
        entry = self._entries.get(request.url)
        code = MISS
        if entry is not None:
            if entry.size == size:
                # Only a clock running backwards lowers a sort value (HeapIndex).
                backwards = now < entry.atime
                entry.atime = now
                entry.nref += 1
                if backwards and self._index_touch is not None:
                    self._index_touch(entry)
                if self._on_hit is not None:
                    self._on_hit(entry)
                if timer is not None:
                    timer.observe("lookup", clock() - start)
                return HIT
            # Modified document: the cached copy is inconsistent.  The
            # access stays MISS_MODIFIED even if the new copy cannot fit.
            self._remove_entry(entry)
            code = MISS_MODIFIED
        if timer is not None:
            timer.observe("lookup", clock() - start)
        capacity = self.capacity
        if capacity is not None and size > capacity:
            return MISS_TOO_LARGE if code == MISS else code
        if timer is not None:
            start = clock()
        if capacity is not None and capacity - self.used_bytes < size:
            self._make_room(size, now, evicted)
        if timer is not None:
            admit_start = clock()
            timer.observe("evict", admit_start - start)
        latency = self._latency_estimator
        expires = self._ttl_assigner
        entry = CacheEntry(  # positionally: keywords cost ~0.4 us a miss
            request.url, size, now, now, 1, request.media_type,
            self._random(),
            latency(request) if latency is not None else 0.0,
            expires(request, now) if expires is not None else None,
        )
        self._entries[entry.url] = entry
        self.used_bytes = used = self.used_bytes + size
        if used > self.max_used_bytes:
            self.max_used_bytes = used
        if self._index is not None:
            self._index.add(entry)
        if self._on_admit is not None:
            self._on_admit(entry)
        if timer is not None:
            timer.observe("admit", clock() - admit_start)
        return code

    def _make_room(
        self, size, now, evicted,
    ):
        entries = self._entries
        index = self._index
        on_remove = self._on_remove
        on_evict = self._on_evict
        while self.capacity - self.used_bytes < size:
            if index is not None:
                victim = index.pop_head()
            else:
                victim = self.policy.choose_victim(
                    list(entries.values()), size, now
                )
            del entries[victim.url]
            victim.heap_seq = 0  # its heap records are stale from here on
            self.used_bytes -= victim.size
            self.eviction_count += 1
            self.evicted_bytes += victim.size
            if on_remove is not None:
                on_remove(victim)
            if evicted is not None:
                evicted.append(victim)
            if on_evict is not None:
                on_evict(victim)


class ParentPeriodic(ParentCache):
    """``PeriodicRemovalCache`` as the parent wrote it, on the parent's path."""

    def __init__(
        self, capacity, policy=None, seed=0, period=86400.0,
        comfort_level=0.8, on_demand=True, on_evict=None,
    ):
        super().__init__(capacity, policy, seed, on_evict=on_evict)
        self.period = period
        self.comfort_level = comfort_level
        self.on_demand = on_demand
        self.sweep_count = 0
        self.swept_entries = 0
        self._next_sweep = None

    def access_code(
        self, request, now=None,
        evicted=None,
    ):
        if now is None:
            now = request.timestamp
        if self._next_sweep is None:
            self._next_sweep = (now // self.period + 1) * self.period
        while now >= self._next_sweep:
            self.sweep(self._next_sweep)
            self._next_sweep += self.period
        if not self.on_demand:
            # Pure-periodic mode: misses that do not fit are not cached.
            entry = self.get(request.url)
            if entry is None or entry.size != request.size:
                free = self.capacity - self.used_bytes
                if entry is not None:
                    free += entry.size  # replacing the stale copy frees its room
                if request.size > free:
                    if entry is not None:
                        self.remove(request.url)
                        return MISS_MODIFIED
                    return MISS_TOO_LARGE
        return super().access_code(request, now, evicted)

    def sweep(self, now):
        target = int(self.capacity * self.comfort_level)
        removed = []
        self._make_room(self.capacity - target, now, removed)
        self.sweep_count += 1
        self.swept_entries += len(removed)
        return removed


class ParentTwoLevel:
    def __init__(self, l1, l2, name=""):
        self.l1_cache = l1
        self.l2_cache = l2
        self.name = name
        self.l1_metrics = ParentMetrics()
        self.l2_metrics = MetricsCollector()
        self.l2_local_metrics = MetricsCollector()

    def access_code(self, request):
        code = self.l1_cache.access_code(request)
        l2_hit = code != HIT and self.l2_cache.access_code(request) == HIT
        self.l2_metrics.record(request, l2_hit)
        if code != HIT:
            self.l2_local_metrics.record(request, l2_hit)
        return code


def parent_shared_second_level(traces, l1_factory, l2):
    hierarchies = {key: ParentTwoLevel(l1_factory(key), l2, name=key) for key in traces}
    l2_metrics = MetricsCollector()
    for hierarchy in hierarchies.values():
        hierarchy.l2_metrics = l2_metrics
    for key, request in merge_tagged(traces):
        hierarchy = hierarchies[key]
        hierarchy.l1_metrics.record(request, hierarchy.access_code(request) == HIT)
    return hierarchies, l2_metrics


class ParentPartitioned:
    def __init__(self, partitions, classify=audio_partition, name=""):
        self.partitions = partitions
        self.classify = classify
        self.name = name
        self.class_metrics = {part: MetricsCollector() for part in partitions}
        self.overall = ParentMetrics()

    def access_code(self, request):
        name = self.classify(request)
        try:
            cache = self.partitions[name]
        except KeyError:
            raise KeyError(
                f"classifier produced unknown partition {name!r}"
            ) from None
        code = cache.access_code(request)
        # Every class's collector sees every request, so rates are over
        # total traffic (the Figures 19-20 convention).
        for metric_name, collector in self.class_metrics.items():
            collector.record(request, code == HIT and metric_name == name)
        return code


# -- what is compared --------------------------------------------------------


def collector_view(collector):
    """Per-day counters in insertion order, occupancy, and the totals."""
    return (
        list(collector.days.items()),
        list(collector.occupancy.items()),
        (collector.total_requests, collector.total_hits,
         collector.total_bytes_requested, collector.total_bytes_hit),
    )


def entry_view(entry):
    return (
        entry.url, entry.size, entry.etime, entry.atime, entry.nref,
        entry.doc_type, entry.random_stamp, entry.latency, entry.expires_at,
    )


def cache_view(cache, evictions):
    return (
        [entry_view(entry) for entry in evictions],
        sorted(entry_view(entry) for entry in cache.entries()),
        (cache.used_bytes, cache.max_used_bytes, cache.eviction_count,
         cache.evicted_bytes, len(cache)),
    )


def new_cache(cls, capacity, policy, **kwargs):
    """A cache of ``cls`` and the list its evictions are streamed into."""
    evictions = []
    cache = cls(capacity, policy, SEED, on_evict=evictions.append, **kwargs)
    return cache, evictions


def parent_run(trace, capacity, policy):
    cache, evictions = new_cache(ParentCache, capacity, policy)
    metrics = ParentMetrics()
    outcomes = replay(trace, cache.access_code, metrics, [(metrics, cache)])
    return collector_view(metrics), outcomes, cache_view(cache, evictions)


def new_run(trace, capacity, policy):
    cache, evictions = new_cache(SimCache, capacity, policy)
    result = simulate(trace, cache)
    return (
        collector_view(result.metrics), result.outcomes,
        cache_view(cache, evictions),
    )


# -- traces --------------------------------------------------------------------


def clf_round_trip(trace):
    """Write and re-read the trace as plain CLF: stamps lose their
    fraction (so many tie), and every type is classified from the URL."""
    return TraceValidator().validate(read_clf_lines(write_clf_lines(trace)))


TRACES = {}


def trace_for(name):
    if name not in TRACES:
        profile, form = name.split("-")
        trace = generate_valid(profile, seed=SEED, scale=SCALE)
        TRACES[name] = trace if form == "generated" else clf_round_trip(trace)
    return TRACES[name]


def capacity_for(trace):
    return max(1, int(FRACTION * max_needed_for(trace)))


CAPACITY = 1000


def edge_trace():
    """Hand-placed edge cases, then a random tail whose clock runs
    backwards now and then (within a day and across days)."""
    def req(t, url, size):
        return Request(timestamp=float(t), url=url, size=size)

    trace = [
        req(0, "a", 300), req(5, "b", 400), req(9, "a", 300),
        req(20, "c", 500),                       # must evict
        req(30, "huge", 5 * CAPACITY),           # larger than the cache
        req(35, "huge", 5 * CAPACITY),
        req(40, "b", 400),
        req(DAY + 1, "a", 350),                  # modified, still fits
        req(DAY + 2, "a", 2 * CAPACITY),         # modified, no longer fits
        req(DAY + 3, "a", 2 * CAPACITY),
        req(12, "b", 400),                       # back to day 0
        req(DAY + 4, "d", 200),
        req(DAY + 3.5, "d", 200),                # now before the entry's atime
        req(5 * DAY, "c", 500),                  # after a multi-day gap
    ]
    rng = random.Random(12)
    sizes = {f"u{i}": rng.randrange(40, 400) for i in range(30)}
    clock = 5 * DAY + 10
    for _ in range(600):
        clock += rng.randrange(1, 3000)
        if rng.random() < 0.05:
            clock -= rng.randrange(1, 2 * DAY)   # the clock runs backwards
            clock = max(clock, 0)
        url = f"u{min(rng.randrange(30), rng.randrange(30))}"
        size = sizes[url]
        if rng.random() < 0.03:
            size = sizes[url] = rng.choice([rng.randrange(40, 400), 3 * CAPACITY])
        trace.append(req(clock, url, size))
    return trace


EDGE = edge_trace()

POLICIES = [
    (policy.name, lambda keys=policy.keys: KeyPolicy(keys))
    for policy in taxonomy_policies()
]
ALL_POLICIES = POLICIES + [("LRU-MIN", LRUMin)]
WORKLOADS = ["BR-generated", "BR-clf", "U-generated", "U-clf"]


def test_the_cases_cover_what_they_claim():
    assert len(POLICIES) == 36
    clf = trace_for("BR-clf")
    stamps = [request.timestamp for request in clf]
    assert len(set(stamps)) < len(stamps)  # tied stamps
    assert all(request.doc_type is None for request in clf)
    _, outcomes, _ = new_run(EDGE, CAPACITY, KeyPolicy([SIZE, RANDOM]))
    assert set(outcomes) == set(OUTCOMES)
    stamps = [request.timestamp for request in EDGE]
    assert any(b < a for a, b in zip(stamps, stamps[1:]))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize(
    "factory", [f for _, f in POLICIES], ids=[name for name, _ in POLICIES],
)
def test_simulate_is_the_parents_replay(workload, factory):
    trace = trace_for(workload)
    capacity = capacity_for(trace)
    assert new_run(trace, capacity, factory()) == parent_run(
        trace, capacity, factory(),
    )


@pytest.mark.parametrize("capacity", [CAPACITY, None], ids=["finite", "infinite"])
@pytest.mark.parametrize(
    "factory", [f for _, f in ALL_POLICIES], ids=[name for name, _ in ALL_POLICIES],
)
def test_edge_cases_replay_as_the_parents(factory, capacity):
    assert new_run(EDGE, capacity, factory()) == parent_run(
        EDGE, capacity, factory(),
    )


TOPOLOGY_POLICIES = [
    ("SIZE", lambda: KeyPolicy([SIZE, RANDOM])),
    ("ATIME", lambda: KeyPolicy([ATIME, NREF])),
    ("LRU-MIN", LRUMin),
]
TOPOLOGY_TRACES = ["BR-generated", "U-clf", "edge"]
#: LRU-MIN scans every entry per eviction, so it runs on the edge trace only.
TOPOLOGY_CASES = [
    (f"{name}-{workload}", workload, factory)
    for name, factory in TOPOLOGY_POLICIES
    for workload in TOPOLOGY_TRACES
    if name != "LRU-MIN" or workload == "edge"
]


def topology_trace(name):
    return EDGE if name == "edge" else trace_for(name)


def topology_capacity(name, trace):
    return CAPACITY if name == "edge" else capacity_for(trace)


@pytest.mark.parametrize(
    "workload,factory", [case[1:] for case in TOPOLOGY_CASES],
    ids=[case[0] for case in TOPOLOGY_CASES],
)
def test_two_level_is_the_parents(workload, factory):
    trace = topology_trace(workload)
    capacity = topology_capacity(workload, trace)
    l1, l1_evictions = new_cache(ParentCache, capacity, factory())
    l2, l2_evictions = new_cache(ParentCache, None, None)
    parent = ParentTwoLevel(l1, l2)
    parent_outcomes = replay(trace, parent.access_code, parent.l1_metrics, [
        (parent.l1_metrics, l1), (parent.l2_metrics, l2),
    ])
    new_l1, new_l1_evictions = new_cache(SimCache, capacity, factory())
    new_l2, new_l2_evictions = new_cache(SimCache, None, None)
    hierarchy = simulate_two_level(trace, new_l1, new_l2)
    for name in ("l1_metrics", "l2_metrics", "l2_local_metrics"):
        assert collector_view(getattr(hierarchy, name)) == collector_view(
            getattr(parent, name)
        ), name
    assert cache_view(new_l1, new_l1_evictions) == cache_view(l1, l1_evictions)
    assert cache_view(new_l2, new_l2_evictions) == cache_view(l2, l2_evictions)
    assert sum(parent_outcomes.values()) == len(trace)


@pytest.mark.parametrize(
    "factory", [f for _, f in TOPOLOGY_POLICIES[:2]],
    ids=[name for name, _ in TOPOLOGY_POLICIES[:2]],
)
def test_shared_second_level_is_the_parents(factory):
    traces = {
        "BR": trace_for("BR-generated"),
        "BR-clf": trace_for("BR-clf"),
        "U": trace_for("U-generated"),
    }
    sizes = {key: capacity_for(trace) for key, trace in traces.items()}
    parent_l1 = {}

    def parent_factory(key):
        parent_l1[key] = new_cache(ParentCache, sizes[key], factory())
        return parent_l1[key][0]

    l2, l2_evictions = new_cache(ParentCache, None, None)
    hierarchies, l2_metrics = parent_shared_second_level(traces, parent_factory, l2)

    new_l1 = {}

    def new_factory(key):
        new_l1[key] = new_cache(SimCache, sizes[key], factory())
        return new_l1[key][0]

    shared_l2, shared_l2_evictions = new_cache(SimCache, None, None)
    shared = simulate_shared_second_level(traces, new_factory, shared_l2)
    assert collector_view(shared.l2_metrics) == collector_view(l2_metrics)
    assert cache_view(shared_l2, shared_l2_evictions) == cache_view(l2, l2_evictions)
    for key in traces:
        mine, theirs = shared.hierarchies[key], hierarchies[key]
        for name in ("l1_metrics", "l2_local_metrics"):
            assert collector_view(getattr(mine, name)) == collector_view(
                getattr(theirs, name)
            ), (key, name)
        assert cache_view(*new_l1[key]) == cache_view(*parent_l1[key])
    assert sum(shared.l2_hits_by_origin.values()) > 0


@pytest.mark.parametrize(
    "workload,factory", [case[1:] for case in TOPOLOGY_CASES],
    ids=[case[0] for case in TOPOLOGY_CASES],
)
def test_partitioned_is_the_parents(workload, factory, monkeypatch):
    trace = topology_trace(workload)
    capacity = topology_capacity(workload, trace)
    fractions = {"audio": 0.25, "non-audio": 0.75}
    partitions, views = {}, {}
    for index, (part, fraction) in enumerate(sorted(fractions.items())):
        cache, evictions = ParentCache(
            max(1, int(capacity * fraction)), factory(), seed=SEED + index,
        ), []
        cache._on_evict = evictions.append
        partitions[part], views[part] = cache, evictions
    parent = ParentPartitioned(partitions)
    replay(trace, parent.access_code, parent.overall, [
        (parent.class_metrics[part], cache) for part, cache in partitions.items()
    ])
    new_evictions = []

    def recording_cache(capacity, policy, seed):
        new_evictions.append([])
        return SimCache(capacity, policy, seed, on_evict=new_evictions[-1].append)

    monkeypatch.setattr("repro.core.partitioned.SimCache", recording_cache)
    partitioned = simulate_partitioned(
        trace, capacity, fractions, factory, seed=SEED,
    )
    assert collector_view(partitioned.overall) == collector_view(parent.overall)
    for (part, cache), evictions in zip(partitions.items(), new_evictions):
        assert collector_view(partitioned.class_metrics[part]) == collector_view(
            parent.class_metrics[part]
        ), part
        mine = partitioned.partitions[part]
        assert cache_view(mine, evictions) == cache_view(cache, views[part])
    assert any(
        collector.total_hits for collector in parent.class_metrics.values()
    )


@pytest.mark.parametrize("on_demand", [True, False], ids=["hybrid", "pure"])
@pytest.mark.parametrize(
    "workload,factory", [case[1:] for case in TOPOLOGY_CASES],
    ids=[case[0] for case in TOPOLOGY_CASES],
)
def test_periodic_is_the_parents(workload, factory, on_demand):
    trace = topology_trace(workload)
    capacity = topology_capacity(workload, trace)
    period = 3 * 3600.0 if workload == "edge" else 86400.0
    caches = []
    for cls in (ParentPeriodic, PeriodicRemovalCache):
        evictions = []
        cache = cls(
            capacity, factory(), SEED, period=period, comfort_level=0.6,
            on_demand=on_demand,
        )
        cache._on_evict = evictions.append
        caches.append((cache, evictions))
    (parent, parent_evictions), (mine, my_evictions) = caches
    metrics = ParentMetrics()
    outcomes = replay(trace, parent.access_code, metrics, [(metrics, parent)])
    result = simulate(trace, mine)
    assert collector_view(result.metrics) == collector_view(metrics)
    assert result.outcomes == outcomes
    assert cache_view(mine, my_evictions) == cache_view(parent, parent_evictions)
    assert (mine.sweep_count, mine.swept_entries) == (
        parent.sweep_count, parent.swept_entries,
    )
    assert mine.sweep_count > 0
