"""Core library: the paper's removal-policy taxonomy and cache simulator.

Quick tour::

    from repro.core import SimCache, KeyPolicy, SIZE, ATIME, simulate
    from repro.workloads import generate_valid

    trace = generate_valid("BL", seed=1, scale=0.1)
    cache = SimCache(capacity=10 * 2**20, policy=KeyPolicy([SIZE]))
    result = simulate(trace, cache, name="BL/SIZE")
    print(result.hit_rate, result.weighted_hit_rate)

See :mod:`repro.core.experiments` for runners matching the paper's four
experiments.
"""

from repro.core.entry import CacheEntry
from repro.core.keys import (
    ALL_KEYS,
    ATIME,
    DAY_ATIME,
    ETIME,
    LATENCY,
    LOG2SIZE,
    NREF,
    RANDOM,
    SIZE,
    TAXONOMY_KEYS,
    TTL,
    TYPE_PRIORITY,
    SortKey,
    key_by_name,
)
from repro.core.policy import (
    DynamicPolicy,
    KeyPolicy,
    RemovalPolicy,
    policy_from_names,
    taxonomy_policies,
)
from repro.core.literature import (
    LRUMin,
    PitkowRecker,
    fifo,
    hyper_g,
    lfu,
    literature_policies,
    lru,
    size_policy,
)
from repro.core.cache import (
    AccessOutcome,
    AccessResult,
    HeapIndex,
    NaiveIndex,
    SimCache,
)
from repro.core.metrics import (
    DayStats,
    MetricsCollector,
    moving_average,
    ratio_series,
    series_mean,
)
from repro.core.simulator import SimulationResult, replay, simulate
from repro.core.sweep import (
    ENGINE_VERSION,
    PolicySpec,
    ResultCache,
    SimOptions,
    SweepJob,
    SweepReport,
    run_sweep,
    trace_fingerprint,
)
from repro.core.multilevel import (
    SharedSecondLevel,
    TwoLevelCache,
    simulate_shared_second_level,
    simulate_two_level,
)
from repro.core.partitioned import (
    PartitionedCache,
    audio_partition,
    simulate_partitioned,
)
from repro.core.adaptive import (
    GreedyDualSize,
    gds_byte_cost,
    gds_hit_cost,
)
from repro.core.offline import next_reference_indexes, simulate_clairvoyant
from repro.core.consistency_sim import (
    ConsistencyReport,
    ConsistencyStrategy,
    simulate_consistency,
)
from repro.core.cooperative import (
    CooperativeGroup,
    simulate_cooperative,
)
from repro.core.periodic import PeriodicRemovalCache
from repro.core.persistence import (
    load_cache,
    restore_cache,
    save_cache,
    snapshot_cache,
)
from repro.core.ttl import (
    DEFAULT_TYPE_TTLS,
    expired_first_policy,
    fixed_ttl,
    type_based_ttl,
)
from repro.core import experiments

__all__ = [
    "CacheEntry",
    "ALL_KEYS",
    "ATIME",
    "DAY_ATIME",
    "ETIME",
    "LATENCY",
    "LOG2SIZE",
    "NREF",
    "RANDOM",
    "SIZE",
    "TAXONOMY_KEYS",
    "TTL",
    "TYPE_PRIORITY",
    "SortKey",
    "key_by_name",
    "DynamicPolicy",
    "KeyPolicy",
    "RemovalPolicy",
    "policy_from_names",
    "taxonomy_policies",
    "LRUMin",
    "PitkowRecker",
    "fifo",
    "hyper_g",
    "lfu",
    "literature_policies",
    "lru",
    "size_policy",
    "AccessOutcome",
    "AccessResult",
    "HeapIndex",
    "NaiveIndex",
    "SimCache",
    "DayStats",
    "MetricsCollector",
    "moving_average",
    "ratio_series",
    "series_mean",
    "SimulationResult",
    "replay",
    "simulate",
    "ENGINE_VERSION",
    "PolicySpec",
    "ResultCache",
    "SimOptions",
    "SweepJob",
    "SweepReport",
    "run_sweep",
    "trace_fingerprint",
    "SharedSecondLevel",
    "TwoLevelCache",
    "simulate_shared_second_level",
    "simulate_two_level",
    "PartitionedCache",
    "audio_partition",
    "simulate_partitioned",
    "GreedyDualSize",
    "gds_byte_cost",
    "gds_hit_cost",
    "next_reference_indexes",
    "simulate_clairvoyant",
    "ConsistencyReport",
    "ConsistencyStrategy",
    "simulate_consistency",
    "CooperativeGroup",
    "simulate_cooperative",
    "PeriodicRemovalCache",
    "load_cache",
    "restore_cache",
    "save_cache",
    "snapshot_cache",
    "DEFAULT_TYPE_TTLS",
    "expired_first_policy",
    "fixed_ttl",
    "type_based_ttl",
    "experiments",
]
