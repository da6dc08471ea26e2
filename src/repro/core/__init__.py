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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "entry": "CacheEntry",
    "keys": (
        "ALL_KEYS ATIME DAY_ATIME ETIME LATENCY LOG2SIZE NREF RANDOM SIZE "
        "TAXONOMY_KEYS TTL TYPE_PRIORITY SortKey key_by_name"
    ),
    "policy": (
        "DynamicPolicy KeyPolicy RemovalPolicy policy_from_names "
        "taxonomy_policies"
    ),
    "literature": (
        "LRUMin PitkowRecker fifo hyper_g lfu literature_policies lru "
        "size_policy"
    ),
    "cache": "AccessOutcome AccessResult HeapIndex NaiveIndex SimCache",
    "metrics": (
        "DayStats MetricsCollector moving_average ratio_series series_mean"
    ),
    "simulator": "SimulationResult replay simulate",
    "sweep": (
        "ENGINE_VERSION PolicySpec ResultCache SimOptions SweepJob "
        "SweepReport run_sweep trace_fingerprint"
    ),
    "multilevel": (
        "SharedSecondLevel TwoLevelCache simulate_shared_second_level "
        "simulate_two_level"
    ),
    "partitioned": "PartitionedCache audio_partition simulate_partitioned",
    "adaptive": "GreedyDualSize gds_byte_cost gds_hit_cost",
    "offline": "next_reference_indexes simulate_clairvoyant",
    "consistency_sim": (
        "ConsistencyReport ConsistencyStrategy simulate_consistency"
    ),
    "cooperative": "CooperativeGroup simulate_cooperative",
    "periodic": "PeriodicRemovalCache",
    "persistence": "load_cache restore_cache save_cache snapshot_cache",
    "ttl": "DEFAULT_TYPE_TTLS expired_first_policy fixed_ttl type_based_ttl",
    "experiments": "experiments",
})
