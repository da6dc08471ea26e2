"""Experiment runners mirroring the paper's Table 5 factor-level design.

==============  ==========================================================
Experiment 1    Infinite cache: maximum HR/WHR and MaxNeeded (Figs. 3-7)
Experiment 2    Removal-policy comparison at 10%/50% of MaxNeeded
                (Figs. 8-12: primary keys; Fig. 15: secondary keys)
Experiment 3    Two-level cache, infinite L2 (Figs. 16-18)
Experiment 4    Partitioned cache on workload BR (Figs. 19-20)
==============  ==========================================================

All runners take a *valid* trace (a sequence, since several passes may be
made) and return structured results that :mod:`repro.analysis` turns into
the paper's tables and figure series.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from repro.core.cache import SimCache
from repro.core.keys import (
    LOG2SIZE,
    RANDOM,
    SIZE,
    TAXONOMY_KEYS,
    SortKey,
)
from repro.core.policy import KeyPolicy, RemovalPolicy, taxonomy_policies
from repro.core.simulator import SimulationResult, simulate
from repro.trace.record import Request

if TYPE_CHECKING:
    from repro.core.multilevel import TwoLevelCache
    from repro.core.partitioned import PartitionedCache
    from repro.core.sweep import PolicySpec, ResultCache, SweepJob

__all__ = [
    "run_infinite_cache",
    "max_needed_for",
    "run_policy",
    "primary_key_sweep",
    "secondary_key_sweep",
    "full_taxonomy_sweep",
    "grid_jobs",
    "taxonomy_specs",
    "run_two_level",
    "run_partitioned_sweep",
]

#: The cache-size levels of Table 5, as fractions of MaxNeeded.
CACHE_FRACTIONS = (0.10, 0.50)


def run_infinite_cache(
    trace: Iterable[Request], name: str = ""
) -> SimulationResult:
    """Experiment 1: simulate an infinite cache.

    The result's ``max_used_bytes`` is MaxNeeded — the size at which no
    document is ever removed — and its HR/WHR series are the theoretical
    maxima of Figures 3-7.
    """
    return simulate(trace, SimCache(capacity=None), name=name or "infinite")


def max_needed_for(trace: Iterable[Request]) -> int:
    """MaxNeeded for a trace (convenience wrapper over Experiment 1)."""
    return run_infinite_cache(trace).max_used_bytes


def run_policy(
    trace: Iterable[Request],
    policy: RemovalPolicy,
    capacity: int,
    name: str = "",
    seed: int = 0,
) -> SimulationResult:
    """Simulate one finite cache under one removal policy."""
    cache = SimCache(capacity=capacity, policy=policy, seed=seed)
    return simulate(trace, cache, name=name or policy.name)


def grid_jobs(
    named_specs: Iterable[Tuple[str, PolicySpec]],
    max_needed: int,
    fraction: float = 0.10,
    seed: int = 0,
) -> List[SweepJob]:
    """One sweep job per ``(name, spec)``, every cache at ``fraction`` of
    MaxNeeded: the grid Experiment 2 and ``repro sweep`` run."""
    from repro.core.sweep import SimOptions, SweepJob

    capacity = max(1, int(max_needed * fraction))
    return [
        SweepJob(
            spec=spec, capacity=capacity, options=SimOptions(seed=seed),
            name=name,
        )
        for name, spec in named_specs
    ]


def primary_key_sweep(
    trace: Sequence[Request],
    max_needed: int,
    fraction: float = 0.10,
    primaries: Sequence[SortKey] = TAXONOMY_KEYS,
    seed: int = 0,
    workers: int = 1,
    result_cache: Optional[ResultCache] = None,
    obs=None,
) -> Dict[str, SimulationResult]:
    """Experiment 2 (Figures 8-12): each primary key with a RANDOM
    secondary, at ``fraction`` of MaxNeeded.

    Runs through the :mod:`repro.core.sweep` engine: the trace is shared
    across all runs, ``workers > 1`` fans the grid out over processes,
    and ``result_cache`` memoizes completed runs on disk.
    """
    from repro.core.sweep import PolicySpec, run_sweep

    jobs = grid_jobs(
        [(key.name, PolicySpec((key.name, RANDOM.name))) for key in primaries],
        max_needed, fraction, seed,
    )
    report = run_sweep(
        trace, jobs, workers=workers, result_cache=result_cache, obs=obs,
    )
    return {job.name: jr.result for job, jr in zip(jobs, report.results)}


def secondary_key_sweep(
    trace: Sequence[Request],
    max_needed: int,
    fraction: float = 0.10,
    primary: SortKey = LOG2SIZE,
    seed: int = 0,
    workers: int = 1,
    result_cache: Optional[ResultCache] = None,
    obs=None,
) -> Dict[str, SimulationResult]:
    """Experiment 2 (Figure 15): fixed primary key (⌊log2 SIZE⌋, which
    produces the most ties), every other Table 1 key plus RANDOM as the
    secondary."""
    from repro.core.sweep import PolicySpec, run_sweep

    secondaries: List[SortKey] = [
        key for key in TAXONOMY_KEYS if key != primary
    ] + [RANDOM]
    jobs = grid_jobs(
        [
            (f"{primary.name}+{key.name}", PolicySpec((primary.name, key.name)))
            for key in secondaries
        ],
        max_needed, fraction, seed,
    )
    report = run_sweep(
        trace, jobs, workers=workers, result_cache=result_cache, obs=obs,
    )
    return {
        job.spec.keys[1]: jr.result for job, jr in zip(jobs, report.results)
    }


def full_taxonomy_sweep(
    trace: Sequence[Request],
    max_needed: int,
    fraction: float = 0.10,
    seed: int = 0,
    workers: int = 1,
    result_cache: Optional[ResultCache] = None,
    obs=None,
) -> Dict[Tuple[str, str], SimulationResult]:
    """All 36 primary/secondary combinations of Section 1.2."""
    from repro.core.sweep import run_sweep

    jobs = grid_jobs(taxonomy_specs(), max_needed, fraction, seed)
    report = run_sweep(
        trace, jobs, workers=workers, result_cache=result_cache, obs=obs,
    )
    return {
        job.spec.keys[:2]: jr.result for job, jr in zip(jobs, report.results)
    }


def taxonomy_specs() -> List[Tuple[str, PolicySpec]]:
    """The 36 policies of Section 1.2, named, as sweep specs."""
    from repro.core.sweep import PolicySpec

    return [
        (policy.name, PolicySpec.from_policy(policy))
        for policy in taxonomy_policies()
    ]


def run_two_level(
    trace: Iterable[Request],
    max_needed: int,
    fraction: float = 0.10,
    policy: Optional[RemovalPolicy] = None,
    name: str = "",
    seed: int = 0,
) -> TwoLevelCache:
    """Experiment 3 (Figures 16-18): finite L1 under the Experiment 2
    winner (SIZE, random secondary), infinite L2."""
    from repro.core.multilevel import simulate_two_level

    capacity = max(1, int(max_needed * fraction))
    if policy is None:
        policy = KeyPolicy([SIZE, RANDOM], name="SIZE")
    l1 = SimCache(capacity=capacity, policy=policy, seed=seed)
    return simulate_two_level(trace, l1, name=name)


def run_partitioned_sweep(
    trace: Sequence[Request],
    max_needed: int,
    fraction: float = 0.10,
    audio_fractions: Sequence[float] = (0.25, 0.50, 0.75),
    seed: int = 0,
) -> Dict[float, PartitionedCache]:
    """Experiment 4 (Figures 19-20): audio/non-audio partitions at the
    Table 5 split levels, SIZE primary key, over workload BR."""
    from repro.core.partitioned import audio_partition, simulate_partitioned

    capacity = max(1, int(max_needed * fraction))
    results = {}
    for audio_fraction in audio_fractions:
        results[audio_fraction] = simulate_partitioned(
            trace,
            total_capacity=capacity,
            fractions={
                "audio": audio_fraction,
                "non-audio": 1.0 - audio_fraction,
            },
            policy_factory=lambda: KeyPolicy([SIZE, RANDOM], name="SIZE"),
            classify=audio_partition,
            name=f"audio={audio_fraction}",
            seed=seed,
        )
    return results
