"""Layer probes run by the traced ``sim_grid36`` run.

Each probe times calls into public functions of one layer from the
benchmark's own code, records a span around them, and returns the
layer's metrics.  Sizes are fixed by the workload's trace, so counts
repeat exactly for one seed.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Sequence

from harness import Context, median

from repro.analysis.mrc import single_pass_mrc
from repro.core import (
    PolicySpec, ResultCache, SimCache, SweepJob, run_sweep, simulate,
    trace_fingerprint,
)
from repro.core.experiments import run_infinite_cache
from repro.core.keys import TAXONOMY_KEYS
from repro.obs import Obs, Profiler
from repro.workloads import generate_valid

#: The six primary keys, under names that fit a metric name.
PRIMARIES = {key.name: key.name.replace("(", "_").replace(")", "")
             for key in TAXONOMY_KEYS}


def simulator_by_primary(results: Sequence) -> Dict[str, float]:
    """``core.simulator`` numbers per primary key K, from one finished
    grid: mean job time over K's six secondaries, and the simulated
    HR/WHR of K with the RANDOM secondary."""
    metrics: Dict[str, float] = {}
    for key, label in PRIMARIES.items():
        mine = [jr for jr in results if jr.result.name.split("/")[0] == key]
        metrics[f"core.simulator.replay_s.{label}"] = (
            sum(jr.seconds for jr in mine) / len(mine)
        )
        random_secondary = next(
            jr.result for jr in mine if jr.result.name == f"{key}/RANDOM"
        )
        metrics[f"core.simulator.hr.{label}"] = random_secondary.hit_rate
        metrics[f"core.simulator.whr.{label}"] = (
            random_secondary.weighted_hit_rate
        )
    return metrics


def core_cache(ctx: Context, trace: Sequence, capacity: int) -> Dict[str, float]:
    """A replay loop of the benchmark's own that times every
    ``SimCache.access``, per primary key (RANDOM secondary), split into
    hits and misses (a miss includes the evictions it causes); then the
    same replay through ``simulate()`` to see what the loop around
    ``access`` costs."""
    tracer = ctx.tracer
    clock = time.perf_counter
    metrics: Dict[str, float] = {}
    access_busy = 0.0
    simulate_wall = 0.0
    for key, label in PRIMARIES.items():
        spec = PolicySpec((key, "RANDOM"))
        cache = SimCache(capacity, policy=spec.build(), seed=ctx.seed)
        hits = misses = 0
        hit_busy = miss_busy = 0.0
        with tracer.span("core.cache.replay", key=key):
            for request in trace:
                start = clock()
                result = cache.access(request)
                elapsed = clock() - start
                if result.is_hit:
                    hits += 1
                    hit_busy += elapsed
                else:
                    misses += 1
                    miss_busy += elapsed
            tracer.aggregate("core.cache.access.hit", hits, hit_busy, key=key)
            tracer.aggregate("core.cache.access.miss", misses, miss_busy, key=key)
        metrics[f"core.cache.hit_us.{label}"] = 1e6 * hit_busy / max(1, hits)
        metrics[f"core.cache.miss_us.{label}"] = 1e6 * miss_busy / max(1, misses)
        metrics[f"core.cache.evictions.{label}"] = cache.eviction_count
        access_busy += hit_busy + miss_busy
        with tracer.span("core.simulator.simulate", key=key) as timed:
            simulate(trace, SimCache(capacity, policy=spec.build(), seed=ctx.seed))
        simulate_wall += timed.seconds
    metrics["core.simulator.loop_overhead_share"] = (
        1.0 - access_busy / simulate_wall
    )
    return metrics


def core_sweep(ctx: Context, trace: Sequence, jobs: List[SweepJob]) -> Dict[str, float]:
    """What the sweep engine adds around the simulator: process fan-out
    on a 12-job subset, the result cache (cold store, warm load) and the
    per-job checkpoint journal on a 6-job subset."""
    tracer = ctx.tracer
    workers = os.cpu_count() or 1
    twelve, six = jobs[::3], jobs[::6]

    with tracer.span("core.sweep.run_sweep", jobs=len(twelve), workers=1) as serial:
        run_sweep(trace, twelve, workers=1)
    with tracer.span("core.sweep.run_sweep", jobs=len(twelve), workers=workers) as fanned:
        run_sweep(trace, twelve, workers=workers)

    trace_hash = trace_fingerprint(trace)
    cache = ResultCache(ctx.workdir / "result-cache")
    with tracer.span("core.sweep.run_sweep", jobs=len(six), result_cache="cold") as cold:
        stored = run_sweep(trace, six, result_cache=cache, trace_hash=trace_hash)
    with tracer.span("core.sweep.run_sweep", jobs=len(six), result_cache="warm") as warm:
        loaded = run_sweep(trace, six, result_cache=cache, trace_hash=trace_hash)
    if loaded.cache_hits != len(six):
        raise RuntimeError("result cache did not serve the warm sweep")

    with tracer.span("core.sweep.run_sweep", jobs=len(six), checkpoint=True) as journaled:
        checkpointed = run_sweep(
            trace, six, checkpoint_dir=ctx.workdir / "checkpoint",
            trace_hash=trace_hash,
        )

    def engine_ms_per_job(timed, report) -> float:
        replay = sum(jr.seconds for jr in report.results)
        return 1e3 * (timed.seconds - replay) / len(report.results)

    return {
        "core.sweep.parallel_speedup": serial.seconds / fanned.seconds,
        "core.sweep.result_cache_put_ms": engine_ms_per_job(cold, stored),
        "core.sweep.result_cache_get_ms": 1e3 * warm.seconds / len(six),
        "core.sweep.checkpoint_ms_per_job": engine_ms_per_job(
            journaled, checkpointed,
        ),
    }


def analysis_mrc(ctx: Context, scale: float) -> Dict[str, float]:
    """PR 6's single-pass miss-ratio-curve engine on workload BL: all six
    keys and the default capacity grid in one pass, one replicate."""
    trace = generate_valid("BL", seed=ctx.seed, scale=scale)
    max_needed = run_infinite_cache(trace).max_used_bytes
    with ctx.tracer.span("analysis.mrc.single_pass_mrc", requests=len(trace)) as timed:
        single_pass_mrc(trace, max_needed, rate=0.10, replicates=1, seed=ctx.seed)
    return {"analysis.mrc.single_pass_req_per_s": len(trace) / timed.seconds}


def obs_overhead(ctx: Context, trace: Sequence, capacity: int) -> Dict[str, float]:
    """One SIZE/RANDOM replay plain, with the phase profiler, and with an
    obs context, interleaved three times; ratios of the medians."""
    spec = PolicySpec(("SIZE", "RANDOM"))
    variants = {
        "plain": lambda: {},
        "profile_phases": lambda: {"profiler": Profiler()},
        "obs_on": lambda: {"obs": Obs()},
    }
    seconds: Dict[str, List[float]] = {name: [] for name in variants}
    for _ in range(3):
        for name, extra in variants.items():
            cache = SimCache(capacity, policy=spec.build(), seed=ctx.seed)
            with ctx.tracer.span("core.simulator.simulate", variant=name) as timed:
                simulate(trace, cache, **extra())
            seconds[name].append(timed.seconds)
    plain = median(seconds["plain"])
    return {
        "obs.overhead.profile_phases_ratio": median(seconds["profile_phases"]) / plain,
        "obs.overhead.obs_on_ratio": median(seconds["obs_on"]) / plain,
    }
