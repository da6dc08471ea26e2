"""Sweep-engine benchmark: serial seed path vs. the parallel engine.

Times the full 36-combination taxonomy grid three ways on one bundled
synthetic trace —

1. the legacy serial path (one :func:`run_policy` per policy),
2. the sweep engine fanned out over ``REPRO_BENCH_WORKERS`` processes
   with a cold on-disk result cache,
3. the same engine sweep again, now served from the warm cache —

asserts the engine is differentially identical to the serial path and
that a repeated sweep is >= 90% cache hits, and emits the machine-readable
``benchmarks/results/BENCH_sweep_engine.json`` (requests/sec, per-policy
wall time, result-cache hit/miss counts) so the perf trajectory is
tracked from this PR onward.  The payload uses the schema-versioned
``repro.obs.bench`` envelope (the current ``BENCH_SCHEMA_VERSION``, with
run metadata), so ``repro bench --compare`` can gate against it.
``BENCH_sweep.json`` itself is the committed ``repro bench`` baseline
and is not touched here.

The >= 2x speedup criterion is only asserted when the host actually has
multiple CPUs; on a single-core host the numbers are still recorded,
with the core count alongside so CI readers can interpret them.
"""

import json
import os
import time

from repro.core.experiments import run_policy
from repro.core.policy import taxonomy_policies
from repro.core.sweep import (
    PolicySpec,
    ResultCache,
    SimOptions,
    SweepJob,
    run_sweep,
    trace_fingerprint,
)

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED

BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "4"))
BENCH_WORKLOAD = "BL"
BENCH_FRACTION = 0.10
SIM_SEED = 0
#: The sweep benchmark needs enough work per grid cell to amortise
#: process-pool startup, so its trace never shrinks below scale 0.25
#: even in quick mode (REPRO_BENCH_SWEEP_SCALE overrides).
SWEEP_SCALE = float(
    os.environ.get("REPRO_BENCH_SWEEP_SCALE", str(max(BENCH_SCALE, 0.25)))
)


def test_sweep_engine_benchmark(
    once, write_artifact, artifact_dir, tmp_path,
):
    from repro.core.experiments import run_infinite_cache
    from repro.workloads import generate_valid

    trace = generate_valid(
        BENCH_WORKLOAD, seed=BENCH_SEED, scale=SWEEP_SCALE,
    )
    max_needed = run_infinite_cache(trace).max_used_bytes
    capacity = max(1, int(BENCH_FRACTION * max_needed))
    policies = taxonomy_policies()
    jobs = [
        SweepJob(
            spec=PolicySpec.from_policy(policy),
            capacity=capacity,
            options=SimOptions(seed=SIM_SEED),
            name=policy.name,
        )
        for policy in policies
    ]

    # 1. The legacy serial seed path: replay the trace once per policy.
    serial_start = time.perf_counter()
    serial = {
        policy.name: run_policy(
            trace, policy, capacity, name=policy.name, seed=SIM_SEED,
        )
        for policy in policies
    }
    serial_seconds = time.perf_counter() - serial_start

    # 2. The engine, parallel, cold result cache (timed by pytest-benchmark).
    result_cache = ResultCache(tmp_path / "sweep-cache")
    trace_hash = trace_fingerprint(trace)
    cold = once(
        run_sweep, trace, jobs,
        workers=BENCH_WORKERS, result_cache=result_cache,
        trace_hash=trace_hash,
    )

    # 3. The engine again: a repeated sweep must come from the cache.
    warm = run_sweep(
        trace, jobs,
        workers=BENCH_WORKERS, result_cache=result_cache,
        trace_hash=trace_hash,
    )

    # Differential check: the engine must not perturb any result.
    for job_result in cold.results:
        reference = serial[job_result.result.name]
        assert job_result.result.hit_rate == reference.hit_rate
        assert (job_result.result.weighted_hit_rate
                == reference.weighted_hit_rate)
    for cold_jr, warm_jr in zip(cold.results, warm.results):
        assert cold_jr.result.hit_rate == warm_jr.result.hit_rate

    assert cold.cache_misses == len(jobs)
    assert warm.cache_hits >= 0.9 * len(jobs)

    cpu_count = os.cpu_count() or 1
    speedup = (
        serial_seconds / cold.wall_seconds if cold.wall_seconds > 0 else 0.0
    )
    if cpu_count >= 4 and BENCH_WORKERS >= 4:
        assert speedup >= 2.0, (
            f"expected >=2x over the serial path with {BENCH_WORKERS} "
            f"workers on {cpu_count} CPUs, got {speedup:.2f}x"
        )

    from repro.obs.bench import BENCH_SCHEMA_VERSION, bench_meta

    bench = {
        "schema": BENCH_SCHEMA_VERSION,
        "kind": "repro-bench",
        "meta": bench_meta(BENCH_WORKERS),
        "throughput": {
            "wall_seconds": cold.wall_seconds,
            "simulated_requests": cold.simulated_requests,
            "requests_per_second": cold.requests_per_second,
        },
        "policies": {
            jr.result.name: {"seconds": jr.seconds, "phases": {}}
            for jr in cold.results
        },
        "workload": BENCH_WORKLOAD,
        "scale": SWEEP_SCALE,
        "trace_requests": len(trace),
        "trace_hash": trace_hash,
        "policies": len(jobs),
        "capacity_bytes": capacity,
        "seed": {"trace": BENCH_SEED, "simulator": SIM_SEED},
        "cpu_count": cpu_count,
        "workers": BENCH_WORKERS,
        "serial": {
            "wall_seconds": serial_seconds,
            "requests_per_second": (
                len(trace) * len(jobs) / serial_seconds
                if serial_seconds > 0 else 0.0
            ),
        },
        "engine_cold": cold.summary(),
        "engine_warm": warm.summary(),
        "speedup_vs_serial": speedup,
        "result_cache": {
            "cold": {"hits": cold.cache_hits, "misses": cold.cache_misses},
            "warm": {"hits": warm.cache_hits, "misses": warm.cache_misses},
            "warm_hit_fraction": warm.cache_hits / len(jobs),
        },
    }
    (artifact_dir / "BENCH_sweep_engine.json").write_text(
        json.dumps(bench, indent=2) + "\n", encoding="utf-8",
    )

    write_artifact("sweep_engine", "\n".join([
        f"36-policy sweep of workload {BENCH_WORKLOAD} "
        f"({len(trace):,} requests, cache at "
        f"{100 * BENCH_FRACTION:.0f}% of MaxNeeded)",
        "",
        f"serial seed path     : {serial_seconds:.2f}s",
        f"engine cold ({BENCH_WORKERS} workers on {cpu_count} CPUs): "
        f"{cold.wall_seconds:.2f}s "
        f"({cold.requests_per_second:,.0f} req/s, speedup "
        f"{speedup:.2f}x)",
        f"engine warm (result cache): {warm.wall_seconds:.2f}s "
        f"({warm.cache_hits}/{len(jobs)} served from cache)",
        "",
        "full numbers in BENCH_sweep_engine.json",
    ]))
