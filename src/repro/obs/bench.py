"""``repro bench`` — a pinned performance benchmark with a regression gate.

The benchmark replays a fixed grid (each primary key with a RANDOM
secondary over one pinned synthetic trace) through the sweep engine with
per-policy phase profiling on and **no result cache** — cache-served
jobs report no timings, so a benchmark must compute every cell.  The run
is summarised into a schema-versioned JSON payload (``BENCH_sweep.json``)
carrying run metadata (git SHA, python version, worker count), aggregate
throughput, and per-policy wall time plus lookup/evict/admit phase
distributions (p50/p95 from the ``repro_sim_phase_seconds`` histograms).

``repro bench --compare baseline.json`` loads a previous payload of the
same schema version and fails (exit 1) when:

* aggregate throughput dropped by more than ``--threshold`` percent, or
* one policy's wall time grew by more than the threshold **both** in
  absolute seconds and as a share of the grid's total.  The share check
  makes the per-policy gate robust to a uniformly slower machine: a slow
  runner scales every policy's seconds equally, leaving shares flat,
  while a real per-policy regression moves both.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import subprocess
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchError",
    "DEFAULT_THRESHOLD_PCT",
    "bench_meta",
    "bench_mrc_speedup",
    "build_payload",
    "compare_bench",
    "histogram_quantile",
    "list_bench",
    "load_bench",
    "render_bench_listing",
    "render_comparison",
    "run_bench",
]

#: Format version of the ``repro bench`` payload, and the only one
#: :func:`load_bench` reads: an envelope of ``meta`` (git SHA, python,
#: workers), ``throughput``, per-policy ``phases`` quantiles, and the
#: ``mrc`` section (single-pass vs exact-grid curve-set timings).  A
#: baseline in an older shape is regenerated, not translated.
BENCH_SCHEMA_VERSION = 3

#: Default regression gate: fail when throughput drops, or a policy's
#: time grows, by more than this percentage.
DEFAULT_THRESHOLD_PCT = 15.0

#: The pinned grid: every Table 1 primary key, RANDOM secondary — six
#: cells, one per removal-policy family, small enough for CI.
BENCH_PRIMARY_KEYS = (
    "SIZE", "LOG2SIZE", "ETIME", "ATIME", "DAY(ATIME)", "NREF",
)


class BenchError(ValueError):
    """A benchmark payload that cannot be read or compared."""


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("GITHUB_SHA", "unknown")


def bench_meta(workers: int) -> Dict[str, object]:
    """Run metadata pinned into every benchmark payload."""
    return {
        "git_sha": _git_sha(),
        "python": _platform.python_version(),
        "implementation": _platform.python_implementation(),
        "platform": _platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "workers": workers,
    }


def histogram_quantile(
    q: float,
    buckets_le: Sequence[float],
    bucket_counts: Sequence[int],
    inf_count: int = 0,
) -> float:
    """Prometheus-style quantile estimate from cumulative-free buckets.

    Linearly interpolates within the bucket the rank lands in;
    observations in the ``+Inf`` bucket clamp to the highest finite
    edge (the same convention ``histogram_quantile()`` uses in PromQL).
    """
    total = sum(bucket_counts) + inf_count
    if total == 0:
        return 0.0
    rank = q * total
    running = 0.0
    lower = 0.0
    for le, count in zip(buckets_le, bucket_counts):
        if count > 0 and running + count >= rank:
            return lower + (le - lower) * (rank - running) / count
        running += count
        lower = le
    return float(buckets_le[-1]) if buckets_le else 0.0


def _phase_quantiles(snapshot: Dict[str, dict]) -> Dict[str, Dict[str, dict]]:
    """Per-policy lookup/evict/admit stats from a registry snapshot."""
    family = snapshot.get("repro_sim_phase_seconds")
    if family is None:
        return {}
    edges = family.get("buckets_le", [])
    phases: Dict[str, Dict[str, dict]] = {}
    for sample in family.get("samples", ()):
        labels = sample.get("labels", {})
        policy = labels.get("policy", "")
        phase = labels.get("phase", "")
        counts = sample.get("bucket_counts", [])
        inf_count = sample.get("inf_count", 0)
        phases.setdefault(policy, {})[phase] = {
            "count": sample.get("count", 0),
            "sum_seconds": sample.get("sum", 0.0),
            "p50_seconds": histogram_quantile(0.5, edges, counts, inf_count),
            "p95_seconds": histogram_quantile(0.95, edges, counts, inf_count),
        }
    return phases


def build_payload(report, grid: Dict[str, object], workers: int) -> dict:
    """Assemble the versioned payload from a finished sweep report."""
    phase_stats = _phase_quantiles(report.obs.registry.snapshot())
    policies: Dict[str, dict] = {}
    for jr in report.results:
        name = jr.result.name
        policies[name] = {
            "seconds": jr.seconds,
            "requests_per_second": (
                report.trace_requests / jr.seconds if jr.seconds > 0 else 0.0
            ),
            "phases": phase_stats.get(jr.job.spec.label, {}),
        }
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "kind": "repro-bench",
        "meta": bench_meta(workers),
        "grid": grid,
        "throughput": {
            "wall_seconds": report.wall_seconds,
            "simulated_requests": report.simulated_requests,
            "requests_per_second": report.requests_per_second,
        },
        "policies": policies,
    }


#: The mrc speedup measurement's capacity grid (the default curve set).
MRC_BENCH_FRACTIONS = (0.02, 0.05, 0.10, 0.20, 0.35, 0.50, 0.75, 1.0)

#: Interleaved (exact grid, single pass) repeats; each side keeps its least.
MRC_BENCH_REPEATS = 3


def bench_mrc_speedup(
    trace,
    max_needed: int,
    sim_seed: int = 0,
    rate: float = 0.10,
    fractions: Sequence[float] = MRC_BENCH_FRACTIONS,
    obs=None,
) -> dict:
    """Time the exact 8-fraction x 6-key curve grid against one
    single-pass estimate of the same curve set.

    The single pass runs the speed configuration — one replicate, no
    size floor — because this section records *hot-path cost*, not
    estimation error (the differential test suite owns accuracy).
    """
    import gc
    import time as _time

    from repro.analysis.mrc import single_pass_mrc
    from repro.core import SimCache, simulate
    from repro.core.keys import key_by_name
    from repro.core.policy import KeyPolicy

    def exact_grid() -> None:
        for name in BENCH_PRIMARY_KEYS:
            for fraction in fractions:
                cache = SimCache(
                    capacity=max(1, int(fraction * max_needed)),
                    policy=KeyPolicy([key_by_name(name)]),
                    seed=sim_seed,
                )
                simulate(trace, cache, timeseries=False)

    def single_pass() -> None:
        single_pass_mrc(
            trace, max_needed, rate=rate, replicates=1,
            fractions=fractions, seed=sim_seed, size_floor=0.0, obs=obs,
        )

    # Each side's time is its least over interleaved repeats: the single
    # pass takes tens of milliseconds on the pinned trace, so one
    # scheduler stall in a lone reading would halve the ratio.  The
    # collector is off while timing, as in ``timeit``: what a full
    # collection costs depends on the host process's heap (a test
    # runner's is large), not on the code being timed.
    exact_seconds = single_pass_seconds = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(MRC_BENCH_REPEATS):
            started = _time.perf_counter()
            exact_grid()
            middle = _time.perf_counter()
            single_pass()
            finished = _time.perf_counter()
            exact_seconds = min(exact_seconds, middle - started)
            single_pass_seconds = min(single_pass_seconds, finished - middle)
    finally:
        if gc_was_enabled:
            gc.enable()

    return {
        "fractions": list(fractions),
        "keys": list(BENCH_PRIMARY_KEYS),
        "rate": rate,
        "replicates": 1,
        "repeats": MRC_BENCH_REPEATS,
        "exact_grid_seconds": exact_seconds,
        "single_pass_seconds": single_pass_seconds,
        "speedup": (
            exact_seconds / single_pass_seconds
            if single_pass_seconds > 0 else 0.0
        ),
    }


def run_bench(
    workload: str = "BL",
    scale: float = 0.05,
    trace_seed: int = 1996,
    sim_seed: int = 0,
    fraction: float = 0.10,
    workers: int = 1,
    obs=None,
) -> Tuple[dict, object]:
    """Run the pinned benchmark grid; returns ``(payload, report)``.

    Phase profiling is on and the result cache off, so every cell is
    computed with a phase timer attached to its cache.  The payload
    also records the single-pass MRC engine's wall-clock speedup over
    the exact curve grid (``mrc`` section).
    """
    from repro.core.experiments import run_infinite_cache
    from repro.core.sweep import PolicySpec, SimOptions, SweepJob, run_sweep
    from repro.workloads import generate_valid

    trace = generate_valid(workload, seed=trace_seed, scale=scale)
    max_needed = run_infinite_cache(trace).max_used_bytes
    capacity = max(1, int(fraction * max_needed))
    jobs = [
        SweepJob(
            spec=PolicySpec(keys=(primary, "RANDOM")),
            capacity=capacity,
            options=SimOptions(seed=sim_seed, profile_phases=True),
        )
        for primary in BENCH_PRIMARY_KEYS
    ]
    report = run_sweep(trace, jobs, workers=workers, obs=obs)
    grid = {
        "workload": workload,
        "scale": scale,
        "fraction": fraction,
        "capacity_bytes": capacity,
        "trace_requests": len(trace),
        "seed": {"trace": trace_seed, "simulator": sim_seed},
        "policies": [job.spec.label for job in jobs],
    }
    payload = build_payload(report, grid, workers)
    payload["mrc"] = bench_mrc_speedup(
        trace, max_needed, sim_seed=sim_seed, obs=obs,
    )
    return payload, report


# -- reading and comparing payloads -------------------------------------------


def load_bench(path: Union[str, Path]) -> dict:
    """Read a benchmark payload.

    Raises:
        BenchError: missing, empty, truncated, or unrecognisable file —
            always with a one-line diagnostic naming the path.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise BenchError(f"cannot read benchmark file {path}: {error}")
    if not text.strip():
        raise BenchError(f"benchmark file {path} is empty")
    try:
        raw = json.loads(text)
    except ValueError:
        raise BenchError(
            f"benchmark file {path} is not valid JSON (truncated write?)"
        )
    if not isinstance(raw, dict):
        raise BenchError(f"benchmark file {path} is not a JSON object")
    schema = raw.get("schema")
    if schema != BENCH_SCHEMA_VERSION:
        raise BenchError(
            f"benchmark file {path} has unsupported schema {schema!r} "
            f"(this reader understands {BENCH_SCHEMA_VERSION})"
        )
    return raw


def compare_bench(
    baseline: dict,
    current: dict,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
) -> List[dict]:
    """Regressions of ``current`` against ``baseline``; empty list = pass.

    Two gates (see the module docstring): aggregate throughput, and the
    two-sided per-policy check (absolute seconds *and* share of total).
    """
    if threshold_pct <= 0:
        raise BenchError("threshold must be a positive percentage")
    factor = 1.0 + threshold_pct / 100.0
    regressions: List[dict] = []

    base_rps = baseline.get("throughput", {}).get("requests_per_second", 0.0)
    cur_rps = current.get("throughput", {}).get("requests_per_second", 0.0)
    if base_rps > 0 and cur_rps < base_rps * (1.0 - threshold_pct / 100.0):
        regressions.append({
            "kind": "throughput",
            "metric": "requests_per_second",
            "baseline": base_rps,
            "current": cur_rps,
            "change_pct": 100.0 * (cur_rps - base_rps) / base_rps,
        })

    base_policies = baseline.get("policies", {})
    cur_policies = current.get("policies", {})
    shared = sorted(set(base_policies) & set(cur_policies))
    base_total = sum(base_policies[n].get("seconds", 0.0) for n in shared)
    cur_total = sum(cur_policies[n].get("seconds", 0.0) for n in shared)
    for name in shared:
        base_s = base_policies[name].get("seconds", 0.0)
        cur_s = cur_policies[name].get("seconds", 0.0)
        if base_s <= 0 or base_total <= 0 or cur_total <= 0:
            continue
        seconds_ratio = cur_s / base_s
        share_ratio = (cur_s / cur_total) / (base_s / base_total)
        if seconds_ratio > factor and share_ratio > factor:
            regressions.append({
                "kind": "policy",
                "policy": name,
                "baseline_seconds": base_s,
                "current_seconds": cur_s,
                "seconds_ratio": seconds_ratio,
                "share_ratio": share_ratio,
                "change_pct": 100.0 * (seconds_ratio - 1.0),
            })
    return regressions


def render_comparison(
    regressions: Sequence[dict],
    baseline: dict,
    current: dict,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
) -> str:
    """One human-readable block describing the gate's verdict."""
    base_rps = baseline.get("throughput", {}).get("requests_per_second", 0.0)
    cur_rps = current.get("throughput", {}).get("requests_per_second", 0.0)
    base_sha = baseline.get("meta", {}).get("git_sha", "unknown")[:12]
    lines = [
        f"benchmark gate (threshold {threshold_pct:g}%): "
        f"baseline {base_sha} {base_rps:,.0f} req/s -> "
        f"current {cur_rps:,.0f} req/s",
    ]
    if not regressions:
        lines.append("PASS: no regression beyond threshold")
        return "\n".join(lines)
    for regression in regressions:
        if regression["kind"] == "throughput":
            lines.append(
                f"FAIL throughput: {regression['baseline']:,.0f} -> "
                f"{regression['current']:,.0f} req/s "
                f"({regression['change_pct']:+.1f}%)"
            )
        else:
            lines.append(
                f"FAIL policy {regression['policy']}: "
                f"{regression['baseline_seconds']:.3f}s -> "
                f"{regression['current_seconds']:.3f}s "
                f"({regression['seconds_ratio']:.2f}x absolute, "
                f"{regression['share_ratio']:.2f}x share of grid)"
            )
    return "\n".join(lines)


def write_payload(payload: dict, path: Union[str, Path]) -> None:
    """Write a payload as stable, human-diffable JSON."""
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def list_bench(results_dir: Union[str, Path]) -> List[dict]:
    """Inventory every ``BENCH_*.json`` under a results directory.

    Each file is validated through :func:`load_bench` — the regression
    gate only protects payloads it can actually read, so the listing
    doubles as a health check (``repro bench --list`` exits non-zero
    when any known benchmark file is unreadable).

    Returns one entry per file, sorted by name:
    ``{"name", "path", "ok", "schema", "kind", "git_sha",
    "requests_per_second", "error"}`` (``error`` set when ``ok`` is
    False; value fields ``None`` when unavailable).
    """
    results_dir = Path(results_dir)
    entries: List[dict] = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        entry = {
            "name": path.name,
            "path": str(path),
            "ok": False,
            "schema": None,
            "kind": None,
            "git_sha": None,
            "requests_per_second": None,
            "error": None,
        }
        try:
            payload = load_bench(path)
        except BenchError as error:
            entry["error"] = str(error)
        else:
            entry.update(
                ok=True,
                schema=payload.get("schema"),
                kind=payload.get("kind", "repro-bench"),
                git_sha=payload.get("meta", {}).get("git_sha"),
                requests_per_second=payload.get("throughput", {}).get(
                    "requests_per_second",
                ),
            )
        entries.append(entry)
    return entries


def render_bench_listing(
    entries: Sequence[dict], results_dir: Union[str, Path],
) -> str:
    """One human-readable block for ``repro bench --list``."""
    lines = [f"benchmark results in {results_dir}:"]
    if not entries:
        lines.append("  (none — run `repro bench --out "
                     f"{Path(results_dir) / 'BENCH_sweep.json'}` first)")
        return "\n".join(lines)
    for entry in entries:
        if entry["ok"]:
            rps = entry["requests_per_second"]
            sha = (entry["git_sha"] or "unknown")[:12]
            lines.append(
                f"  {entry['name']}: OK schema={entry['schema']} "
                f"sha={sha}"
                + (f" {rps:,.0f} req/s" if rps else "")
            )
        else:
            lines.append(f"  {entry['name']}: INVALID — {entry['error']}")
    return "\n".join(lines)
