#!/usr/bin/env python3
"""The repo benchmark's one command.

    python3 bench/run.py                      every workload, each in a fresh child
    python3 bench/run.py --trace              ... and a traced run of each after it
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --aa                 two sets of suites on one tree, compared

With ``--workload`` it runs that workload in this process and ends with
the one-line JSON result ``BENCHMARK.json`` describes: the end-to-end
metrics untraced, the per-layer metrics traced.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import harness

MODULES = {
    "sim_grid36": "wl_sim_grid36",
    "ingest_five": "wl_ingest_five",
    "shard_direct": "wl_live",
    "fleet_routed": "wl_live",
}

SPEC_PATH = harness.REPO_ROOT / "BENCHMARK.json"
#: Suites per set for ``--aa`` (the driver compares sets of ten).
AA_RUNS = 5


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def parse_args(argv: Optional[List[str]], spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="1: record spans and report the per-layer metrics",
    )
    parser.add_argument(
        "--scale-down", type=float, default=1.0,
        help="multiply every workload's size (smoke runs; exact expected "
             "values apply only at 1.0 unless recorded for this factor)",
    )
    parser.add_argument("--expected-dir", type=Path, default=harness.EXPECTED_DIR)
    parser.add_argument(
        "--write-expected", action="store_true",
        help="record this run's exact values as the expected ones",
    )
    parser.add_argument("--aa", action="store_true", help="two sets of suites, compared")
    return parser.parse_args(argv)


# -- one workload, in this process -------------------------------------------


def run_workload(args: argparse.Namespace, spec: dict) -> int:
    harness.bootstrap()
    started = time.perf_counter()
    module = importlib.import_module(MODULES[args.workload])
    import_s = time.perf_counter() - started

    traced = bool(args.trace)
    tracer = harness.Tracer(args.workload, enabled=traced)
    with harness.workdir() as workdir:
        ctx = harness.Context(
            workload=args.workload, seed=args.seed, seconds=args.seconds,
            traced=traced, scale_down=args.scale_down, tracer=tracer,
            workdir=workdir, import_s=import_s,
            expected=None if args.write_expected else harness.load_expected(
                args.expected_dir, args.workload, args.seed, args.scale_down,
            ),
        )
        with tracer.span("bench.run"):
            outcome = module.run(ctx)

    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    unknown = sorted(set(outcome.metrics) - set(units))
    if unknown:
        sys.exit(f"bench: metrics not in BENCHMARK.json: {unknown}")
    missing = [name for name in units if name not in outcome.metrics]
    if missing and not traced:
        sys.exit(f"bench: end-to-end metrics not measured: {missing}")

    correct = outcome.failed == 0 and all(outcome.checks.values())
    provenance = harness.provenance(ctx, outcome.params)
    provenance["expected_values"] = (
        "exact, from " + str(harness.expected_path(args.expected_dir, args.workload))
        if ctx.expected is not None else "none for this seed/scale: invariants only"
    )

    print(f"# {args.workload}  {'traced' if traced else 'untraced'}  "
          + "  ".join(f"{k}={v}" for k, v in provenance.items() if k != "params"))
    print("# params: " + json.dumps(outcome.params, sort_keys=True))
    for note in outcome.notes:
        print(f"# {note}")
    for name, unit in units.items():
        if name in outcome.metrics:
            print(f"{name:44s} {outcome.metrics[name]:>16.6g} {unit}")
    if missing:
        print(f"# {len(missing)} layer metrics are off this workload's path "
              "and read 0: " + " ".join(missing))
    attempted = max(1, outcome.attempted)
    print(f"{'fail_share':44s} {outcome.failed / attempted:>16.6g} "
          f"share ({outcome.failed} of {attempted})")
    print(f"{'checks_ok':44s} {int(correct):>16d} 1/0")
    for check, ok in outcome.checks.items():
        print(f"#   {'ok  ' if ok else 'FAIL'} {check}")

    harness.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    if traced:
        tracer.write(
            harness.RESULTS_DIR / f"trace_{args.workload}.json", provenance,
        )
    if args.write_expected:
        if not correct:
            sys.exit("bench: refusing to record expected values from a failing run")
        path = harness.write_expected(
            args.expected_dir, args.workload, args.seed, args.scale_down, outcome,
        )
        print(f"# expected values written to {path}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics.get(name, 0), "unit": unit}
            for name, unit in units.items()
        },
    }
    (harness.RESULTS_DIR / f"last_{args.workload}_trace{int(traced)}.json").write_text(
        json.dumps({"provenance": provenance, "exact": outcome.exact,
                    "checks": outcome.checks, **result}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0


# -- the suite: every workload in a fresh child ------------------------------


def run_child(args: argparse.Namespace, workload: str, trace: int) -> dict:
    """Run one workload in a fresh interpreter; echo its report; return the
    parsed result line together with the exact values it recorded."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--scale-down", str(args.scale_down),
        "--expected-dir", str(args.expected_dir),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        sys.exit(f"bench: {workload} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    saved = json.loads(
        (harness.RESULTS_DIR / f"last_{workload}_trace{trace}.json").read_text(
            encoding="utf-8"),
    )
    result["exact"] = saved["exact"]
    return result


def run_suite(args: argparse.Namespace, spec: dict) -> Dict[str, dict]:
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results[workload] = run_child(args, workload, trace=0)
        if args.trace:
            run_child(args, workload, trace=1)
        print()
    return results


def run_aa(args: argparse.Namespace, spec: dict) -> int:
    """Two sets of suites on one tree, as the driver compares them: each
    set is ``AA_RUNS`` suites on consecutive seeds, and the second
    set's median of every end-to-end metric may not be worse than the
    first's by more than the metric's bound.  Every exact value must
    repeat between the two sets, seed for seed."""
    sets = []
    for _ in range(2):
        suites = []
        for offset in range(AA_RUNS):
            seeded = argparse.Namespace(**{**vars(args), "seed": args.seed + offset})
            suites.append(run_suite(seeded, spec))
        sets.append(suites)
    first, second = sets
    rows, ok = [], True
    print(f"medians of {AA_RUNS} runs, seeds {args.seed}..{args.seed + AA_RUNS - 1}")
    print(f"{'workload':14s} {'metric':14s} {'first':>14s} {'second':>14s} "
          f"{'worse by':>9s} {'bound':>6s}")
    for workload in first[0]:
        for metric in spec["end_to_end"]:
            a, b = (
                harness.median([
                    suite[workload]["metrics"][metric["name"]]["value"]
                    for suite in suites
                ])
                for suites in (first, second)
            )
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            within = worse <= metric["bound"]
            ok &= within
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "first": a, "second": b,
                "second_worse_by": worse, "bound": metric["bound"],
                "within_bound": within,
            })
            print(f"{workload:14s} {metric['name']:14s} {a:14.6g} {b:14.6g} "
                  f"{worse:+9.2%} {metric['bound']:6.0%}{'' if within else '  OUTSIDE'}")
        same = all(
            x[workload]["exact"] == y[workload]["exact"]
            for x, y in zip(first, second)
        )
        clean = all(
            suite[workload]["correct"] and suite[workload]["failed"] == 0
            for suite in first + second
        )
        ok &= same and clean
        print(f"{workload:14s} exact values repeat: {same}; checks_ok all: {clean}")
        rows.append({"workload": workload, "exact_values_repeat": same,
                     "checks_ok_all": clean})
    sha = harness.git_sha()
    path = harness.RESULTS_DIR / f"AA_{sha}.json"
    path.write_text(json.dumps({
        "git_sha": sha, "seeds": [args.seed + k for k in range(AA_RUNS)],
        "runs_per_set": AA_RUNS, "seconds": args.seconds,
        "scale_down": args.scale_down, "agree": ok, "rows": rows,
    }, indent=1) + "\n", encoding="utf-8")
    print(f"# A/A report written to {path}; agree={ok}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    if not SPEC_PATH.is_file():
        sys.exit(f"bench: {SPEC_PATH} is missing")
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.workload is not None:
        return run_workload(args, spec)
    harness.bootstrap()  # fail before spawning children if src/ is absent
    if args.aa:
        return run_aa(args, spec)
    results = run_suite(args, spec)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
