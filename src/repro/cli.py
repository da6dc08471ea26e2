"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate``     synthesise a workload and write a common-log-format file
* ``characterize`` summarise a CLF trace (Section 2.2 statistics)
* ``simulate``     drive a cache over a CLF trace and report HR/WHR
* ``experiment``   run one of the paper's four experiments on a workload
* ``sweep``        the full 36-policy grid through the parallel sweep engine
* ``mrc``          miss-ratio curves for one or more policies
* ``clone``        calibrate a profile from a real log, synthesise a stand-in
* ``report``       full reproduction run with the claims checklist
* ``proxy``        start the live caching proxy
* ``origin``       start the toy origin server
* ``chaos``        replay a trace through the proxy under an injected
  fault plan and report the degradation
* ``fleet``        sharded proxy fleet behind the rendezvous router:
  ``fleet serve``, ``chaos``, ``shard``, ``status``, ``telemetry``
* ``obs``          observability utilities: ``obs check`` lints the
  metric catalog, ``obs summarize`` renders run artifacts

Observability: ``sweep``, ``experiment``, ``chaos`` and ``proxy`` accept
``--log-level``, ``--trace-out`` (Chrome trace JSON, viewable in
Perfetto), ``--metrics-out`` (Prometheus text) and ``--events-out``
(JSONL event log).

Examples::

    python -m repro generate BL --scale 0.1 --out bl.log
    python -m repro characterize bl.log
    python -m repro simulate bl.log --policy SIZE --fraction 0.1
    python -m repro simulate bl.log --policy LRU --capacity 4MB
    python -m repro mrc bl.log --policy SIZE --policy GDSF
    python -m repro experiment 2 --workload BL --scale 0.05
    python -m repro sweep --workload BL --workers 4 --cache-dir .sweep-cache
    python -m repro sweep --workers 4 --trace-out t.json --metrics-out m.prom
    python -m repro sweep --workers 4 --timeseries-out series.jsonl
    python -m repro obs summarize --trace t.json --metrics m.prom
    python -m repro chaos --workload BL --scale 0.02 --drop-rate 0.2 --out chaos.json
    python -m repro report --out report.md
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Dict, List, Optional, Sequence

from repro.analysis.report import render_table
from repro.analysis.tables import render_policy_ranking, render_table4
from repro.core import SimCache, simulate
from repro.core.experiments import (
    max_needed_for,
    primary_key_sweep,
    run_infinite_cache,
    run_partitioned_sweep,
    run_two_level,
    secondary_key_sweep,
)
from repro.core.literature import literature_policies
from repro.core.policy import RemovalPolicy, policy_from_names
from repro.trace import (
    TraceValidator,
    read_clf_file,
    summarize,
    write_clf_file,
)
from repro.trace.stats import server_rank_series, zipf_slope
from repro.workloads import PROFILES, generate

__all__ = ["main", "parse_capacity", "parse_policy"]

_CAPACITY_RE = re.compile(
    r"^(?P<number>\d+(?:\.\d+)?)\s*(?P<unit>[kmgt]?i?b?)?$", re.IGNORECASE,
)
_UNIT_FACTORS = {
    "": 1, "b": 1,
    "k": 10**3, "kb": 10**3, "kib": 2**10,
    "m": 10**6, "mb": 10**6, "mib": 2**20,
    "g": 10**9, "gb": 10**9, "gib": 2**30,
    "t": 10**12, "tb": 10**12, "tib": 2**40,
}


def parse_capacity(text: str) -> int:
    """Parse a capacity like ``512``, ``64kB``, ``10MB`` or ``1GiB``."""
    match = _CAPACITY_RE.match(text.strip())
    if match is None:
        raise argparse.ArgumentTypeError(f"unparseable capacity {text!r}")
    unit = (match.group("unit") or "").lower()
    try:
        factor = _UNIT_FACTORS[unit]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown capacity unit {unit!r}"
        ) from None
    value = int(float(match.group("number")) * factor)
    if value <= 0:
        raise argparse.ArgumentTypeError("capacity must be positive")
    return value


def parse_policy(text: str) -> RemovalPolicy:
    """Parse a policy: a literature name (``LRU``, ``LRU-MIN``,
    ``Pitkow/Recker``, ``Hyper-G``...), an adaptive policy (``GDS``,
    ``GDSF``, ``GDSF-BYTES``), or a comma-separated key stack (``SIZE``,
    ``SIZE,ATIME``, ``LOG2SIZE,NREF``)."""
    from repro.core.adaptive import GreedyDualSize, gds_byte_cost

    by_name = {
        policy.name.lower(): policy for policy in literature_policies()
    }
    lowered = text.strip().lower()
    if lowered in by_name:
        return by_name[lowered]
    adaptive = {
        "gds": lambda: GreedyDualSize(),
        "gdsf": lambda: GreedyDualSize(with_frequency=True),
        "gds-bytes": lambda: GreedyDualSize(cost=gds_byte_cost),
        "gdsf-bytes": lambda: GreedyDualSize(
            cost=gds_byte_cost, with_frequency=True,
        ),
    }
    if lowered in adaptive:
        return adaptive[lowered]()
    try:
        return policy_from_names(*[part.strip() for part in text.split(",")])
    except KeyError as error:
        names = sorted(by_name)
        raise argparse.ArgumentTypeError(
            f"{error.args[0]} (or use a literature policy: {names})"
        ) from None


def _load_valid_trace(path: str, epoch: float, obs=None):
    """Lenient ingestion: malformed lines are quarantined (counted on
    ``repro_trace_rejected_lines`` when an obs context is given), never
    fatal mid-replay."""
    from repro.trace.reader import IngestStats

    ingest = IngestStats()
    validator = TraceValidator()
    valid = validator.validate(
        read_clf_file(path, epoch=epoch, obs=obs, stats=ingest)
    )
    if ingest.rejected:
        print(
            f"quarantined {ingest.rejected} malformed line(s) of "
            f"{ingest.lines} in {path}",
            file=sys.stderr,
        )
    return valid, validator.stats


def _positive_int(value: str) -> int:
    workers = int(value)
    if workers < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value!r}"
        )
    return workers


def _result_cache(args: argparse.Namespace):
    """Build the on-disk sweep result cache named by ``--cache-dir``."""
    from repro.core.sweep import ResultCache

    if getattr(args, "cache_dir", ""):
        return ResultCache(args.cache_dir)
    return None


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags (sweep/experiment/chaos/proxy)."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--log-level", default="info",
        choices=("debug", "info", "warning", "error"),
        help="event-log threshold (debug streams eviction decisions)",
    )
    group.add_argument(
        "--trace-out", default="", metavar="PATH",
        help="write spans as Chrome trace_event JSON "
             "(open in Perfetto / about:tracing)",
    )
    group.add_argument(
        "--metrics-out", default="", metavar="PATH",
        help="write the metrics registry in Prometheus text format",
    )
    group.add_argument(
        "--events-out", default="", metavar="PATH",
        help="write the structured event log as JSONL",
    )


def _build_obs(args: argparse.Namespace):
    from repro.obs import Obs

    return Obs.create(log_level=args.log_level)


def _write_timeseries_out(named, path: str) -> None:
    """Write named results' per-day series as one checksummed JSONL
    stream (each result's recorder is built here, from its collector)."""
    from repro.obs.timeseries import merge_samples, write_timeseries

    count = write_timeseries(
        merge_samples([(name, result.timeseries) for name, result in named]),
        path,
    )
    print(
        f"wrote {count} time-series sample(s) from "
        f"{len(named)} run(s) to {path}"
    )


def _export_obs(obs, args: argparse.Namespace) -> None:
    """Write whichever artifacts the obs flags requested."""
    from pathlib import Path

    if args.trace_out:
        count = obs.tracer.write_chrome_trace(args.trace_out)
        print(f"wrote {count} trace event(s) to {args.trace_out}")
    if args.metrics_out:
        Path(args.metrics_out).write_text(
            obs.registry.render(), encoding="utf-8",
        )
        print(f"wrote metrics snapshot to {args.metrics_out}")
    if args.events_out:
        count = obs.events.write_jsonl(args.events_out)
        print(f"wrote {count} event(s) to {args.events_out}")


# -- command implementations -------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    generated = generate(args.workload, seed=args.seed, scale=args.scale)
    count = write_clf_file(
        args.out, generated.raw, epoch=args.epoch, augmented=args.augmented,
    )
    valid = len(generated.valid())
    print(f"wrote {count} raw log lines ({valid} valid requests) to {args.out}")
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    valid, stats = _load_valid_trace(args.trace, args.epoch)
    print(render_table(
        ["counter", "value"],
        [[key, value] for key, value in stats.as_dict().items()],
        title="Validation (Section 1.1)",
    ))
    summary = summarize(valid)
    print()
    print(render_table(
        ["measure", "value"],
        [
            ["valid requests", f"{summary.requests:,}"],
            ["bytes transferred", f"{summary.total_gigabytes:.3f} GB"],
            ["unique URLs", f"{summary.unique_urls:,}"],
            ["unique servers", f"{summary.unique_servers:,}"],
            ["unique-document footprint", f"{summary.unique_megabytes:.1f} MB"],
            ["duration", f"{summary.duration_days} days"],
            ["mean requests/day", f"{summary.mean_requests_per_day:.0f}"],
        ],
        title="Workload summary",
    ))
    print()
    print(render_table4({"trace": valid}))
    if summary.unique_servers >= 3:
        slope = zipf_slope(server_rank_series(valid))
        print(f"\nserver popularity log-log slope: {slope:.2f} (Zipf ~ -1)")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    valid, _ = _load_valid_trace(args.trace, args.epoch)
    if not valid:
        print("trace contains no valid requests", file=sys.stderr)
        return 1
    infinite = run_infinite_cache(valid, "infinite")
    if args.capacity is not None:
        capacity: Optional[int] = args.capacity
    elif args.fraction is not None:
        capacity = max(1, int(args.fraction * infinite.max_used_bytes))
    else:
        capacity = None

    rows = [[
        "infinite",
        f"{infinite.hit_rate:.2f}",
        f"{infinite.weighted_hit_rate:.2f}",
        f"{infinite.max_used_bytes / 2**20:.1f}",
        0,
    ]]
    if capacity is not None:
        for policy_text in args.policy or ["SIZE"]:
            policy = parse_policy(policy_text)
            result = simulate(
                valid,
                SimCache(capacity=capacity, policy=policy, seed=args.seed),
                name=policy.name,
            )
            rows.append([
                f"{policy.name} @ {capacity / 2**20:.1f} MB",
                f"{result.hit_rate:.2f}",
                f"{result.weighted_hit_rate:.2f}",
                f"{result.max_used_bytes / 2**20:.1f}",
                result.cache.eviction_count,
            ])
    print(render_table(
        ["configuration", "HR%", "WHR%", "peak MB", "evictions"],
        rows,
        title=f"Simulation of {args.trace} ({len(valid):,} valid requests)",
    ))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    trace = generate(
        args.workload, seed=args.seed, scale=args.scale,
    ).valid()
    infinite = run_infinite_cache(trace, args.workload)
    print(
        f"workload {args.workload} at scale {args.scale}: "
        f"{len(trace):,} requests, infinite HR {infinite.hit_rate:.1f}% "
        f"WHR {infinite.weighted_hit_rate:.1f}%, "
        f"MaxNeeded {infinite.max_used_bytes / 2**20:.1f} MB\n"
    )
    obs = _build_obs(args)
    runs = [("infinite", infinite)]
    if args.number == 1:
        smoothed = infinite.metrics.smoothed_hr()
        rows = [
            [day, f"{hr:.1f}", f"{whr:.1f}"]
            for (day, hr), (_, whr) in zip(
                smoothed, infinite.metrics.smoothed_whr(),
            )
        ][:: max(1, len(smoothed) // 20)]
        print(render_table(
            ["day", "HR% (7-day avg)", "WHR% (7-day avg)"], rows,
            title="Experiment 1: infinite cache",
        ))
    elif args.number == 2:
        result_cache = _result_cache(args)
        sweep = primary_key_sweep(
            trace, infinite.max_used_bytes, args.fraction, seed=args.seed,
            workers=args.workers, result_cache=result_cache, obs=obs,
        )
        print(render_policy_ranking(
            sweep, infinite,
            title=(
                f"Experiment 2: primary keys at "
                f"{100 * args.fraction:.0f}% of MaxNeeded"
            ),
        ))
        runs += sweep.items()
        secondary = secondary_key_sweep(
            trace, infinite.max_used_bytes, args.fraction, seed=args.seed,
            workers=args.workers, result_cache=result_cache, obs=obs,
        )
        runs += [
            (f"secondary/{name}", result)
            for name, result in secondary.items()
        ]
        baseline = secondary["RANDOM"].weighted_hit_rate
        print()
        print(render_table(
            ["secondary key", "WHR%", "% of RANDOM"],
            [
                [name, f"{result.weighted_hit_rate:.2f}",
                 f"{100 * result.weighted_hit_rate / baseline:.1f}"
                 if baseline else "-"]
                for name, result in secondary.items()
            ],
            title="Experiment 2: secondary keys (primary = LOG2SIZE)",
        ))
    elif args.number == 3:
        result = run_two_level(
            trace, infinite.max_used_bytes, args.fraction, seed=args.seed,
        )
        runs.append(("two-level", result))
        print(render_table(
            ["level", "HR% (all requests)", "WHR% (all requests)"],
            [
                ["L1 (finite, SIZE)",
                 f"{result.l1_metrics.hit_rate:.2f}",
                 f"{result.l1_metrics.weighted_hit_rate:.2f}"],
                ["L2 (infinite)",
                 f"{result.l2_metrics.hit_rate:.2f}",
                 f"{result.l2_metrics.weighted_hit_rate:.2f}"],
            ],
            title=(
                f"Experiment 3: two-level cache, L1 = "
                f"{100 * args.fraction:.0f}% of MaxNeeded"
            ),
        ))
    else:
        sweep = run_partitioned_sweep(
            trace, infinite.max_used_bytes, args.fraction, seed=args.seed,
        )
        rows = []
        for fraction in sorted(sweep):
            result = sweep[fraction]
            runs.append((f"audio={fraction:.2f}", result))
            rows.append([
                f"{fraction:.2f}",
                f"{result.class_metrics['audio'].weighted_hit_rate:.2f}",
                f"{result.class_metrics['non-audio'].weighted_hit_rate:.2f}",
                f"{result.overall.weighted_hit_rate:.2f}",
            ])
        print(render_table(
            ["audio fraction", "audio WHR%", "non-audio WHR%",
             "overall WHR%"],
            rows,
            title="Experiment 4: partitioned cache",
        ))
    if args.timeseries_out:
        _write_timeseries_out(runs, args.timeseries_out)
    _export_obs(obs, args)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run the full 36-policy taxonomy grid through the sweep engine."""
    from repro.core.policy import taxonomy_policies
    from repro.core.sweep import (
        PolicySpec,
        SimOptions,
        SweepInterrupted,
        SweepJob,
        run_sweep,
    )

    if args.resume and not os.path.isdir(args.resume):
        # A typo must not cost the whole grid: run_sweep would create
        # the directory and start a fresh sweep there.
        print(
            f"sweep: --resume {args.resume}: no such checkpoint directory",
            file=sys.stderr,
        )
        return 2
    obs = _build_obs(args)
    if args.trace:
        valid, _ = _load_valid_trace(args.trace, args.epoch, obs=obs)
        label = args.trace
    else:
        valid = generate(
            args.workload, seed=args.seed, scale=args.scale,
        ).valid()
        label = f"workload {args.workload} at scale {args.scale}"
    if not valid:
        print("trace contains no valid requests", file=sys.stderr)
        return 1
    infinite = run_infinite_cache(valid)
    capacity = max(1, int(args.fraction * infinite.max_used_bytes))
    jobs = [
        SweepJob(
            spec=PolicySpec.from_policy(policy),
            capacity=capacity,
            options=SimOptions(seed=args.seed),
            name=policy.name,
        )
        for policy in taxonomy_policies()
    ]
    fault_plan = None
    if getattr(args, "fault_plan", ""):
        from repro.faults import FaultPlan

        fault_plan = FaultPlan.load(args.fault_plan)
    checkpoint_dir = args.resume or args.checkpoint_dir or None
    try:
        report = run_sweep(
            valid, jobs,
            workers=args.workers,
            result_cache=_result_cache(args),
            obs=obs,
            fault_plan=fault_plan,
            checkpoint_dir=checkpoint_dir,
            resume=bool(args.resume),
        )
    except SweepInterrupted as interrupt:
        print(
            f"\nsweep interrupted (signal {interrupt.signum}): "
            f"{interrupt.completed}/{interrupt.total} jobs checkpointed — "
            f"resume with: repro sweep --resume {interrupt.checkpoint_dir}",
            file=sys.stderr,
        )
        _export_obs(obs, args)
        return 130
    ranked = sorted(
        report.results, key=lambda jr: jr.result.hit_rate, reverse=True,
    )
    rows = [
        [
            rank,
            jr.result.name,
            f"{jr.result.hit_rate:.2f}",
            f"{jr.result.weighted_hit_rate:.2f}",
            jr.result.cache.eviction_count,
            "cache" if jr.from_cache else f"{jr.seconds:.2f}s",
        ]
        for rank, jr in enumerate(ranked, start=1)
    ]
    print(render_table(
        ["rank", "policy", "HR%", "WHR%", "evictions", "computed in"],
        rows,
        title=(
            f"36-policy sweep of {label} "
            f"({len(valid):,} requests, cache "
            f"{100 * args.fraction:.0f}% of MaxNeeded)"
        ),
    ))
    resumed = (
        f", {report.resumed_jobs} resumed from checkpoint"
        if report.resumed_jobs else ""
    )
    print(
        f"\nsweep engine: {len(jobs)} runs in {report.wall_seconds:.2f}s "
        f"({report.workers} workers, "
        f"{report.requests_per_second:,.0f} simulated requests/s, "
        f"result cache {report.cache_hits} hits / "
        f"{report.cache_misses} misses{resumed})"
    )
    if args.results_out:
        import json as _json
        from pathlib import Path

        from repro.core.sweep import result_to_record

        # Timing-free, key-sorted records: two runs of the same sweep
        # (uninterrupted, or killed and resumed) diff byte-identical.
        payload = {
            "trace_hash": report.trace_hash,
            "results": [
                result_to_record(jr.result) for jr in report.results
            ],
        }
        Path(args.results_out).write_text(
            _json.dumps(payload, sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {len(report.results)} result record(s) "
              f"to {args.results_out}")
    if args.timeseries_out:
        _write_timeseries_out(
            [(jr.result.name, jr.result) for jr in report.results],
            args.timeseries_out,
        )
    _export_obs(obs, args)
    return 0


def cmd_proxy(args: argparse.Namespace) -> int:
    from repro.proxy import CachingProxy, ConsistencyEstimator, ProxyStore
    from repro.retry import RetryPolicy

    obs = _build_obs(args)
    store = ProxyStore(
        capacity=args.capacity, policy=parse_policy(args.policy),
        state_dir=args.state_dir or None,
    )
    if store.recovery is not None:
        rec = store.recovery
        print(f"store recovered {rec.documents} document(s) from "
              f"{args.state_dir} (snapshot {rec.snapshot_documents}, "
              f"journal {rec.journal_replayed} replayed, "
              f"{rec.tail_discarded} torn tail record(s) discarded)")
    resolver = None
    if args.origin:
        host, _, port = args.origin.partition(":")
        address = (host, int(port or 80))
        resolver = lambda _: address  # noqa: E731 - tiny closure
    proxy = CachingProxy(
        store,
        resolver=resolver,
        estimator=ConsistencyEstimator(default_ttl=args.ttl),
        host=args.host,
        port=args.port,
        timeout=args.timeout,
        retry_policy=RetryPolicy(
            timeout=args.timeout, max_retries=args.retries,
        ),
        obs=obs,
    ).start()
    print(f"caching proxy on {proxy.address[0]}:{proxy.address[1]} "
          f"({args.capacity / 2**20:.1f} MB, policy {store._cache.policy.name})")
    print(f"metrics exposition: "
          f"curl http://{proxy.address[0]}:{proxy.address[1]}/metrics")
    try:
        import time
        while True:
            time.sleep(5.0)
            print(f"  requests={proxy.stats.requests} "
                  f"HR={proxy.stats.hit_rate:.1f}% "
                  f"stored={len(store)} used={store.used_bytes // 1024} kB "
                  f"retries={proxy.stats.retries} "
                  f"stale={proxy.stats.stale_served} "
                  f"errors={proxy.stats.errors}")
    except KeyboardInterrupt:
        pass
    finally:
        proxy.stop()
        store.close()
    _export_obs(obs, args)
    return 0


def cmd_mrc(args: argparse.Namespace) -> int:
    """Print miss-ratio curves for one or more policies over a trace."""
    from repro.analysis.sweeps import miss_ratio_curve
    from repro.core.experiments import max_needed_for

    valid, _ = _load_valid_trace(args.trace, args.epoch)
    if not valid:
        print("trace contains no valid requests", file=sys.stderr)
        return 1
    max_needed = max_needed_for(valid)
    fractions = tuple(args.fractions)
    if args.single_pass:
        return _cmd_mrc_single_pass(args, valid, max_needed, fractions)
    result_cache = _result_cache(args)
    curves = {}
    for policy_text in args.policy or ["SIZE", "LRU"]:
        # A fresh policy per point is built inside the sweep; pass a
        # factory so stateful policies (GDS/GDSF) are never shared.
        curves[policy_text] = dict(miss_ratio_curve(
            valid,
            lambda text=policy_text: parse_policy(text),
            max_needed,
            fractions,
            weighted=args.weighted,
            seed=args.seed,
            workers=args.workers,
            result_cache=result_cache,
        ))
    headers = ["fraction of MaxNeeded"] + list(curves)
    rows = []
    for fraction in sorted(fractions):
        row = [f"{fraction:.2f}"]
        row.extend(f"{curves[name][fraction]:.2f}" for name in curves)
        rows.append(row)
    kind = "byte miss ratio" if args.weighted else "miss ratio"
    print(render_table(
        headers, rows,
        title=(
            f"{kind} (%) vs cache size "
            f"(MaxNeeded = {max_needed / 2**20:.1f} MB)"
        ),
    ))
    return 0


def _cmd_mrc_single_pass(args, valid, max_needed, fractions) -> int:
    """The ``mrc --single-pass`` path: every primary key's curve from
    one trace pass, with error bars, optionally exported as checksummed
    JSONL."""
    from repro.analysis.mrc import single_pass_mrc, write_curves
    from repro.core.keys import key_by_name

    keys = None
    if args.policy:
        try:
            keys = [key_by_name(name) for name in args.policy]
        except KeyError as error:
            print(
                f"--single-pass estimates sort-key policies only: {error}",
                file=sys.stderr,
            )
            return 1
    obs = _build_obs(args)
    try:
        result = single_pass_mrc(
            valid, max_needed,
            rate=args.rate, replicates=args.replicates,
            fractions=fractions, keys=keys, seed=args.seed, obs=obs,
        )
    except ValueError as error:
        print(f"single-pass mrc: {error}", file=sys.stderr)
        return 1
    headers = ["fraction of MaxNeeded", "rate"] + [
        f"{key} {'WHR' if args.weighted else 'HR'}" for key in result.keys()
    ]
    rows = []
    for i, fraction in enumerate(fractions):
        row = [f"{fraction:.2f}", f"{result.points[i].rate:.2f}"]
        for key in result.keys():
            _, value, ci = result.curve(key, weighted=args.weighted)[i]
            cell = f"{value:.2f}"
            if ci is not None:
                cell += f" ±{ci:.2f}"
            row.append(cell)
        rows.append(row)
    kind = "byte hit ratio" if args.weighted else "hit ratio"
    print(render_table(
        headers, rows,
        title=(
            f"single-pass {kind} (%) vs cache size "
            f"(rate {args.rate:g}, {args.replicates} replicates, "
            f"MaxNeeded = {max_needed / 2**20:.1f} MB)"
        ),
    ))
    if args.curves_out:
        count = write_curves(result, args.curves_out)
        print(f"wrote {count} curve points to {args.curves_out}")
    _export_obs(obs, args)
    return 0


def cmd_clone(args: argparse.Namespace) -> int:
    """Calibrate a profile from a real trace and synthesise a stand-in."""
    from repro.workloads.calibrate import profile_from_trace
    from repro.workloads.generator import WorkloadGenerator

    valid, _ = _load_valid_trace(args.trace, args.epoch)
    if not valid:
        print("trace contains no valid requests", file=sys.stderr)
        return 1
    profile = profile_from_trace(valid, key=args.key)
    generated = WorkloadGenerator(
        profile, seed=args.seed, scale=args.scale,
    ).generate()
    count = write_clf_file(args.out, generated.raw, epoch=args.epoch)
    clone_valid = len(generated.valid())
    print(
        f"calibrated profile from {len(valid):,} valid requests "
        f"({profile.duration_days} days, "
        f"{profile.total_bytes / 2**20:.1f} MB); "
        f"wrote {count} synthetic lines ({clone_valid:,} valid, "
        f"scale {args.scale}) to {args.out}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.reproduce import full_report

    text = full_report(
        scale=args.scale, seed=args.seed, fraction=args.fraction,
    )
    if args.out:
        from pathlib import Path
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote reproduction report to {args.out}")
    else:
        print(text)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Replay a trace through the live proxy under an injected fault
    plan and report how gracefully it degraded."""
    from repro.faults import FaultPlan
    from repro.proxy.chaos import run_chaos
    from repro.retry import RetryPolicy

    if args.trace:
        valid, _ = _load_valid_trace(args.trace, args.epoch)
        label = args.trace
    else:
        valid = generate(
            args.workload, seed=args.seed, scale=args.scale,
        ).valid()
        label = f"workload {args.workload} at scale {args.scale}"
    if not valid:
        print("trace contains no valid requests", file=sys.stderr)
        return 1
    if args.fault_plan:
        plan = FaultPlan.load(args.fault_plan)
        plan_label = args.fault_plan
    else:
        plan = FaultPlan.basic(
            drop=args.drop_rate,
            error=args.error_rate,
            truncate=args.truncate_rate,
            seed=args.seed,
        )
        plan_label = (
            f"drop={args.drop_rate} error={args.error_rate} "
            f"truncate={args.truncate_rate}"
        )
    obs = _build_obs(args)
    report = run_chaos(
        valid,
        plan,
        fraction=args.fraction,
        policy=parse_policy(args.policy),
        ttl=args.ttl if args.ttl > 0 else None,
        retry_policy=RetryPolicy(
            timeout=args.timeout,
            max_retries=args.retries,
            backoff_base=0.01,
            max_backoff=0.25,
        ),
        obs=obs,
    )
    print(f"chaos replay of {label} ({len(valid):,} requests) "
          f"under fault plan [{plan_label}]\n")
    print(report.render())
    if args.out:
        report.write(args.out)
        print(f"\nwrote degradation report to {args.out}")
    _export_obs(obs, args)
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Observability utilities: the metric-name lint and the artifact
    summarizer."""
    if args.obs_command == "check":
        from repro.obs.check import render_problems, run_check

        problems, registered = run_check()
        print(render_problems(problems, registered))
        return 1 if problems else 0
    if args.obs_command == "tail":
        from repro.obs.events import tail_events

        try:
            tail_events(
                args.events,
                channel=args.channel or None,
                level=args.level or None,
                follow=args.follow,
                poll_interval=args.interval,
            )
        except FileNotFoundError:
            print(f"obs tail: {args.events}: no such file", file=sys.stderr)
            return 1
        except ValueError as error:
            print(f"obs tail: {error}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            pass  # a follow ends on ^C, not with a traceback
        return 0
    from repro.obs.summarize import ArtifactError, summarize_run

    try:
        print(summarize_run(
            events_path=args.events or None,
            trace_path=args.trace or None,
            metrics_path=args.metrics or None,
            timeseries_path=args.timeseries or None,
            fleet_path=args.fleet or None,
        ))
    except ArtifactError as error:
        print(f"obs summarize: {error}", file=sys.stderr)
        return 1
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """The sharded proxy fleet: serve, shard entrypoint, chaos, status."""
    if args.fleet_command == "shard":
        from repro.proxy.fleet import shard_main

        return shard_main(args)
    if args.fleet_command == "status":
        from repro.httpnet.client import fetch

        host, _, port = args.router.partition(":")
        try:
            response = fetch(
                (host, int(port or 80)), "/fleet/status", timeout=5.0,
            )
        except (OSError, ValueError) as error:
            print(f"fleet status: {error}", file=sys.stderr)
            return 1
        print(response.body.decode("utf-8"))
        return 0 if response.status == 200 else 1
    if args.fleet_command == "telemetry":
        return _cmd_fleet_telemetry(args)
    if args.fleet_command == "chaos":
        from repro.faults import FaultPlan
        from repro.proxy.fleet import run_fleet_chaos

        plan = FaultPlan.load(args.fault_plan) if args.fault_plan else None
        obs = _build_obs(args)
        report = run_fleet_chaos(
            state_root=args.state_dir,
            shards=args.shards,
            requests=args.requests,
            rate=args.rate,
            seed=args.seed,
            profile=args.workload,
            scale=args.scale,
            plan=plan,
            capacity=args.capacity,
            policy=args.policy,
            shard_max_inflight=args.max_inflight,
            availability_floor=args.floor,
            obs=obs,
            telemetry_out=args.telemetry_out or None,
            dashboard_out=args.dashboard_out or None,
            timeseries_out=args.timeseries_out or None,
        )
        print(report.render())
        if args.out:
            report.write(args.out)
            print(f"wrote fleet report to {args.out}")
        for flag, path in (
            ("telemetry", args.telemetry_out),
            ("dashboard", args.dashboard_out),
            ("time series", args.timeseries_out),
        ):
            if path:
                print(f"wrote fleet {flag} to {path}")
        _export_obs(obs, args)
        return 0 if report.ok else 1
    # serve: run supervisor + router until SIGTERM/SIGINT.
    import signal as _signal
    import threading
    from pathlib import Path

    from repro.obs.telemetry import TelemetryAggregator, render_dashboard_html
    from repro.proxy.fleet import FleetSupervisor, ShardSpec
    from repro.proxy.router import FleetRouter

    obs = _build_obs(args)
    state_root = Path(args.state_dir)
    specs = [
        ShardSpec(
            shard_id=index,
            state_dir=state_root / f"shard-{index}",
            capacity=args.capacity,
            policy=args.policy,
            origin=args.origin,
            timeout=args.timeout,
            max_inflight=args.max_inflight,
        )
        for index in range(args.shards)
    ]
    supervisor = FleetSupervisor(specs, obs=obs)
    supervisor.start()
    aggregator = TelemetryAggregator(supervisor, obs=obs)
    aggregator.start()
    router = FleetRouter(
        supervisor,
        host=args.host,
        port=args.port,
        obs=obs,
        status=supervisor.status,
        telemetry=aggregator.telemetry,
        dashboard=lambda: render_dashboard_html(aggregator.telemetry()),
    ).start()
    print(f"fleet router on {router.address[0]}:{router.address[1]} "
          f"({args.shards} shard(s), state under {state_root})")
    print(f"fleet status: curl http://{router.address[0]}"
          f":{router.address[1]}/fleet/status")
    print(f"fleet telemetry: curl http://{router.address[0]}"
          f":{router.address[1]}/fleet/telemetry")
    stop = threading.Event()
    _signal.signal(_signal.SIGTERM, lambda *_: stop.set())
    try:
        while not stop.wait(5.0):
            status = supervisor.status()
            print(f"  up={status['up']}/{args.shards} "
                  f"restarts={status['restarts']}")
    except KeyboardInterrupt:
        pass
    finally:
        router.stop()
        aggregator.stop()
        supervisor.stop()
    _export_obs(obs, args)
    return 0


def _cmd_fleet_telemetry(args: argparse.Namespace) -> int:
    """``repro fleet telemetry``: fetch a live router's rollup document
    (or load a saved one) and render the dashboard."""
    import json as _json

    from repro.obs.telemetry import (
        render_dashboard_ascii,
        render_dashboard_html,
    )
    from repro.proxy.router import TELEMETRY_PATH

    if getattr(args, "from_path", ""):
        from pathlib import Path

        try:
            doc = _json.loads(
                Path(args.from_path).read_text(encoding="utf-8"),
            )
        except (OSError, ValueError) as error:
            print(f"fleet telemetry: {error}", file=sys.stderr)
            return 1
    else:
        from repro.httpnet.client import fetch

        host, _, port = args.router.partition(":")
        try:
            response = fetch(
                (host, int(port or 80)), TELEMETRY_PATH, timeout=5.0,
            )
        except (OSError, ValueError) as error:
            print(f"fleet telemetry: {error}", file=sys.stderr)
            return 1
        if response.status != 200:
            print(f"fleet telemetry: router returned {response.status}",
                  file=sys.stderr)
            return 1
        try:
            doc = _json.loads(response.body.decode("utf-8"))
        except ValueError as error:
            print(f"fleet telemetry: bad payload ({error})", file=sys.stderr)
            return 1
    if not isinstance(doc, dict):
        print("fleet telemetry: payload is not a telemetry document",
              file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_dashboard_ascii(doc))
    if args.html_out:
        from pathlib import Path

        Path(args.html_out).write_text(
            render_dashboard_html(doc), encoding="utf-8",
        )
        print(f"wrote dashboard to {args.html_out}")
    return 0


def cmd_origin(args: argparse.Namespace) -> int:
    from repro.proxy import OriginServer

    origin = OriginServer(host=args.host, port=args.port).start()
    print(f"origin server on {origin.address[0]}:{origin.address[1]}")
    try:
        import time
        while True:
            time.sleep(5.0)
            print(f"  requests served: {origin.request_count}")
    except KeyboardInterrupt:
        pass
    finally:
        origin.stop()
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Construct the full ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Removal Policies in Network Caches for "
            "World-Wide Web Documents' (SIGCOMM 1996)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser(
        "generate", help="synthesise a workload as a CLF file",
    )
    gen.add_argument("workload", choices=sorted(PROFILES))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--scale", type=float, default=0.1)
    gen.add_argument("--epoch", type=float, default=800_000_000.0,
                     help="wall-clock epoch of trace start")
    gen.add_argument("--augmented", action="store_true",
                     help="append the Last-Modified column")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    character = commands.add_parser(
        "characterize", help="summarise a CLF trace",
    )
    character.add_argument("trace")
    character.add_argument("--epoch", type=float, default=800_000_000.0)
    character.set_defaults(func=cmd_characterize)

    sim = commands.add_parser(
        "simulate", help="simulate caches over a CLF trace",
    )
    sim.add_argument("trace")
    sim.add_argument("--epoch", type=float, default=800_000_000.0)
    sim.add_argument("--policy", action="append",
                     help="policy name or key stack (repeatable)")
    group = sim.add_mutually_exclusive_group()
    group.add_argument("--capacity", type=parse_capacity,
                       help="cache size, e.g. 10MB")
    group.add_argument("--fraction", type=float,
                       help="cache size as a fraction of MaxNeeded")
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(func=cmd_simulate)

    experiment = commands.add_parser(
        "experiment", help="run one of the paper's experiments",
    )
    experiment.add_argument("number", type=int, choices=(1, 2, 3, 4))
    experiment.add_argument("--workload", default="BL",
                            choices=sorted(PROFILES))
    experiment.add_argument("--scale", type=float, default=0.05)
    experiment.add_argument("--seed", type=int, default=1996)
    experiment.add_argument("--fraction", type=float, default=0.10)
    experiment.add_argument("--workers", type=_positive_int, default=1,
                            help="processes for the policy sweeps")
    experiment.add_argument("--cache-dir", default="",
                            help="memoize sweep runs in this directory")
    experiment.add_argument("--timeseries-out", default="", metavar="PATH",
                            help="write the run's recorded per-day "
                                 "series as checksummed JSONL")
    _add_obs_flags(experiment)
    experiment.set_defaults(func=cmd_experiment)

    sweep = commands.add_parser(
        "sweep",
        help="the full 36-policy taxonomy grid via the sweep engine",
    )
    sweep.add_argument("trace", nargs="?", default="",
                       help="CLF trace (synthesises --workload when omitted)")
    sweep.add_argument("--epoch", type=float, default=800_000_000.0)
    sweep.add_argument("--workload", default="BL",
                       choices=sorted(PROFILES))
    sweep.add_argument("--scale", type=float, default=0.05)
    sweep.add_argument("--seed", type=int, default=1996)
    sweep.add_argument("--fraction", type=float, default=0.10)
    sweep.add_argument("--workers", type=_positive_int, default=1,
                       help="processes to fan the grid out over")
    sweep.add_argument("--cache-dir", default="",
                       help="memoize sweep runs in this directory")
    sweep.add_argument("--checkpoint-dir", default="", metavar="DIR",
                       help="journal completed jobs here so a killed "
                            "sweep can be resumed")
    sweep.add_argument("--resume", default="", metavar="DIR",
                       help="resume a checkpointed sweep from DIR "
                            "(must exist), skipping journaled jobs")
    sweep.add_argument("--fault-plan", default="", metavar="PATH",
                       help="JSON fault plan (disk faults and "
                            "coordinator kills)")
    sweep.add_argument("--results-out", default="", metavar="PATH",
                       help="write timing-free result records as "
                            "sorted JSON (byte-stable across resumes)")
    sweep.add_argument("--timeseries-out", default="", metavar="PATH",
                       help="write every policy's recorded per-day "
                            "series as checksummed JSONL")
    _add_obs_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    proxy = commands.add_parser("proxy", help="run the live caching proxy")
    proxy.add_argument("--capacity", type=parse_capacity, default=64 * 2**20)
    proxy.add_argument("--policy", default="SIZE")
    proxy.add_argument("--ttl", type=float, default=3600.0)
    proxy.add_argument("--host", default="127.0.0.1")
    proxy.add_argument("--port", type=int, default=8080)
    proxy.add_argument("--origin", default="",
                       help="route every request to this host:port")
    proxy.add_argument("--timeout", type=float, default=5.0,
                       help="per-attempt origin timeout, seconds")
    proxy.add_argument("--retries", type=int, default=2,
                       help="origin fetch retries after the first attempt")
    proxy.add_argument("--state-dir", default="", metavar="DIR",
                       help="persist the store (snapshot + journal) here "
                            "for warm restarts")
    _add_obs_flags(proxy)
    proxy.set_defaults(func=cmd_proxy)

    chaos = commands.add_parser(
        "chaos",
        help=(
            "replay a trace through the proxy under an injected fault "
            "plan and report the degradation"
        ),
    )
    chaos.add_argument("trace", nargs="?", default="",
                       help="CLF trace (synthesises --workload when omitted)")
    chaos.add_argument("--epoch", type=float, default=800_000_000.0)
    chaos.add_argument("--workload", default="BL", choices=sorted(PROFILES))
    chaos.add_argument("--scale", type=float, default=0.02)
    chaos.add_argument("--seed", type=int, default=1996)
    chaos.add_argument("--fraction", type=float, default=0.25,
                       help="store size as a fraction of the unique footprint")
    chaos.add_argument("--policy", default="SIZE")
    chaos.add_argument("--ttl", type=float, default=0.0,
                       help="pinned freshness TTL, seconds (0 = auto from "
                            "the trace span)")
    chaos.add_argument("--fault-plan", default="",
                       help="JSON fault plan file (overrides the --*-rate "
                            "flags)")
    chaos.add_argument("--drop-rate", type=float, default=0.2,
                       help="fraction of origin connections dropped")
    chaos.add_argument("--error-rate", type=float, default=0.0,
                       help="fraction of origin responses turned into 503s")
    chaos.add_argument("--truncate-rate", type=float, default=0.0,
                       help="fraction of origin responses truncated")
    chaos.add_argument("--timeout", type=float, default=1.0,
                       help="per-attempt origin timeout, seconds")
    chaos.add_argument("--retries", type=int, default=2,
                       help="origin fetch retries after the first attempt")
    chaos.add_argument("--out", default="",
                       help="write the JSON degradation report here")
    _add_obs_flags(chaos)
    chaos.set_defaults(func=cmd_chaos)

    obs = commands.add_parser(
        "obs", help="observability utilities (lint, summarize)",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_check = obs_sub.add_parser(
        "check",
        help="lint metric names: catalog conventions, duplicates, "
             "unregistered literals",
    )
    obs_check.set_defaults(func=cmd_obs)
    obs_tail = obs_sub.add_parser(
        "tail",
        help="stream an events JSONL file, optionally filtered and "
             "followed live",
    )
    obs_tail.add_argument("events", metavar="PATH",
                          help="events JSONL file (--events-out)")
    obs_tail.add_argument("--channel", default="",
                          help="only events from this channel")
    obs_tail.add_argument("--level", default="",
                          help="minimum level (debug/info/warning/error)")
    obs_tail.add_argument("--follow", "-f", action="store_true",
                          help="keep polling for appended events "
                               "(waits for the file to appear)")
    obs_tail.add_argument("--interval", type=float, default=0.2,
                          help="poll interval for --follow, seconds")
    obs_tail.set_defaults(func=cmd_obs)
    obs_summarize = obs_sub.add_parser(
        "summarize", help="summarize run artifacts into tables",
    )
    obs_summarize.add_argument("--events", default="", metavar="PATH",
                               help="JSONL event log (--events-out)")
    obs_summarize.add_argument("--trace", default="", metavar="PATH",
                               help="Chrome trace JSON (--trace-out)")
    obs_summarize.add_argument("--metrics", default="", metavar="PATH",
                               help="Prometheus text file (--metrics-out)")
    obs_summarize.add_argument("--timeseries", default="", metavar="PATH",
                               help="checksummed time-series JSONL "
                                    "(--timeseries-out); verifies the "
                                    "checksum trailer")
    obs_summarize.add_argument("--fleet", default="", metavar="PATH",
                               help="FLEET_report.json from 'fleet chaos'; "
                                    "renders the one-line fleet summary")
    obs_summarize.set_defaults(func=cmd_obs)

    fleet = commands.add_parser(
        "fleet",
        help="sharded proxy fleet: supervisor + rendezvous router "
             "(serve, chaos, status)",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    def _fleet_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--shards", type=_positive_int, default=4)
        sub.add_argument("--capacity", type=parse_capacity,
                         default=4 * 2**20,
                         help="per-shard store capacity")
        sub.add_argument("--policy", default="SIZE")
        sub.add_argument("--timeout", type=float, default=5.0)
        sub.add_argument("--max-inflight", type=int, default=12,
                         help="per-shard admission bound (excess is shed "
                              "as 503 + Retry-After)")
        sub.add_argument("--state-dir", required=True, metavar="DIR",
                         help="root directory; each shard journals under "
                              "DIR/shard-<i>")

    fleet_serve = fleet_sub.add_parser(
        "serve", help="run the supervisor and router until SIGTERM",
    )
    _fleet_common(fleet_serve)
    fleet_serve.add_argument("--host", default="127.0.0.1")
    fleet_serve.add_argument("--port", type=int, default=8080)
    fleet_serve.add_argument("--origin", default="",
                             help="route every request to this host:port")
    _add_obs_flags(fleet_serve)
    fleet_serve.set_defaults(func=cmd_fleet)

    fleet_chaos = fleet_sub.add_parser(
        "chaos",
        help="seeded shard-kill + overload scenario; writes the "
             "byte-reproducible FLEET_report.json",
    )
    _fleet_common(fleet_chaos)
    fleet_chaos.add_argument("--requests", type=_positive_int, default=240)
    fleet_chaos.add_argument("--rate", type=float, default=80.0,
                             help="offered arrival rate, requests/second")
    fleet_chaos.add_argument("--seed", type=int, default=1996)
    fleet_chaos.add_argument("--workload", default="U",
                             choices=sorted(PROFILES))
    fleet_chaos.add_argument("--scale", type=float, default=0.05)
    fleet_chaos.add_argument("--fault-plan", default="",
                             help="JSON fault plan (defaults to one seeded "
                                  "KILL_SHARD mid-schedule)")
    fleet_chaos.add_argument("--floor", type=float, default=99.0,
                             help="availability floor, percent well-formed")
    fleet_chaos.add_argument("--out", default="",
                             help="write FLEET_report.json here")
    fleet_chaos.add_argument("--telemetry-out", default="", metavar="PATH",
                             help="write the final aggregated telemetry "
                                  "document as JSON")
    fleet_chaos.add_argument("--dashboard-out", default="", metavar="PATH",
                             help="write the HTML telemetry dashboard "
                                  "snapshot")
    fleet_chaos.add_argument("--timeseries-out", default="", metavar="PATH",
                             help="write the aggregator's per-round rollup "
                                  "series as checksummed JSONL")
    _add_obs_flags(fleet_chaos)
    fleet_chaos.set_defaults(func=cmd_fleet)

    fleet_shard = fleet_sub.add_parser(
        "shard",
        help="run one shard process (spawned by the supervisor; "
             "publishes endpoint.json into its state dir)",
    )
    fleet_shard.add_argument("--shard-id", type=int, default=0)
    fleet_shard.add_argument("--state-dir", required=True, metavar="DIR")
    fleet_shard.add_argument("--capacity", type=parse_capacity,
                             default=4 * 2**20)
    fleet_shard.add_argument("--policy", default="SIZE")
    fleet_shard.add_argument("--origin", default="")
    fleet_shard.add_argument("--timeout", type=float, default=5.0)
    fleet_shard.add_argument("--max-inflight", type=int, default=12)
    fleet_shard.add_argument("--max-clients", type=int, default=4)
    fleet_shard.add_argument("--read-deadline", type=float, default=2.0)
    fleet_shard.set_defaults(func=cmd_fleet)

    fleet_status = fleet_sub.add_parser(
        "status", help="print a running router's /fleet/status document",
    )
    fleet_status.add_argument("--router", default="127.0.0.1:8080",
                              metavar="HOST:PORT")
    fleet_status.set_defaults(func=cmd_fleet)

    fleet_telemetry = fleet_sub.add_parser(
        "telemetry",
        help="render a fleet's aggregated telemetry (rollups, SLO burn "
             "rates) from a live router or a saved document",
    )
    fleet_telemetry.add_argument("--router", default="127.0.0.1:8080",
                                 metavar="HOST:PORT",
                                 help="fetch /fleet/telemetry from this "
                                      "router")
    fleet_telemetry.add_argument("--from", dest="from_path", default="",
                                 metavar="PATH",
                                 help="render a saved --telemetry-out "
                                      "document instead of fetching")
    fleet_telemetry.add_argument("--json", action="store_true",
                                 help="print the raw JSON document")
    fleet_telemetry.add_argument("--html-out", default="", metavar="PATH",
                                 help="also write the HTML dashboard here")
    fleet_telemetry.set_defaults(func=cmd_fleet)

    origin = commands.add_parser("origin", help="run the toy origin server")
    origin.add_argument("--host", default="127.0.0.1")
    origin.add_argument("--port", type=int, default=8081)
    origin.set_defaults(func=cmd_origin)

    mrc = commands.add_parser(
        "mrc", help="miss-ratio curves over a CLF trace",
    )
    mrc.add_argument("trace")
    mrc.add_argument("--epoch", type=float, default=800_000_000.0)
    mrc.add_argument("--policy", action="append",
                     help="policy name or key stack (repeatable)")
    mrc.add_argument("--fractions", type=float, nargs="+",
                     default=[0.05, 0.10, 0.25, 0.50, 1.0])
    mrc.add_argument("--weighted", action="store_true",
                     help="byte miss ratio instead of request miss ratio")
    mrc.add_argument("--seed", type=int, default=0)
    mrc.add_argument("--workers", type=_positive_int, default=1,
                     help="processes for the size sweep")
    mrc.add_argument("--cache-dir", default="",
                     help="memoize sweep runs in this directory")
    mrc.add_argument("--single-pass", action="store_true",
                     help="estimate all curves in one trace pass over a "
                          "spatial URL sample (sort-key policies only)")
    mrc.add_argument("--rate", type=float, default=0.10,
                     help="base URL sampling rate for --single-pass")
    mrc.add_argument("--replicates", type=_positive_int, default=4,
                     help="salted replicates for --single-pass error bars")
    mrc.add_argument("--curves-out", default="", metavar="PATH",
                     help="write --single-pass curve points as "
                          "checksummed JSONL")
    _add_obs_flags(mrc)
    mrc.set_defaults(func=cmd_mrc)

    clone = commands.add_parser(
        "clone",
        help=(
            "calibrate a profile from a CLF trace and synthesise a "
            "statistically similar stand-in"
        ),
    )
    clone.add_argument("trace")
    clone.add_argument("--epoch", type=float, default=800_000_000.0)
    clone.add_argument("--key", default="CAL")
    clone.add_argument("--seed", type=int, default=0)
    clone.add_argument("--scale", type=float, default=1.0)
    clone.add_argument("--out", required=True)
    clone.set_defaults(func=cmd_clone)

    report = commands.add_parser(
        "report",
        help="run the full reproduction and write a markdown report",
    )
    report.add_argument("--scale", type=float, default=0.05)
    report.add_argument("--seed", type=int, default=1996)
    report.add_argument("--fraction", type=float, default=0.10)
    report.add_argument("--out", default="",
                        help="output path (stdout when omitted)")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module execution path
    sys.exit(main())
