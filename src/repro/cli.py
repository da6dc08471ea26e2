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

What two commands share is declared once: the trace source (a CLF
file, or ``--workload`` synthesised where the file may be omitted), the
observability flags (``--log-level``, ``--trace-out`` Chrome trace JSON,
``--metrics-out`` Prometheus text, ``--events-out`` JSONL), the
per-shard fields (a shard reads its :class:`~repro.proxy.fleet.ShardSpec`
from its state dir), one error exit (:class:`CommandError`, one stderr
line) and one serve loop that drains on SIGTERM or ^C.

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
import signal
import sys
import threading
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple

from repro.analysis.report import render_table
from repro.analysis.tables import render_policy_ranking, render_table4
from repro.core.experiments import (
    max_needed_for,
    primary_key_sweep,
    run_infinite_cache,
    run_partitioned_sweep,
    run_policy,
    run_two_level,
    secondary_key_sweep,
)
from repro.core.literature import literature_policies
from repro.core.policy import RemovalPolicy, policy_from_names
from repro.obs.events import LEVELS
from repro.trace import (
    TraceValidator,
    read_clf_file,
    summarize,
    write_clf_file,
)
from repro.trace.stats import server_rank_series, zipf_slope
from repro.workloads import PROFILES, generate, generate_valid

__all__ = ["CommandError", "main", "parse_capacity", "parse_policy"]

#: Wall-clock time of a trace's first line unless ``--epoch`` says otherwise.
EPOCH = 800_000_000.0

#: The :class:`~repro.proxy.fleet.ShardSpec` fields ``fleet serve`` takes
#: from flags (``fleet chaos``: all but ``timeout`` and ``origin``); an
#: omitted flag keeps the spec's default.
SHARD_FIELDS = ("capacity", "policy", "timeout", "max_inflight", "origin")

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


def _policy_text(text: str) -> str:
    """An argparse type: ``text``, once :func:`parse_policy` accepts it —
    a bad ``--policy`` is refused before any work starts."""
    parse_policy(text)
    return text


def _positive_int(value: str) -> int:
    workers = int(value)
    if workers < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value!r}"
        )
    return workers


def _address(text: str) -> Tuple[str, int]:
    """``host:port`` as a socket address (port 80 when omitted)."""
    host, _, port = text.partition(":")
    return host, int(port or 80)


# -- the one error exit, the one trace source, the one serve loop ---------------


class CommandError(Exception):
    """A command's failure: :func:`main` prints ``<command>: <message>``
    as one stderr line and exits with ``code``."""

    def __init__(self, message: str, code: int = 1) -> None:
        super().__init__(message)
        self.code = code


def _unreadable(path: str, error: Exception) -> CommandError:
    """The failure of a file named on the command line."""
    return CommandError(f"{path}: {getattr(error, 'strerror', None) or error}")


def _load_trace(args: argparse.Namespace, validator=None,
                allow_empty: bool = False):
    """The validated requests a command replays, and a label for them.

    The source is the CLF file ``args.trace`` — ingested leniently:
    malformed lines are quarantined (counted on ``args.obs`` when the
    command has one), never fatal mid-replay — or, where the command
    lets the file be omitted, the synthesised ``args.workload``.  An
    unreadable file is a :class:`CommandError`, and so is a trace with
    no valid request unless ``allow_empty`` (``characterize``, whose
    counters say why).
    """
    if args.trace:
        from repro.trace.reader import IngestStats

        ingest = IngestStats()
        validator = validator if validator is not None else TraceValidator()
        try:
            valid = validator.validate(read_clf_file(
                args.trace, epoch=args.epoch, obs=args.obs, stats=ingest,
            ))
        except OSError as error:
            raise _unreadable(args.trace, error) from None
        if ingest.rejected:
            print(
                f"quarantined {ingest.rejected} malformed line(s) of "
                f"{ingest.lines} in {args.trace}",
                file=sys.stderr,
            )
        label = args.trace
    else:
        valid = generate_valid(args.workload, seed=args.seed, scale=args.scale)
        label = f"workload {args.workload} at scale {args.scale}"
    if not valid and not allow_empty:
        raise CommandError("trace contains no valid requests")
    return valid, label


def _fault_plan(path: str):
    """The JSON fault plan at ``path``, or ``None`` when no path is given."""
    if not path:
        return None
    from repro.faults import FaultPlan

    try:
        return FaultPlan.load(path)
    except (OSError, ValueError) as error:
        raise _unreadable(path, error) from None


def _serve(status: Optional[Callable[[], str]], *closers) -> int:
    """Run until SIGTERM or SIGINT, printing ``status()`` every five
    seconds, then call ``closers`` in order: every server command stops
    the same drained way (sockets closed, journals sealed) on either
    signal."""
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    try:
        while not stop.wait(5.0):
            if status is not None:
                print(status(), flush=True)
    finally:
        for close in closers:
            close()
    return 0


def _start_proxy(capacity: int, policy: str, state_dir, origin: str,
                 **options):
    """A started :class:`~repro.proxy.server.CachingProxy` and its store,
    journaled under ``state_dir`` when one is given, sending every
    request to ``origin`` (``host:port``) when one is given."""
    from repro.proxy import CachingProxy, ProxyStore

    store = ProxyStore(
        capacity=capacity, policy=parse_policy(policy),
        state_dir=state_dir or None,
    )
    resolver = None
    if origin:
        address = _address(origin)
        resolver = lambda _host: address  # noqa: E731 - tiny closure
    return store, CachingProxy(store, resolver=resolver, **options).start()


def _fetch_router(args: argparse.Namespace, path: str) -> str:
    """The body ``--router`` answers at ``path`` with a 200."""
    from repro.httpnet.client import fetch

    try:
        response = fetch(args.router, path, timeout=5.0)
    except (OSError, ValueError) as error:
        raise CommandError(str(error)) from None
    if response.status != 200:
        raise CommandError(f"router returned {response.status}")
    return response.body.decode("utf-8", errors="replace")


def _result_cache(args: argparse.Namespace):
    """The on-disk sweep result cache named by ``--cache-dir``."""
    from repro.core.sweep import ResultCache

    return ResultCache(args.cache_dir) if args.cache_dir else None


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
    """Write whichever artifacts the observability flags requested."""
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
    validator = TraceValidator()
    valid, _ = _load_trace(args, validator=validator, allow_empty=True)
    print(render_table(
        ["counter", "value"],
        [[key, value] for key, value in validator.stats.as_dict().items()],
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
    valid, _ = _load_trace(args)
    infinite = run_infinite_cache(valid)
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
            result = run_policy(valid, policy, capacity, seed=args.seed)
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
    trace, label = _load_trace(args)
    infinite = run_infinite_cache(trace, args.workload)
    print(
        f"{label}: {len(trace):,} requests, "
        f"infinite HR {infinite.hit_rate:.1f}% "
        f"WHR {infinite.weighted_hit_rate:.1f}%, "
        f"MaxNeeded {infinite.max_used_bytes / 2**20:.1f} MB\n"
    )
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
            workers=args.workers, result_cache=result_cache, obs=args.obs,
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
            workers=args.workers, result_cache=result_cache, obs=args.obs,
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
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run the full 36-policy taxonomy grid through the sweep engine."""
    from repro.core.experiments import grid_jobs, taxonomy_specs
    from repro.core.sweep import SweepInterrupted, result_to_record, run_sweep
    from repro.durability import ManifestError

    if args.resume and not os.path.isdir(args.resume):
        # A typo must not cost the whole grid: run_sweep would create
        # the directory and start a fresh sweep there.
        raise CommandError(
            f"--resume {args.resume}: no such checkpoint directory", code=2,
        )
    valid, label = _load_trace(args)
    jobs = grid_jobs(
        taxonomy_specs(), max_needed_for(valid), args.fraction, args.seed,
    )
    try:
        report = run_sweep(
            valid, jobs,
            workers=args.workers,
            result_cache=_result_cache(args),
            obs=args.obs,
            fault_plan=_fault_plan(args.fault_plan),
            checkpoint_dir=args.resume or args.checkpoint_dir or None,
            resume=bool(args.resume),
        )
    except SweepInterrupted as interrupt:
        raise CommandError(
            f"interrupted (signal {interrupt.signum}): "
            f"{interrupt.completed}/{interrupt.total} jobs checkpointed — "
            f"resume with: repro sweep --resume {interrupt.checkpoint_dir}",
            code=130,
        ) from None
    except ManifestError as mismatch:
        raise CommandError(str(mismatch), code=2) from None
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
        import json

        # Timing-free, key-sorted records: two runs of the same sweep
        # (uninterrupted, or killed and resumed) diff byte-identical.
        payload = {
            "trace_hash": report.trace_hash,
            "results": [
                result_to_record(jr.result) for jr in report.results
            ],
        }
        Path(args.results_out).write_text(
            json.dumps(payload, sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {len(report.results)} result record(s) "
              f"to {args.results_out}")
    if args.timeseries_out:
        _write_timeseries_out(
            [(jr.result.name, jr.result) for jr in report.results],
            args.timeseries_out,
        )
    return 0


def cmd_proxy(args: argparse.Namespace) -> int:
    from repro.proxy import ConsistencyEstimator
    from repro.retry import RetryPolicy

    store, proxy = _start_proxy(
        args.capacity, args.policy, args.state_dir, args.origin,
        estimator=ConsistencyEstimator(default_ttl=args.ttl),
        host=args.host,
        port=args.port,
        timeout=args.timeout,
        retry_policy=RetryPolicy(
            timeout=args.timeout, max_retries=args.retries,
        ),
        obs=args.obs,
    )
    if store.recovery is not None:
        rec = store.recovery
        print(f"store recovered {rec.documents} document(s) from "
              f"{args.state_dir} (journal {rec.journal_replayed} replayed, "
              f"{rec.tail_discarded} torn tail record(s) discarded)")
    host, port = proxy.address
    print(f"caching proxy on {host}:{port} "
          f"({args.capacity / 2**20:.1f} MB, policy {store._cache.policy.name})")
    print(f"metrics exposition: curl http://{host}:{port}/metrics")
    stats = proxy.stats
    _serve(
        lambda: (
            f"  requests={stats.requests} HR={stats.hit_rate:.1f}% "
            f"stored={len(store)} used={store.used_bytes // 1024} kB "
            f"retries={stats.retries} stale={stats.stale_served} "
            f"errors={stats.errors}"
        ),
        proxy.stop, store.close,
    )
    return 0


def cmd_mrc(args: argparse.Namespace) -> int:
    """Print miss-ratio curves for one or more policies over a trace."""
    from repro.analysis.sweeps import miss_ratio_curve

    valid, _ = _load_trace(args)
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
            raise CommandError(
                f"--single-pass estimates sort-key policies only: {error}",
            ) from None
    try:
        result = single_pass_mrc(
            valid, max_needed,
            rate=args.rate, replicates=args.replicates,
            fractions=fractions, keys=keys, seed=args.seed, obs=args.obs,
        )
    except ValueError as error:
        raise CommandError(f"--single-pass: {error}") from None
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
    return 0


def cmd_clone(args: argparse.Namespace) -> int:
    """Calibrate a profile from a real trace and synthesise a stand-in."""
    from repro.workloads.calibrate import profile_from_trace
    from repro.workloads.generator import WorkloadGenerator

    valid, _ = _load_trace(args)
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

    valid, label = _load_trace(args)
    plan = _fault_plan(args.fault_plan)
    plan_label = args.fault_plan
    if plan is None:
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
        obs=args.obs,
    )
    print(f"chaos replay of {label} ({len(valid):,} requests) "
          f"under fault plan [{plan_label}]\n")
    print(report.render())
    if args.out:
        report.write(args.out)
        print(f"\nwrote degradation report to {args.out}")
    return 0


def cmd_origin(args: argparse.Namespace) -> int:
    from repro.proxy import OriginServer

    origin = OriginServer(host=args.host, port=args.port).start()
    print(f"origin server on {origin.address[0]}:{origin.address[1]}")
    return _serve(
        lambda: f"  requests served: {origin.request_count}", origin.stop,
    )


def cmd_obs_check(args: argparse.Namespace) -> int:
    """Lint metric names against the catalog."""
    from repro.obs.check import render_problems, run_check

    problems, registered = run_check()
    print(render_problems(problems, registered))
    return 1 if problems else 0


def cmd_obs_tail(args: argparse.Namespace) -> int:
    from repro.obs.events import tail_events

    try:
        tail_events(
            args.events,
            channel=args.channel or None,
            level=args.level,
            follow=args.follow,
            poll_interval=args.interval,
        )
    except (OSError, ValueError) as error:  # missing, or not UTF-8
        raise _unreadable(args.events, error) from None
    except KeyboardInterrupt:
        pass  # a follow ends on ^C, not with a traceback
    return 0


def cmd_obs_summarize(args: argparse.Namespace) -> int:
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
        raise CommandError(str(error)) from None
    return 0


def _shard_fields(args: argparse.Namespace) -> dict:
    """The :data:`SHARD_FIELDS` given on the command line."""
    return {
        name: getattr(args, name) for name in SHARD_FIELDS
        if getattr(args, name, None) is not None
    }


def cmd_fleet_serve(args: argparse.Namespace) -> int:
    """Run the supervisor and router until SIGTERM/SIGINT."""
    from repro.proxy.fleet import Fleet, shard_specs

    fleet = Fleet(
        shard_specs(args.state_dir, args.shards, **_shard_fields(args)),
        obs=args.obs, host=args.host, port=args.port,
    ).start()
    host, port = fleet.address
    print(f"fleet router on {host}:{port} "
          f"({args.shards} shard(s), state under {args.state_dir})")
    print(f"fleet status: curl http://{host}:{port}/fleet/status")
    print(f"fleet telemetry: curl http://{host}:{port}/fleet/telemetry")
    _serve(
        lambda: "  up={up}/{total} restarts={restarts}".format(
            total=args.shards, **fleet.status(),
        ),
        fleet.stop,
    )
    return 0


def cmd_fleet_chaos(args: argparse.Namespace) -> int:
    from repro.proxy.fleet import run_fleet_chaos

    shard = _shard_fields(args)
    if "max_inflight" in shard:  # the harness's name, as in its report
        shard["shard_max_inflight"] = shard.pop("max_inflight")
    report = run_fleet_chaos(
        state_root=args.state_dir,
        shards=args.shards,
        requests=args.requests,
        rate=args.rate,
        seed=args.seed,
        profile=args.workload,
        scale=args.scale,
        plan=_fault_plan(args.fault_plan),
        availability_floor=args.floor,
        obs=args.obs,
        telemetry_out=args.telemetry_out or None,
        timeseries_out=args.timeseries_out or None,
        **shard,
    )
    print(report.render())
    if args.out:
        report.write(args.out)
        print(f"wrote fleet report to {args.out}")
    for flag, path in (
        ("telemetry", args.telemetry_out),
        ("time series", args.timeseries_out),
    ):
        if path:
            print(f"wrote fleet {flag} to {path}")
    return 0 if report.ok else 1


def cmd_fleet_shard(args: argparse.Namespace) -> int:
    """One shard process: serve the :class:`~repro.proxy.fleet.ShardSpec`
    its supervisor wrote into ``--state-dir``, publish its endpoint, and
    drain (store closed, journal sealed) on SIGTERM."""
    from repro.proxy.fleet import ShardSpec
    from repro.proxy.overload import OverloadPolicy

    try:
        spec = ShardSpec.read(args.state_dir)
    except (OSError, ValueError) as error:
        raise _unreadable(args.state_dir, error) from None
    store, proxy = _start_proxy(
        spec.capacity, spec.policy, spec.state_dir, spec.origin,
        timeout=spec.timeout,
        overload=OverloadPolicy(max_inflight=spec.max_inflight),
        max_clients=spec.max_clients,
        read_deadline=spec.read_deadline,
    )
    spec.publish(proxy.address)
    return _serve(None, proxy.stop, store.close)


def cmd_fleet_status(args: argparse.Namespace) -> int:
    from repro.proxy.router import STATUS_PATH

    print(_fetch_router(args, STATUS_PATH))
    return 0


def cmd_fleet_telemetry(args: argparse.Namespace) -> int:
    """Fetch a live router's rollup document (or load a saved one) and
    render the dashboard."""
    import json

    from repro.obs.telemetry import render_dashboard_ascii
    from repro.proxy.router import TELEMETRY_PATH

    source = args.from_path or f"{args.router[0]}:{args.router[1]}"
    try:
        doc = json.loads(
            Path(args.from_path).read_text(encoding="utf-8")
            if args.from_path else _fetch_router(args, TELEMETRY_PATH)
        )
    except (OSError, ValueError) as error:
        raise _unreadable(source, error) from None
    if not isinstance(doc, dict):
        raise CommandError("payload is not a telemetry document")
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_dashboard_ascii(doc))
    return 0


# -- parser ---------------------------------------------------------------------


def _command(commands, name: str, func, help: str, **kwargs):
    """Register one command; :func:`main` reports its failures under its
    full name (``obs tail``)."""
    parser = commands.add_parser(name, help=help, **kwargs)
    parser.set_defaults(func=func, name=parser.prog.split(" ", 1)[1])
    return parser


def _trace_source(parser, seed: Optional[int] = None,
                  scale: Optional[float] = None, file: bool = True):
    """The trace source: a CLF file (``--epoch`` dates its first line);
    given ``scale``, ``--workload`` at ``--scale`` is synthesised when
    the file is omitted, or always without ``file``.  ``--seed`` is
    declared only for a command that reads one."""
    if not file:
        parser.set_defaults(trace="")
    elif scale is None:
        parser.add_argument("trace", help="CLF trace")
    else:
        parser.add_argument("trace", nargs="?", default="",
                            help="CLF trace (synthesises --workload "
                                 "when omitted)")
    if file:
        parser.add_argument("--epoch", type=float, default=EPOCH,
                            help="wall-clock epoch of trace start")
    if scale is not None:
        parser.add_argument("--workload", default="BL",
                            choices=sorted(PROFILES))
        parser.add_argument("--scale", type=float, default=scale)
    if seed is not None:
        parser.add_argument("--seed", type=int, default=seed)


def _obs_flags(parser) -> None:
    """The observability outputs every replaying command and server takes."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--log-level", default="info", type=str.lower, choices=list(LEVELS),
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


def _engine_flags(parser) -> None:
    """The sweep engine's process fan-out and result cache."""
    parser.add_argument("--workers", type=_positive_int, default=1,
                        help="processes to fan the runs out over")
    parser.add_argument("--cache-dir", default="",
                        help="memoize sweep runs in this directory")


def _grid_flags(parser) -> None:
    """What ``experiment`` and ``sweep`` share after their trace source:
    caches at ``--fraction`` of MaxNeeded, the sweep engine, the per-day
    series export and the observability outputs."""
    parser.add_argument("--fraction", type=float, default=0.10)
    _engine_flags(parser)
    parser.add_argument("--timeseries-out", default="", metavar="PATH",
                        help="write every run's recorded per-day series "
                             "as checksummed JSONL")
    _obs_flags(parser)


def _listen_flags(parser, port: int) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=port)


def _retry_flags(parser, timeout: float) -> None:
    parser.add_argument("--timeout", type=float, default=timeout,
                        help="per-attempt origin timeout, seconds")
    parser.add_argument("--retries", type=int, default=2,
                        help="origin fetch retries after the first attempt")


def _shard_flags(parser) -> None:
    """How many shards, where they keep state, and the per-shard fields
    both fleet commands take (omitted: :class:`ShardSpec`'s defaults)."""
    parser.add_argument("--shards", type=_positive_int, default=4)
    parser.add_argument("--state-dir", required=True, metavar="DIR",
                        help="root directory; shard i keeps its spec and "
                             "journal under DIR/shard-<i>")
    group = parser.add_argument_group("per shard (default: ShardSpec's)")
    group.add_argument("--capacity", type=parse_capacity,
                       help="store capacity")
    group.add_argument("--policy", type=_policy_text)
    group.add_argument("--max-inflight", type=int,
                       help="admission bound (excess is shed as "
                            "503 + Retry-After)")


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
    policies = dict(action="append", type=_policy_text,
                    help="policy name or key stack (repeatable)")

    gen = _command(commands, "generate", cmd_generate,
                   "synthesise a workload as a CLF file")
    gen.add_argument("workload", choices=sorted(PROFILES))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--scale", type=float, default=0.1)
    gen.add_argument("--epoch", type=float, default=EPOCH,
                     help="wall-clock epoch of trace start")
    gen.add_argument("--augmented", action="store_true",
                     help="append the Last-Modified column")
    gen.add_argument("--out", required=True)

    _trace_source(_command(commands, "characterize", cmd_characterize,
                           "summarise a CLF trace"))

    sim = _command(commands, "simulate", cmd_simulate,
                   "simulate caches over a CLF trace")
    _trace_source(sim, seed=0)
    sim.add_argument("--policy", **policies)
    size = sim.add_mutually_exclusive_group()
    size.add_argument("--capacity", type=parse_capacity,
                      help="cache size, e.g. 10MB")
    size.add_argument("--fraction", type=float,
                      help="cache size as a fraction of MaxNeeded")

    experiment = _command(commands, "experiment", cmd_experiment,
                          "run one of the paper's experiments")
    experiment.add_argument("number", type=int, choices=(1, 2, 3, 4))
    _trace_source(experiment, seed=1996, scale=0.05, file=False)
    _grid_flags(experiment)

    sweep = _command(commands, "sweep", cmd_sweep,
                     "the full 36-policy taxonomy grid via the sweep engine")
    _trace_source(sweep, seed=1996, scale=0.05)
    _grid_flags(sweep)
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

    proxy = _command(commands, "proxy", cmd_proxy,
                     "run the live caching proxy")
    proxy.add_argument("--capacity", type=parse_capacity, default=64 * 2**20)
    proxy.add_argument("--policy", type=_policy_text, default="SIZE")
    proxy.add_argument("--ttl", type=float, default=3600.0)
    _listen_flags(proxy, 8080)
    proxy.add_argument("--origin", default="",
                       help="route every request to this host:port")
    _retry_flags(proxy, timeout=5.0)
    proxy.add_argument("--state-dir", default="", metavar="DIR",
                       help="persist the store (one journal) here "
                            "for warm restarts")
    _obs_flags(proxy)

    chaos = _command(commands, "chaos", cmd_chaos,
                     "replay a trace through the proxy under an injected "
                     "fault plan and report the degradation")
    _trace_source(chaos, seed=1996, scale=0.02)
    chaos.add_argument("--fraction", type=float, default=0.25,
                       help="store size as a fraction of the unique footprint")
    chaos.add_argument("--policy", type=_policy_text, default="SIZE")
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
    _retry_flags(chaos, timeout=1.0)
    chaos.add_argument("--out", default="",
                       help="write the JSON degradation report here")
    _obs_flags(chaos)

    obs = commands.add_parser(
        "obs", help="observability utilities (lint, summarize)",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    _command(obs_sub, "check", cmd_obs_check,
             "lint metric names: catalog conventions, duplicates, "
             "unregistered literals")
    obs_tail = _command(obs_sub, "tail", cmd_obs_tail,
                        "stream an events JSONL file, optionally filtered "
                        "and followed live")
    obs_tail.add_argument("events", metavar="PATH",
                          help="events JSONL file (--events-out)")
    obs_tail.add_argument("--channel", default="",
                          help="only events from this channel")
    obs_tail.add_argument("--level", type=str.lower, choices=list(LEVELS),
                          help="minimum level")
    obs_tail.add_argument("--follow", "-f", action="store_true",
                          help="keep polling for appended events "
                               "(waits for the file to appear)")
    obs_tail.add_argument("--interval", type=float, default=0.2,
                          help="poll interval for --follow, seconds")
    obs_summarize = _command(obs_sub, "summarize", cmd_obs_summarize,
                             "summarize run artifacts into tables")
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

    fleet = commands.add_parser(
        "fleet",
        help="sharded proxy fleet: supervisor + rendezvous router "
             "(serve, chaos, status)",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_serve = _command(fleet_sub, "serve", cmd_fleet_serve,
                           "run the supervisor and router until SIGTERM")
    _shard_flags(fleet_serve)
    fleet_serve.add_argument("--timeout", type=float,
                             help="per-attempt origin timeout, seconds")
    _listen_flags(fleet_serve, 8080)
    fleet_serve.add_argument("--origin",
                             help="route every request to this host:port")
    _obs_flags(fleet_serve)

    fleet_chaos = _command(fleet_sub, "chaos", cmd_fleet_chaos,
                           "seeded shard-kill + overload scenario; writes "
                           "the byte-reproducible FLEET_report.json")
    _shard_flags(fleet_chaos)
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
    fleet_chaos.add_argument("--timeseries-out", default="", metavar="PATH",
                             help="write the aggregator's per-round rollup "
                                  "series as checksummed JSONL")
    _obs_flags(fleet_chaos)

    fleet_shard = _command(fleet_sub, "shard", cmd_fleet_shard,
                           "run one shard process from the spec its "
                           "supervisor wrote into DIR; publishes "
                           "endpoint.json there")
    fleet_shard.add_argument("--state-dir", required=True, metavar="DIR")

    fleet_status = _command(fleet_sub, "status", cmd_fleet_status,
                            "print a running router's /fleet/status document")
    fleet_telemetry = _command(fleet_sub, "telemetry", cmd_fleet_telemetry,
                               "render a fleet's aggregated telemetry "
                               "(rollups, SLO burn rates) from a live router "
                               "or a saved document")
    for sub in (fleet_status, fleet_telemetry):
        sub.add_argument("--router", type=_address, default="127.0.0.1:8080",
                         metavar="HOST:PORT", help="the router to ask")
    fleet_telemetry.add_argument("--from", dest="from_path", default="",
                                 metavar="PATH",
                                 help="render a saved --telemetry-out "
                                      "document instead of fetching")
    fleet_telemetry.add_argument("--json", action="store_true",
                                 help="print the raw JSON document")

    origin = _command(commands, "origin", cmd_origin,
                      "run the toy origin server")
    _listen_flags(origin, 8081)

    mrc = _command(commands, "mrc", cmd_mrc,
                   "miss-ratio curves over a CLF trace")
    _trace_source(mrc, seed=0)
    mrc.add_argument("--policy", **policies)
    mrc.add_argument("--fractions", type=float, nargs="+",
                     default=[0.05, 0.10, 0.25, 0.50, 1.0])
    mrc.add_argument("--weighted", action="store_true",
                     help="byte miss ratio instead of request miss ratio")
    _engine_flags(mrc)
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
    _obs_flags(mrc)

    clone = _command(commands, "clone", cmd_clone,
                     "calibrate a profile from a CLF trace and synthesise "
                     "a statistically similar stand-in")
    _trace_source(clone, seed=0)
    clone.add_argument("--key", default="CAL")
    clone.add_argument("--scale", type=float, default=1.0)
    clone.add_argument("--out", required=True)

    report = _command(commands, "report", cmd_report,
                      "run the full reproduction and write a markdown report")
    report.add_argument("--scale", type=float, default=0.05)
    report.add_argument("--seed", type=int, default=1996)
    report.add_argument("--fraction", type=float, default=0.10)
    report.add_argument("--out", default="",
                        help="output path (stdout when omitted)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    A command with the observability flags gets its ``args.obs`` context
    here, and its artifacts are written here once it returns or fails
    with a :class:`CommandError` — which is reported as one
    ``<command>: <message>`` line on stderr, never a traceback."""
    args = build_parser().parse_args(argv)
    args.obs = None
    if "log_level" in args:
        from repro.obs import Obs

        args.obs = Obs.create(log_level=args.log_level)
    try:
        code = args.func(args)
    except CommandError as error:
        print(f"{args.name}: {error}", file=sys.stderr)
        code = error.code
    if args.obs is not None:
        _export_obs(args.obs, args)
    return code

