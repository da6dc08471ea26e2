"""Workload ``ingest_five``: five logs from generator to MaxNeeded.

For each of the paper's workloads U, C, G, BR and BL: synthesise the raw
log, write it as an augmented common-log-format file, read it back
leniently, validate it (Section 1.1), summarise it and run the
infinite-cache pass.  ``workloads`` (generation) and ``trace`` (CLF
format, parse, validate) dominate; ``core.cache`` runs only its
index-free infinite mode — so a simulator speed-up must not move this
workload and a change to how traces are fed in must.

Generation is inside the timed section: it is this pipeline's first
stage, not its set-up.
"""

from __future__ import annotations

from typing import Dict, List

from harness import (
    Context, Outcome, peak_rss_mb, run_passes, timing_metrics,
)

from repro.core.experiments import run_infinite_cache
from repro.trace import (
    TraceValidator, read_clf_file, summarize, write_clf_file,
)
from repro.trace.reader import IngestStats
from repro.workloads import generate

PROFILES = ("U", "C", "G", "BR", "BL")
#: ~77,000 raw lines across the five logs, about four seconds a pass here.
SCALE = 0.15
SETUP_REPEATS = 3


def _ingest(ctx: Context, profile: str, scale: float, traced: bool) -> dict:
    """One log through the whole pipeline.  Untraced, parse and validate
    stream into each other as the program's own callers run them; traced,
    each stage is materialised so it can have a span of its own."""
    tracer = ctx.tracer
    path = ctx.workdir / f"{profile}.log"
    with tracer.span("ingest", profile=profile) as whole:
        with tracer.span("workloads.generate", profile=profile) as gen:
            generated = generate(profile, seed=ctx.seed, scale=scale)
        with tracer.span("trace.write_clf_file", profile=profile) as write:
            lines = write_clf_file(path, generated.raw, augmented=True)
        stats = IngestStats()
        if traced:
            with tracer.span("trace.read_clf_file", profile=profile) as read:
                parsed = list(read_clf_file(path, stats=stats))
            with tracer.span("trace.validate", profile=profile) as validate:
                valid = TraceValidator().validate(parsed)
        else:
            read = validate = None
            valid = TraceValidator().validate(read_clf_file(path, stats=stats))
        with tracer.span("trace.summarize", profile=profile) as summary:
            summarized = summarize(valid)
        with tracer.span("core.simulator.infinite", profile=profile):
            infinite = run_infinite_cache(valid)
    return {
        "profile": profile,
        "generated": generated,
        "seconds": whole.seconds,
        "lines": lines,
        "stage_s": {
            "generate": gen.seconds,
            "write": write.seconds,
            "read": read.seconds if read else 0.0,
            "validate": validate.seconds if validate else 0.0,
            "summarize": summary.seconds,
        },
        "rejected_lines": stats.rejected,
        "observed": {
            "raw_lines": lines,
            "parsed": stats.parsed,
            "valid": len(valid),
            "summary_requests": summarized.requests,
            "max_needed": infinite.max_used_bytes,
            "hr": infinite.hit_rate,
            "whr": infinite.weighted_hit_rate,
        },
    }


def _reference(generated) -> dict:
    """What the round-tripped log must reproduce: the same statistics
    taken from the generator's in-memory trace, never written out."""
    valid = generated.valid()
    infinite = run_infinite_cache(valid)
    return {
        "raw_lines": len(generated.raw),
        "parsed": len(generated.raw),
        "valid": len(valid),
        "summary_requests": len(valid),
        "max_needed": infinite.max_used_bytes,
        "hr": infinite.hit_rate,
        "whr": infinite.weighted_hit_rate,
    }


def run(ctx: Context) -> Outcome:
    tracer = ctx.tracer
    scale = ctx.scaled(SCALE, 0.004)

    # Set-up here is only the imports and a clean scratch directory.
    setups: List[float] = []
    for _ in range(SETUP_REPEATS):
        with tracer.span("setup") as timed:
            for stale in ctx.workdir.glob("*.log"):
                stale.unlink()
            ctx.workdir.mkdir(parents=True, exist_ok=True)
        setups.append(timed.seconds)

    references: Dict[str, dict] = {}
    state = {"attempted": 0, "failed": 0}

    def one_pass(index: int, traced: bool = False) -> dict:
        with tracer.span("pass", index=index, traced=traced) as timed:
            logs = [_ingest(ctx, profile, scale, traced) for profile in PROFILES]
        for log in logs:
            profile = log["profile"]
            if profile not in references:
                references[profile] = _reference(log["generated"])
            del log["generated"]
            want = references[profile]
            if ctx.expected is not None:
                want = ctx.expected["logs"][profile]
            state["attempted"] += 1
            if log["observed"] != want:
                state["failed"] += 1
        return {
            "wall_s": timed.seconds,
            "work": sum(log["lines"] for log in logs),
            "logs": logs,
        }

    if ctx.traced:
        # Untraced, traced, untraced: compared with the mean of its
        # neighbours, so warm-up and drift cancel.
        passes = [one_pass(0)]
        traced = one_pass(1, traced=True)
        passes.append(one_pass(2))
        plain_wall = (passes[0]["wall_s"] + passes[1]["wall_s"]) / 2
    else:
        passes = run_passes(one_pass, ctx.seconds)

    last = {log["profile"]: log["observed"] for log in passes[-1]["logs"]}
    checks = {
        "round_trip_matches_generator_or_expected": state["failed"] == 0,
        "valid_within_parsed_within_lines": all(
            o["valid"] <= o["parsed"] <= o["raw_lines"] for o in last.values()
        ),
        "no_rejected_lines": all(
            log["rejected_lines"] == 0 for log in passes[-1]["logs"]
        ),
    }
    exact = {"logs": references}
    total_lines = passes[-1]["work"]
    params = {
        "profiles": list(PROFILES), "scale": scale, "raw_lines": total_lines,
        "clf": "augmented, lenient read",
        "unit": "1,000 raw lines of one log, generator to MaxNeeded",
        "work": "raw log lines", "setup_repeats": SETUP_REPEATS,
    }

    if not ctx.traced:
        # The logs differ tenfold in length, so the unit of latency is
        # 1,000 raw lines of one log.
        metrics = timing_metrics(
            total_lines,
            [p["wall_s"] for p in passes],
            [[log["seconds"] for log in p["logs"]] for p in passes],
            unit_scale=[1e3 / log["lines"] for log in passes[0]["logs"]],
        )
        metrics["setup_s"] = ctx.import_s + min(setups)
        metrics["peak_rss_mb"] = peak_rss_mb()
        notes = [
            f"{len(passes)} passes of {len(PROFILES)} logs, {total_lines} raw "
            "lines a pass; each log's time is its least over the passes; unit "
            "latency is ms per 1,000 lines of one log, over 5 logs: p50 is the "
            "median log and p95 the costliest (U)",
        ]
    else:
        logs = {log["profile"]: log for log in traced["logs"]}
        stage = {
            name: sum(log["stage_s"][name] for log in logs.values())
            for name in ("generate", "write", "read", "validate", "summarize")
        }
        raw = sum(log["observed"]["raw_lines"] for log in logs.values())
        valid = sum(log["observed"]["valid"] for log in logs.values())
        metrics = {
            f"workloads.generate_s.{profile}": logs[profile]["stage_s"]["generate"]
            for profile in PROFILES
        }
        metrics.update({
            "workloads.gen_req_per_s": raw / stage["generate"],
            "trace.write_lines_per_s": raw / stage["write"],
            "trace.read_lines_per_s": raw / stage["read"],
            "trace.validate_req_per_s": raw / stage["validate"],
            "trace.summarize_req_per_s": valid / stage["summarize"],
            "trace.rejected_lines": sum(
                log["rejected_lines"] for log in logs.values()
            ),
            "bench.trace_overhead_share": (
                (traced["wall_s"] - plain_wall) / plain_wall
            ),
        })
        notes = ["layers: workloads, trace (from the traced pass's own spans)"]

    return Outcome(
        metrics=metrics,
        attempted=state["attempted"],
        failed=state["failed"],
        checks=checks,
        exact=exact,
        params=params,
        notes=notes,
    )
