"""Smoke test of the benchmark itself, scaled down to seconds.

Run explicitly — tier-1 collects only ``tests/``:

    python3 -m pytest bench/test_bench_smoke.py -q

It checks the output contract (every metric of ``BENCHMARK.json`` printed
once, by name, with its unit, and the one-line JSON result last), that
all four workloads pass their own correctness checks at a size and seed
nobody tuned for, and that a wrong expected value is caught.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCALE_DOWN = "0.1"


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seconds", "1",
         "--scale-down", SCALE_DOWN, *args],
        capture_output=True, text=True, timeout=120,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def printed(done: subprocess.CompletedProcess) -> dict:
    """``name -> (value, unit)`` for the human-readable metric lines."""
    rows = {}
    for line in done.stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and not line.startswith(("#", "{")):
            assert parts[0] not in rows, f"{parts[0]} printed twice"
            rows[parts[0]] = (float(parts[1]), parts[2])
    return rows


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    done = bench("--workload", workload, "--seed", "7", "--trace", "0")
    result = result_of(done)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    rows = printed(done)
    for metric in SPEC["end_to_end"]:
        value, unit = rows[metric["name"]]
        assert unit == metric["unit"] and value > 0
        assert result["metrics"][metric["name"]] == {
            "value": pytest.approx(value, rel=1e-4), "unit": unit,
        }
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert rows["checks_ok"][0] == 1 and rows["fail_share"][0] == 0


def test_traced_runs_cover_every_layer_metric_and_write_span_files():
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    measured = set()
    for workload in WORKLOADS:
        done = bench("--workload", workload, "--seed", "7", "--trace", "1")
        result = result_of(done)
        assert result["correct"] is True
        assert set(result["metrics"]) == set(layer)
        rows = printed(done)
        for name, (_, unit) in rows.items():
            if name in layer:
                assert unit == layer[name]
                measured.add(name)
        assert "bench.trace_overhead_share" in rows
        spans = json.loads(
            (BENCH / "results" / f"trace_{workload}.json").read_text("utf-8"))
        assert spans["provenance"]["workload"] == workload
        assert {"name", "parent", "workload"} <= set(spans["spans"][0])
    assert measured == set(layer), sorted(set(layer) - measured)


def test_wrong_expected_value_fails_the_run(tmp_path):
    common = ("--workload", "sim_grid36", "--seed", "7", "--trace", "0",
              "--expected-dir", str(tmp_path))
    assert result_of(bench(*common, "--write-expected"))["correct"] is True
    assert result_of(bench(*common))["correct"] is True  # compared exactly

    path = tmp_path / "sim_grid36.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    expected["exact"]["jobs"]["SIZE/RANDOM"][0] += 1.0  # hit rate, off by one point
    path.write_text(json.dumps(expected), encoding="utf-8")

    done = bench(*common)
    result = result_of(done)
    assert result["correct"] is False and result["failed"] > 0
    rows = printed(done)
    assert rows["checks_ok"][0] == 0 and rows["fail_share"][0] > 0
