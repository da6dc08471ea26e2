"""``CompiledTrace`` behaves as the list of requests it replaces."""

import ast
import pickle
from pathlib import Path

import pytest

from repro.core import (
    PolicySpec, SimCache, SimOptions, SweepJob, run_sweep, simulate,
    taxonomy_policies,
)
from repro.trace import (
    CompiledTrace, Request, TraceValidator, read_clf_lines, write_clf_lines,
)
from repro.trace.compiled import compile_trace
from repro.workloads import generate_valid

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
DAY = 86400


@pytest.fixture(scope="module")
def trace():
    return generate_valid("BR", seed=7, scale=0.01)


def test_validation_compiles_and_equals_the_row_list(trace):
    assert isinstance(trace, CompiledTrace)
    rows = list(trace)
    assert trace == rows and rows == trace
    assert trace == CompiledTrace(rows)
    assert trace != rows[:-1]
    assert len(trace) == len(rows)


def test_slicing_and_iteration_yield_the_same_requests(trace):
    rows = trace.rows
    assert all(a is b for a, b in zip(trace, rows))
    assert all(a is b for a, b in zip(trace[10:20], rows[10:20]))
    assert trace[-1] is rows[-1]
    assert trace[3:1:-1] == rows[3:1:-1]


def test_columns_are_the_rows_fields(trace):
    assert trace.urls == [r.url for r in trace]
    assert trace.sizes == [r.size for r in trace]
    assert trace.stamps == [r.timestamp for r in trace]
    assert trace.types == [r.media_type for r in trace]


def test_day_slices_follow_the_clock_as_it_runs():
    rows = [
        Request(t, "http://s/a.html", 10)
        for t in (5, 10, DAY + 1, 3, 2 * DAY, 2 * DAY + 9, 7 * DAY)
    ]
    assert CompiledTrace(rows).day_slices == [
        (0, 0, 2), (1, 2, 3), (0, 3, 4), (2, 4, 6), (7, 6, 7),
    ]
    assert CompiledTrace([]).day_slices == []


def test_pickles_as_its_rows(trace):
    copy = pickle.loads(pickle.dumps(trace))
    assert isinstance(copy, CompiledTrace)
    assert copy == trace
    assert copy.types == trace.types and copy.day_slices == trace.day_slices


def test_a_parallel_sweep_returns_the_serial_results(trace):
    capacity = 200_000
    jobs = [
        SweepJob(
            spec=PolicySpec.from_policy(policy), capacity=capacity,
            options=SimOptions(seed=3), name=policy.name,
        )
        for policy in taxonomy_policies()[::9]
    ]

    def observed(report):
        return [
            (jr.result.name, jr.result.metrics, jr.result.cache.eviction_count)
            for jr in report.results
        ]

    assert observed(run_sweep(trace, jobs, workers=2)) == observed(
        run_sweep(trace, jobs, workers=1)
    )


def test_a_second_simulate_does_not_recompile(trace, monkeypatch):
    built = []
    original = CompiledTrace.__init__

    def counting_init(self, rows):
        built.append(1)
        original(self, rows)

    monkeypatch.setattr(CompiledTrace, "__init__", counting_init)
    assert compile_trace(trace) is trace
    first = simulate(trace, SimCache(100_000))
    second = simulate(trace, SimCache(100_000))
    assert built == []
    assert first.metrics == second.metrics
    simulate(list(trace), SimCache(100_000))  # a plain list compiles once
    assert built == [1]


def test_a_clf_read_trace_classifies_each_url_once(trace, monkeypatch):
    import repro.core.cache as cache_module
    import repro.trace.compiled as compiled_module

    calls = []

    def counting(url):
        calls.append(url)
        return classify(url)

    classify = compiled_module.classify_url
    monkeypatch.setattr(compiled_module, "classify_url", counting)
    monkeypatch.setattr(cache_module, "classify_url", counting)
    read = TraceValidator().validate(read_clf_lines(write_clf_lines(trace)))
    assert all(request.doc_type is None for request in read)
    simulate(read, SimCache(50_000))
    assert sorted(calls) == sorted(set(read.urls))
    assert read.types == [request.media_type for request in read]


def test_the_package_is_python_3_9_syntax():
    for path in SRC.rglob("*.py"):
        ast.parse(
            path.read_text(encoding="utf-8"), str(path), feature_version=(3, 9),
        )
