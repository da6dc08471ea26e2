"""``CompiledTrace`` behaves as the list of requests it replaces, and
holds columns only."""

import ast
import gc
import pickle
import tracemalloc
from array import array
from pathlib import Path

import pytest

from repro.core import (
    PolicySpec, SimCache, SimOptions, SweepJob, run_sweep, simulate,
    taxonomy_policies,
)
from repro.trace import (
    CompiledTrace, DocumentType, Request, TraceValidator, read_clf_lines,
    write_clf_lines,
)
from repro.trace.compiled import _COLUMNS, compile_trace
from repro.workloads import generate, generate_valid

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


ROWS = [
    Request(5.0, "http://s/a.html", 10),
    Request(9.5, "http://s/a.html", 0, 304, "c1", None, 800_000_000.0),
    Request(DAY + 1.0, "http://t/b.gif", 7, 200, "c2", DocumentType.GRAPHICS),
    Request(3.0, "http://t/b.gif", 7, 404, "c1", DocumentType.TEXT, 5.0),
    Request(2 * DAY, "http://u/cgi-bin/q", 1 << 40, 200, "-"),
]


def test_slicing_and_iteration_yield_views_equal_to_the_rows(trace):
    for rows in (ROWS, list(read_clf_lines(write_clf_lines(trace))), list(trace)):
        compiled = CompiledTrace(rows)
        assert list(compiled) == rows
        assert [compiled[i] for i in range(len(rows))] == rows
        assert compiled[-1] == rows[-1] and compiled[1:3] == rows[1:3]
        assert compiled[3:1:-1] == rows[3:1:-1] and compiled[::2] == rows[::2]
        assert [r.doc_type for r in compiled] == [r.doc_type for r in rows]
    with pytest.raises(IndexError):
        CompiledTrace(ROWS)[len(ROWS)]


def test_columns_are_the_rows_fields(trace):
    assert isinstance(trace.sizes, array) and trace.sizes.typecode == "q"
    assert isinstance(trace.stamps, array) and trace.stamps.typecode == "d"
    assert trace.urls == [r.url for r in trace]
    assert list(trace.sizes) == [r.size for r in trace]
    assert list(trace.stamps) == [r.timestamp for r in trace]
    assert trace.types == [r.media_type for r in trace]


def test_a_string_is_stored_once_per_trace():
    rows = list(read_clf_lines(write_clf_lines(ROWS * 3)))
    assert rows[0].url is not rows[5].url
    compiled = TraceValidator().validate(rows)
    assert compiled.urls[0] is compiled.urls[3]
    assert len({id(s) for s in compiled.urls + compiled.clients}) == len(
        set(compiled.urls + compiled.clients)
    )


def test_day_slices_follow_the_clock_as_it_runs():
    rows = [
        Request(t, "http://s/a.html", 10)
        for t in (5, 10, DAY + 1, 3, 2 * DAY, 2 * DAY + 9, 7 * DAY)
    ]
    assert CompiledTrace(rows).day_slices == [
        (0, 0, 2), (1, 2, 3), (0, 3, 4), (2, 4, 6), (7, 6, 7),
    ]
    assert CompiledTrace([]).day_slices == []


def test_pickles_as_its_columns(trace):
    shipped = pickle.dumps(trace)
    copy = pickle.loads(shipped)
    assert isinstance(copy, CompiledTrace)
    assert copy == trace and list(copy) == list(trace)
    assert copy.types == trace.types and copy.day_slices == trace.day_slices
    assert copy.urls[0] is copy.urls[copy.urls.index(copy.urls[0], 1)]
    assert b"Request" not in shipped


def test_pickles_smaller_than_its_rows(trace):
    """Each column but the stamps ships as its distinct values and an
    index a row: 69,622 bytes against the rows' 89,537 for this trace
    (0.78; the columns pickled as they are read 1.05)."""
    for compiled in (trace, CompiledTrace(ROWS), CompiledTrace([])):
        shipped = pickle.dumps(compiled)
        copy = pickle.loads(shipped)
        assert copy == compiled and list(copy) == list(compiled)
        assert copy.day_slices == compiled.day_slices
        assert [type(getattr(copy, name)) for name in _COLUMNS] == [
            type(getattr(compiled, name)) for name in _COLUMNS
        ]
    assert len(pickle.dumps(trace)) < 0.9 * len(pickle.dumps(list(trace)))


# -- memory -------------------------------------------------------------------


def _requests_alive() -> int:
    gc.collect()
    return sum(type(o) is Request for o in gc.get_objects())


def test_a_trace_holds_no_request_object():
    before = _requests_alive()
    valid = generate_valid("BR", seed=1996, scale=0.1)
    raw = generate("U", seed=1996, scale=0.05).raw
    assert len(valid) > 15_000 and len(raw) > 8_000
    assert _requests_alive() == before


#: Bytes a row a generated raw log holds: two list slots (URL, client),
#: two typed-array items (size, stamp), the status, the Last-Modified
#: slot, the type slot and its flag -- 53 -- plus the lists' growth slack.
#: Its strings (the raw log's own: the catalog keeps none) are held
#: apart while it is measured.  A ``Request`` row costs ~120.
RAW_BYTES_PER_ROW = 64
#: A trace validated from CLF text also owns its strings: U at scale 0.05
#: names 3,932 URLs in 8,666 valid rows, ~45 bytes a row stored once
#: each.  As ``Request`` rows with a string per line it cost ~350.
CLF_BYTES_PER_ROW = 128


def test_bytes_per_row_stay_bounded():
    tracemalloc.start()
    try:
        generated = generate("U", seed=1996, scale=0.05)
        lines = list(write_clf_lines(generated.raw, augmented=True))
        rows = len(generated.raw)
        # Kept alive, so that freeing the log frees its rows only.
        strings = set(generated.raw.urls + generated.raw.clients)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        generated.raw = None
        gc.collect()
        raw_bytes = before - tracemalloc.get_traced_memory()[0]
        before = tracemalloc.get_traced_memory()[0]
        valid = TraceValidator().validate(read_clf_lines(lines))
        gc.collect()
        valid_bytes = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert strings and raw_bytes / rows < RAW_BYTES_PER_ROW
    assert valid_bytes / len(valid) < CLF_BYTES_PER_ROW


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
