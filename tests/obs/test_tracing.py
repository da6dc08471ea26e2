"""Unit tests for tracing spans and the Chrome trace export."""

import itertools
import json
import os
import time

from repro.obs.tracing import Tracer


def fake_clock(step=1.0, start=0.0):
    counter = itertools.count()
    return lambda: start + step * next(counter)


class TestSpans:
    def test_nesting_records_parent_ids(self):
        tracer = Tracer(clock=fake_clock())
        with tracer.span("outer"):
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b"):
                pass
        outer, inner_a, inner_b = tracer.spans()
        assert outer["parent"] is None
        assert inner_a["parent"] == outer["id"]
        assert inner_b["parent"] == outer["id"]
        # Opened-order invariant: parents precede their children.
        assert outer["id"] < inner_a["id"] < inner_b["id"]

    def test_siblings_after_close_are_roots(self):
        tracer = Tracer(clock=fake_clock())
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        first, second = tracer.spans()
        assert first["parent"] is None
        assert second["parent"] is None

    def test_span_handle_attaches_args(self):
        tracer = Tracer(clock=fake_clock())
        with tracer.span("job", policy="LRU") as handle:
            handle.set(hits=9)
        (span,) = tracer.spans()
        assert span["args"] == {"policy": "LRU", "hits": 9}

    def test_span_closed_on_exception(self):
        tracer = Tracer(clock=fake_clock())
        try:
            with tracer.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        (span,) = tracer.spans()
        assert span["end"] is not None
        # The stack unwound: the next span is a root, not a child.
        with tracer.span("after"):
            pass
        assert tracer.spans()[1]["parent"] is None

    def test_disabled_tracer_is_a_noop(self):
        tracer = Tracer(enabled=False)
        with tracer.span("ignored") as handle:
            assert handle is None
        assert tracer.spans() == []

    def test_disabled_tracer_drops_absorbed_spans(self):
        source = Tracer()
        with source.span("worker.job"):
            pass
        tracer = Tracer(enabled=False)
        tracer.absorb(source.to_dicts())
        assert tracer.spans() == []


class TestPhaseBreakdown:
    def test_aggregates_count_total_max(self):
        tracer = Tracer(clock=fake_clock())
        # clock ticks 0,1 -> 1s; 2,3 -> 1s; 4,8 via nesting below.
        with tracer.span("job"):
            pass
        with tracer.span("job"):
            pass
        with tracer.span("run"):      # start=4
            with tracer.span("job"):  # start=5, end=6 -> 1s
                pass
        # run ends at 7 -> 3s
        breakdown = tracer.phase_breakdown()
        assert breakdown["job"]["count"] == 3
        assert breakdown["job"]["total_seconds"] == 3.0
        assert breakdown["job"]["max_seconds"] == 1.0
        assert breakdown["run"] == {
            "count": 1, "total_seconds": 3.0, "max_seconds": 3.0,
        }

    def test_open_spans_excluded(self):
        tracer = Tracer(clock=fake_clock())
        span_cm = tracer.span("never.closed")
        span_cm.__enter__()
        assert tracer.phase_breakdown() == {}


class TestAbsorb:
    def test_ids_rekeyed_and_parents_remapped(self):
        worker = Tracer(clock=fake_clock())
        with worker.span("w.outer"):
            with worker.span("w.inner"):
                pass

        parent = Tracer(clock=fake_clock())
        with parent.span("local"):
            pass
        parent.absorb(worker.to_dicts())

        spans = {span["name"]: span for span in parent.spans()}
        ids = [span["id"] for span in parent.spans()]
        assert len(set(ids)) == 3
        assert spans["w.inner"]["parent"] == spans["w.outer"]["id"]
        assert spans["w.outer"]["parent"] is None


class TestSpanEvents:
    def test_events_recorded_with_fields(self):
        tracer = Tracer(clock=fake_clock())
        with tracer.span("fleet.route") as handle:
            handle.event("failover", shard=2, rank=1)
            handle.event("shed", tier="router")
        (span,) = tracer.spans()
        names = [event["name"] for event in span["events"]]
        assert names == ["failover", "shed"]
        assert span["events"][0]["shard"] == 2

    def test_events_become_instant_trace_events(self):
        tracer = Tracer(clock=fake_clock())
        with tracer.span("fleet.route") as handle:
            handle.event("failover", shard=2)
        trace = tracer.to_chrome_trace()
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "fleet.route.failover"
        assert instants[0]["args"]["shard"] == 2

    def test_spans_copies_are_isolated(self):
        tracer = Tracer(clock=fake_clock())
        with tracer.span("x") as handle:
            handle.event("e")
        tracer.spans()[0]["events"].append({"name": "tampered"})
        assert len(tracer.spans()[0]["events"]) == 1


class TestMultiProcessEpochs:
    def test_three_shard_exports_each_get_own_epoch(self):
        """Absorbing three concurrent shard tracers: every pid's first
        span renders at ts 0 on its own process row, regardless of how
        far apart the shards' monotonic clocks started."""
        parent = Tracer(clock=fake_clock())
        with parent.span("fleet.route"):
            pass
        base = os.getpid()
        for offset, start in ((1, 50.0), (2, 500.0), (3, 5000.0)):
            parent.absorb([{
                "id": 1, "parent": None, "name": f"shard-{offset}.request",
                "start": start, "end": start + 1.0, "args": {},
                "pid": base + offset, "tid": 1,
            }])
        trace = parent.to_chrome_trace()
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert len(meta) == 4  # the parent plus three shard rows
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        by_pid = {}
        for event in spans:
            by_pid.setdefault(event["pid"], []).append(event)
        assert len(by_pid) == 4
        for events in by_pid.values():
            assert min(e["ts"] for e in events) == 0.0


class TestChromeTrace:
    def test_export_shape(self):
        tracer = Tracer(clock=fake_clock(start=100.0))
        with tracer.span("sweep.run"):
            with tracer.span("sweep.job", policy="LRU"):
                pass
        trace = tracer.to_chrome_trace()
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(meta) == 1
        assert meta[0]["name"] == "process_name"
        assert meta[0]["args"]["name"] == "repro"
        assert [e["name"] for e in complete] == ["sweep.run", "sweep.job"]
        job = complete[1]
        assert job["cat"] == "repro"
        assert job["pid"] == os.getpid()
        assert job["args"]["policy"] == "LRU"
        # Per-pid epoch normalisation: the first span starts at ts 0 even
        # though the clock started at 100.
        assert complete[0]["ts"] == 0.0
        assert job["ts"] == 1e6       # opened one tick (1s) later
        assert job["dur"] == 1e6

    def test_absorbed_worker_pid_gets_own_row(self):
        parent = Tracer(clock=fake_clock())
        with parent.span("sweep.run"):
            pass
        worker_span = {
            "id": 1, "parent": None, "name": "sweep.job",
            "start": 5.0, "end": 6.0, "args": {},
            "pid": os.getpid() + 1, "tid": 1,
        }
        parent.absorb([worker_span])
        trace = parent.to_chrome_trace()
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert len(meta) == 2
        names = sorted(e["args"]["name"] for e in meta)
        assert names[0] == "repro"
        assert names[1].startswith("repro worker ")
        # The worker's own epoch: its first span also renders at ts 0.
        job = [e for e in trace["traceEvents"] if e.get("name") == "sweep.job"]
        assert job[0]["ts"] == 0.0

    def test_write_chrome_trace(self, tmp_path):
        tracer = Tracer(clock=fake_clock())
        with tracer.span("a"):
            pass
        path = tmp_path / "trace.json"
        count = tracer.write_chrome_trace(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert count == len(payload["traceEvents"]) == 2  # 1 meta + 1 span


class TestRing:
    """The span buffer is a ring; what it keeps and what it counts as
    dropped are the same as when it was a list trimmed from the front
    (which memmoved the whole buffer on every span once full)."""

    def test_oldest_spans_fall_off_and_are_counted(self):
        tracer = Tracer(clock=fake_clock(), max_spans=3)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert [span["name"] for span in tracer.spans()] == ["s2", "s3", "s4"]
        assert tracer.dropped == 2
        assert [span["id"] for span in tracer.spans()] == [3, 4, 5]

    def test_parent_links_survive_the_parent_falling_off(self):
        tracer = Tracer(clock=fake_clock(), max_spans=2)
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
        middle, inner = tracer.spans()
        assert (middle["name"], inner["name"]) == ("middle", "inner")
        assert middle["parent"] == 1            # "outer", no longer retained
        assert inner["parent"] == middle["id"]
        assert middle["end"] is not None and inner["end"] is not None
        assert tracer.dropped == 1

    def test_absorb_trims_in_order_and_counts_exactly(self):
        worker = Tracer(clock=fake_clock())
        for index in range(4):
            with worker.span(f"w{index}"):
                pass
        parent = Tracer(clock=fake_clock(), max_spans=3)
        with parent.span("local"):
            pass
        parent.absorb(worker.to_dicts())
        assert [span["name"] for span in parent.spans()] == ["w1", "w2", "w3"]
        assert parent.dropped == 2
        # A batch larger than the ring by itself keeps its newest end.
        parent.absorb(worker.to_dicts() + worker.to_dicts())
        assert [span["name"] for span in parent.spans()] == ["w1", "w2", "w3"]
        assert parent.dropped == 2 + 8

    def test_at_the_cap_a_span_costs_what_it_costs_below_it(self):
        """The regression itself, loosely: 3.9 us -> 13.8 us per span at
        the default cap when every span memmoved 65,536 pointers.  Least
        of three rounds a side, so one scheduling stall cannot fail it."""
        def per_span(tracer, count=20_000):
            rounds = []
            for _ in range(3):
                started = time.perf_counter()
                for _ in range(count):
                    with tracer.span("x"):
                        pass
                rounds.append((time.perf_counter() - started) / count)
            return min(rounds)

        small = Tracer(max_spans=64)
        full = Tracer()
        for _ in range(Tracer.MAX_SPANS):
            with full.span("fill"):
                pass
        below, at_cap = per_span(small), per_span(full)
        assert full.dropped == 60_000
        assert at_cap < 2.0 * below + 2e-6
