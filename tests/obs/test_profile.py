"""Tests for the deterministic profiler: phase nesting, collapsed-stack
and Chrome-trace export, cross-process export/absorb, the cache phase
timer, the instrumented-vs-plain differential (profiling can never
change simulation results), and the signal sampler's arming gate."""

import json

import pytest

from repro.core import SimCache, simulate
from repro.core.cache import MISS, MISS_MODIFIED
from repro.obs.metrics import Registry
from repro.obs.profile import CachePhaseTimer, Profiler, SignalSampler
from repro.workloads import generate_valid


def fake_clock(step=0.001):
    """A deterministic clock advancing ``step`` seconds per read."""
    state = {"now": 0.0}

    def clock():
        state["now"] += step
        return state["now"]

    return clock


class TestProfiler:
    def test_record_aggregates_by_stack(self):
        profiler = Profiler()
        profiler.record(("a", "b"), 0.5)
        profiler.record(("a", "b"), 0.25, count=3)
        profiler.record(("a",), 1.0)
        assert profiler.collapsed()[("a", "b")] == (0.75, 4)
        assert profiler.collapsed()[("a",)] == (1.0, 1)

    def test_disabled_profiler_records_nothing(self):
        profiler = Profiler(enabled=False)
        profiler.record(("a",), 1.0)
        with profiler.phase("p"):
            pass
        assert profiler.collapsed() == {}

    def test_phase_nesting_builds_stack_paths(self):
        profiler = Profiler(clock=fake_clock())
        with profiler.phase("outer"):
            with profiler.phase("inner"):
                pass
        stacks = set(profiler.collapsed())
        assert stacks == {("outer",), ("outer", "inner")}

    def test_total_seconds_prefix_filter(self):
        profiler = Profiler()
        profiler.record(("sim", "lookup"), 1.0)
        profiler.record(("sim", "admit"), 2.0)
        profiler.record(("other",), 4.0)
        assert profiler.total_seconds("sim") == pytest.approx(3.0)
        assert profiler.total_seconds() == pytest.approx(7.0)

    def test_collapsed_stacks_format(self):
        """One ``frame;frame <microseconds>`` line per path, sorted."""
        profiler = Profiler()
        profiler.record(("b",), 0.000002)
        profiler.record(("a", "x"), 0.5)
        assert profiler.collapsed_stacks() == ["a;x 500000", "b 2"]

    def test_write_collapsed(self, tmp_path):
        profiler = Profiler()
        profiler.record(("sim.replay", "cache.access", "admit"), 0.001)
        path = tmp_path / "profile.stacks"
        assert profiler.write_collapsed(path) == 1
        assert path.read_text(encoding="utf-8") == (
            "sim.replay;cache.access;admit 1000\n"
        )

    def test_chrome_trace_spans_cover_children(self, tmp_path):
        profiler = Profiler()
        profiler.record(("root",), 0.001)
        profiler.record(("root", "child"), 0.005)
        trace = profiler.to_chrome_trace()
        by_stack = {
            event["args"]["stack"]: event for event in trace["traceEvents"]
        }
        # The parent's rendered span covers the larger child.
        assert by_stack["root"]["dur"] >= by_stack["root;child"]["dur"]
        path = tmp_path / "trace.json"
        assert profiler.write_chrome_trace(path) == 2
        assert json.loads(path.read_text(encoding="utf-8"))["traceEvents"]

    def test_export_absorb_round_trip(self):
        worker = Profiler()
        worker.record(("sim.replay", "cache.access", "lookup"), 0.5, count=10)
        worker.record(("sim.replay",), 1.0)
        parent = Profiler()
        parent.record(("sim.replay",), 2.0)
        parent.absorb(worker.export())
        assert parent.collapsed()[("sim.replay",)] == (3.0, 2)
        assert parent.collapsed()[
            ("sim.replay", "cache.access", "lookup")
        ] == (0.5, 10)


class TestCachePhaseTimer:
    def test_feeds_profiler_and_histogram(self):
        registry = Registry()
        profiler = Profiler()
        timer = CachePhaseTimer(
            policy="SIZE", registry=registry, profiler=profiler,
        )
        timer.observe("lookup", 0.002)
        timer.observe("lookup", 0.001)
        timer.observe("admit", 0.004)
        assert timer.summary()["lookup"] == {
            "seconds": pytest.approx(0.003), "count": 2,
        }
        assert profiler.collapsed()[
            ("sim.replay", "cache.access", "lookup")
        ] == (pytest.approx(0.003), 2)
        snapshot = registry.snapshot()["repro_sim_phase_seconds"]
        counts = {
            (sample["labels"]["policy"], sample["labels"]["phase"]):
                sample["count"]
            for sample in snapshot["samples"]
        }
        assert counts[("SIZE", "lookup")] == 2
        assert counts[("SIZE", "admit")] == 1

    def test_custom_prefix(self):
        profiler = Profiler()
        timer = CachePhaseTimer(
            policy="SIZE", profiler=profiler,
            prefix=("proxy.request", "store.access"),
        )
        timer.observe("evict", 0.001)
        assert ("proxy.request", "store.access", "evict") in (
            profiler.collapsed()
        )


class TestInstrumentedDifferential:
    def test_profiling_never_changes_results(self):
        """The instrumented access path performs the same operations in
        the same order, so HR/WHR/evictions/outcomes match the plain
        path exactly."""
        trace = generate_valid("BL", seed=42, scale=0.01)

        def run(profiler):
            cache = SimCache(capacity=64 * 1024, seed=0)
            return simulate(
                trace, cache, timeseries=False, profiler=profiler,
            )

        plain = run(None)
        profiler = Profiler()
        timed = run(profiler)
        assert timed.hit_rate == plain.hit_rate
        assert timed.weighted_hit_rate == plain.weighted_hit_rate
        assert timed.outcomes == plain.outcomes
        assert timed.cache.eviction_count == plain.cache.eviction_count
        assert timed.cache.evicted_bytes == plain.cache.evicted_bytes
        # ... and the profile actually measured the replay.
        lookups = profiler.collapsed()[
            ("sim.replay", "cache.access", "lookup")
        ]
        assert lookups[1] == plain.metrics.total_requests
        assert profiler.total_seconds("sim.replay") > 0.0

    def test_profiled_run_goes_through_the_one_access_path(self):
        """There is no instrumented twin: a cache with a phase timer
        attached runs the same ``access_code`` function, and the timer
        sees one lookup per request and one evict + admit per admitted
        document."""
        assert not [
            name for name in vars(SimCache) if name.startswith("_timed")
        ]
        trace = generate_valid("BL", seed=42, scale=0.01)
        plain = SimCache(capacity=64 * 1024, seed=0)
        timed = SimCache(capacity=64 * 1024, seed=0)
        timer = CachePhaseTimer(policy=timed.policy.name)
        timed.set_phase_timer(timer)
        assert timed.access_code.__func__ is plain.access_code.__func__
        assert "access_code" not in vars(timed)
        codes = [timed.access_code(request) for request in trace]
        assert codes == [plain.access_code(request) for request in trace]
        # Every MISS stores the document; a MISS_MODIFIED does unless the
        # new copy is larger than the whole cache.
        admits = sum(
            1 for request, code in zip(trace, codes)
            if code == MISS
            or (code == MISS_MODIFIED and request.size <= timed.capacity)
        )
        assert timer.counts["lookup"] == len(trace)
        assert timer.counts["evict"] == timer.counts["admit"]
        assert timer.counts["admit"] == admits > 0


class TestSignalSampler:
    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            SignalSampler(Profiler(), interval=0.0)

    def test_available_on_main_thread(self):
        assert SignalSampler.available()

    def test_refuses_off_main_thread(self):
        import threading

        outcome = {}

        def probe():
            outcome["available"] = SignalSampler.available()
            sampler = SignalSampler(Profiler())
            try:
                sampler.start()
            except RuntimeError:
                outcome["refused"] = True

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
        assert outcome == {"available": False, "refused": True}

    def test_refuses_inside_sweep_worker(self, monkeypatch):
        from repro.core import sweep

        monkeypatch.setattr(sweep, "_WORKER_TRACE", object())
        assert not SignalSampler.available()

    def test_tick_inside_the_handler_is_dropped(self):
        """A timer tick delivered while the handler runs must not
        re-enter it (unbounded recursion on a stalled machine)."""
        import sys

        profiler = Profiler()
        sampler = SignalSampler(profiler, interval=0.01)
        record = profiler.record

        def record_with_a_tick_landing(stack, seconds):
            sampler._handle(0, sys._getframe())
            record(stack, seconds)

        profiler.record = record_with_a_tick_landing
        sampler._handle(0, sys._getframe())
        assert sampler.samples == 1
        assert profiler.total_seconds() == pytest.approx(0.01)

    def test_samples_the_running_stack(self):
        profiler = Profiler()
        with SignalSampler(profiler, interval=0.002) as sampler:
            deadline = __import__("time").perf_counter() + 0.2
            while __import__("time").perf_counter() < deadline:
                sum(range(1000))
        assert sampler.samples > 0
        assert profiler.total_seconds() > 0.0
        assert any(
            frame.endswith("test_samples_the_running_stack")
            for key in profiler.collapsed()
            for frame in key
        )
