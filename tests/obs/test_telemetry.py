"""Unit tests for the fleet telemetry plane: trace-context propagation,
exposition round-trips, rollup aggregation, and SLO burn-rate alerts."""

import itertools

import pytest

from repro.obs import Obs
from repro.obs.catalog import fleet_metrics, proxy_metrics
from repro.obs.metrics import Registry
from repro.obs.telemetry import (
    DEFAULT_BURN_WINDOWS,
    BurnWindow,
    SLOEngine,
    SLOSpec,
    TelemetryAggregator,
    assemble_span_tree,
    default_slo_specs,
    render_dashboard_ascii,
    slo_config,
    snapshot_from_exposition,
)
from repro.obs.tracing import (
    MAX_HOPS,
    TraceContext,
    extract_trace_context,
    set_trace_header,
)


class TestTraceContext:
    def test_header_round_trip(self):
        ctx = TraceContext.root()
        parsed = TraceContext.parse(ctx.header_value())
        assert parsed == ctx

    def test_child_keeps_trace_bumps_hops(self):
        root = TraceContext.root()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.span_id != root.span_id
        assert child.hops == 1

    def test_hop_counter_saturates(self):
        ctx = TraceContext("a" * 32, "b" * 16, hops=MAX_HOPS)
        assert ctx.child().hops == MAX_HOPS
        assert TraceContext.parse(ctx.header_value()).hops == MAX_HOPS

    @pytest.mark.parametrize("garbage", [
        None,
        42,
        "",
        "00",
        "garbage",
        "00-short-short-00",
        "00-" + "g" * 32 + "-" + "b" * 16 + "-00",   # non-hex trace
        "00-" + "a" * 32 + "-" + "b" * 16,            # missing hops
        "00-" + "a" * 32 + "-" + "b" * 16 + "-zz9",   # bad hops
        "01-" + "a" * 32 + "-" + "b" * 16 + "-00",    # unknown version
        "00-" + "a" * 33 + "-" + "b" * 16 + "-00",    # wrong length
        "\x00\xff binary",
    ])
    def test_malformed_values_parse_to_none(self, garbage):
        assert TraceContext.parse(garbage) is None

    def test_extract_is_case_insensitive(self):
        ctx = TraceContext.root()
        headers = {"x-trace-context": ctx.header_value()}
        assert extract_trace_context(headers) == ctx
        assert extract_trace_context({}) is None
        assert extract_trace_context({"x-trace-context": "junk"}) is None

    def test_set_trace_header_removes_case_variants(self):
        ctx = TraceContext.root()
        headers = {"x-trace-context": "old", "Other": "kept"}
        set_trace_header(headers, ctx)
        assert headers == {
            "Other": "kept",
            "X-Trace-Context": ctx.header_value(),
        }


class TestAssembleSpanTree:
    def _span(self, name, ctx, parent_ctx, trace="t" * 32, pid=1, **extra):
        args = {"trace_id": trace, "ctx": ctx, "parent_ctx": parent_ctx}
        args.update(extra)
        return {"name": name, "pid": pid, "args": args, "events": []}

    def test_cross_process_chain_assembles(self):
        spans = [
            self._span("proxy.request", "s1", "r1", pid=2),
            self._span("fleet.route", "r1", None, pid=1),
            self._span("origin.respond", "o1", "f1", pid=3),
            self._span("proxy.origin_fetch", "f1", "s1", pid=2),
        ]
        roots = assemble_span_tree(spans, "t" * 32)
        assert len(roots) == 1
        chain = []
        node = roots[0]
        while node:
            chain.append(node["name"])
            node = node["children"][0] if node["children"] else None
        assert chain == [
            "fleet.route", "proxy.request",
            "proxy.origin_fetch", "origin.respond",
        ]

    def test_other_traces_and_plain_spans_excluded(self):
        spans = [
            self._span("fleet.route", "r1", None),
            self._span("other", "x1", None, trace="u" * 32),
            {"name": "local.sweep", "pid": 1, "args": {}},
        ]
        roots = assemble_span_tree(spans, "t" * 32)
        assert [n["name"] for n in roots] == ["fleet.route"]

    def test_unknown_parent_becomes_root_and_events_lose_ts(self):
        span = self._span("proxy.request", "s1", "gone")
        span["events"] = [{"name": "shed", "tier": "shard", "ts": 1.5}]
        (root,) = assemble_span_tree([span], "t" * 32)
        assert root["parent_ctx"] == "gone"
        assert root["events"] == [{"name": "shed", "tier": "shard"}]


class TestSnapshotFromExposition:
    def test_counters_gauges_histograms_round_trip(self):
        shard = Registry()
        m = proxy_metrics(shard)
        m.requests.inc(7)
        m.hits.inc(3)
        m.shed.labels(reason="saturated").inc(2)
        m.store_occupancy_ratio.set(0.625)
        m.degraded_seconds.labels(mode="hit_only").inc(1.25)
        m.origin_fetch_seconds.observe(0.03)
        m.origin_fetch_seconds.observe(0.8)

        snapshot = snapshot_from_exposition(shard.render())
        merged = Registry()
        merged.merge(snapshot)
        assert merged.value("repro_proxy_requests_total") == 7
        assert merged.value("repro_proxy_hits_total") == 3
        assert merged.value(
            "repro_proxy_shed_total", reason="saturated",
        ) == 2
        assert merged.value("repro_proxy_store_occupancy_ratio") == 0.625
        assert merged.value(
            "repro_proxy_degraded_seconds_total", mode="hit_only",
        ) == 1.25
        family = merged.snapshot()["repro_proxy_origin_fetch_seconds"]
        assert family["samples"][0]["count"] == 2
        assert family["samples"][0]["sum"] == pytest.approx(0.83)

    def test_merging_two_shards_sums_counters(self):
        snapshots = []
        for requests in (5, 9):
            shard = Registry()
            proxy_metrics(shard).requests.inc(requests)
            snapshots.append(snapshot_from_exposition(shard.render()))
        merged = Registry()
        for snapshot in snapshots:
            merged.merge(snapshot)
        assert merged.value("repro_proxy_requests_total") == 14

    def test_empty_families_are_skipped(self):
        shard = Registry()
        proxy_metrics(shard)  # declared, nothing incremented
        snapshot = snapshot_from_exposition(shard.render())
        assert "repro_proxy_shed_total" not in snapshot  # labelled, empty


class TestSLOEngine:
    def test_burn_rate_math(self):
        engine = SLOEngine(
            specs=[SLOSpec(name="avail", kind="availability", target=0.99)],
            obs=Obs(),
        )
        # 10% bad against a 1% budget: burn rate 10.
        engine.observe("avail", good=90.0, total=100.0)
        assert engine.burn_rate(engine.specs[0], 1) == pytest.approx(10.0)

    def test_alert_requires_both_windows(self):
        spec = SLOSpec(name="avail", kind="availability", target=0.99)
        window = BurnWindow(
            name="fast", long_ticks=4, short_ticks=1,
            threshold=5.0, severity="page",
        )
        obs = Obs()
        engine = SLOEngine(specs=[spec], windows=[window], obs=obs)
        # Long window hot, short window cold: no alert.
        for _ in range(3):
            engine.observe("avail", good=80.0, total=100.0)
        engine.observe("avail", good=100.0, total=100.0)
        assert engine.evaluate() == []
        # Short window heats up: the alert fires, once (edge-triggered).
        engine.observe("avail", good=80.0, total=100.0)
        (alert,) = engine.evaluate()
        assert alert["slo"] == "avail"
        assert alert["severity"] == "page"
        assert engine.evaluate()  # still firing
        counter = obs.registry.value(
            "repro_fleet_slo_alerts_total", slo="avail", severity="page",
        )
        assert counter == 1.0
        burn_events = obs.events.events(channel="slo", event="slo.burn")
        assert len(burn_events) == 1

    def test_recovery_emits_event(self):
        spec = SLOSpec(name="avail", kind="availability", target=0.99)
        window = BurnWindow(
            name="fast", long_ticks=2, short_ticks=1,
            threshold=5.0, severity="page",
        )
        obs = Obs()
        engine = SLOEngine(specs=[spec], windows=[window], obs=obs)
        engine.observe("avail", good=0.0, total=100.0)
        engine.observe("avail", good=0.0, total=100.0)
        assert engine.evaluate()
        engine.observe("avail", good=100.0, total=100.0)
        engine.observe("avail", good=100.0, total=100.0)
        assert engine.evaluate() == []
        assert obs.events.events(channel="slo", event="slo.recovered")

    def test_config_is_pure_data(self):
        config = slo_config(default_slo_specs(), DEFAULT_BURN_WINDOWS)
        assert [s["name"] for s in config["specs"]] == [
            "availability", "latency_p95", "hit_ratio_floor",
        ]
        assert [w["name"] for w in config["windows"]] == ["fast", "slow"]
        import json
        assert json.dumps(config, sort_keys=True)  # JSON-serialisable


class FakeDirectory:
    """ids()/address_of() double; address None marks a dead shard."""

    def __init__(self, addresses):
        self.addresses = dict(addresses)
        self.health_interval = 0.25

    def ids(self):
        return sorted(self.addresses)

    def address_of(self, shard_id):
        return self.addresses[shard_id]


def shard_exposition(requests, hits, cache_bytes, origin_bytes,
                     occupancy=0.5):
    registry = Registry()
    m = proxy_metrics(registry)
    m.requests.inc(requests)
    m.hits.inc(hits)
    m.bytes_from_cache.inc(cache_bytes)
    m.bytes_from_origin.inc(origin_bytes)
    m.store_occupancy_ratio.set(occupancy)
    return registry.render()


def fake_clock(step=1.0):
    counter = itertools.count()
    return lambda: step * next(counter)


class TestTelemetryAggregator:
    def test_rollup_math_across_shards(self):
        directory = FakeDirectory({0: ("h", 1), 1: ("h", 2)})
        expositions = {
            ("h", 1): shard_exposition(60, 30, 3000, 1000, occupancy=0.25),
            ("h", 2): shard_exposition(40, 10, 1000, 3000, occupancy=0.75),
        }
        aggregator = TelemetryAggregator(
            directory, obs=Obs(),
            fetch=lambda address, timeout: expositions[address],
            clock=fake_clock(),
        )
        fleet = aggregator.scrape_once()
        assert fleet["requests"] == 100
        assert fleet["hit_ratio_pct"] == pytest.approx(40.0)
        assert fleet["weighted_hit_ratio_pct"] == pytest.approx(50.0)
        doc = aggregator.telemetry()
        assert doc["rounds"] == 1
        assert doc["shards"]["0"]["occupancy_ratio"] == 0.25
        assert doc["shards"]["1"]["occupancy_ratio"] == 0.75
        assert not doc["shards"]["0"]["stale"]

    def test_failed_scrapes_keep_last_snapshot_and_go_stale(self):
        directory = FakeDirectory({0: ("h", 1)})
        healthy = [True]

        def fetch(address, timeout):
            if not healthy[0]:
                raise OSError("connection refused")
            return shard_exposition(10, 5, 500, 500)

        aggregator = TelemetryAggregator(
            directory, obs=Obs(), fetch=fetch, clock=fake_clock(),
        )
        aggregator.scrape_once()
        healthy[0] = False
        for _ in range(3):
            aggregator.scrape_once()
        doc = aggregator.telemetry()
        shard = doc["shards"]["0"]
        assert shard["consecutive_scrape_failures"] == 3
        assert shard["stale"] is True
        # Last good counters still in the rollup: totals never go back.
        assert doc["fleet"]["requests"] == 10
        assert aggregator.obs.events.events(
            channel="telemetry", event="scrape.stale",
        )

    def test_dead_shard_address_counts_as_unreachable(self):
        directory = FakeDirectory({0: None})
        aggregator = TelemetryAggregator(
            directory, obs=Obs(),
            fetch=lambda *a: (_ for _ in ()).throw(AssertionError),
            clock=fake_clock(),
        )
        aggregator.scrape_once()
        doc = aggregator.telemetry()
        assert doc["shards"]["0"]["last_scrape_age_s"] is None
        assert doc["shards"]["0"]["stale"] is True

    def test_slo_feed_fires_availability_alert(self):
        directory = FakeDirectory({})
        obs = Obs()
        fm = fleet_metrics(obs.registry)
        window = BurnWindow(
            name="fast", long_ticks=2, short_ticks=1,
            threshold=5.0, severity="page",
        )
        aggregator = TelemetryAggregator(
            directory, obs=obs, windows=[window],
            fetch=lambda *a: "", clock=fake_clock(),
        )
        for _ in range(3):
            fm.requests.labels(outcome="routed").inc(10)
            fm.requests.labels(outcome="shed").inc(90)
            aggregator.scrape_once()
        doc = aggregator.telemetry()
        assert any(
            alert["slo"] == "availability" for alert in doc["slo"]["alerts"]
        )

    def test_recorder_ticks_every_round(self):
        directory = FakeDirectory({0: ("h", 1)})
        aggregator = TelemetryAggregator(
            directory, obs=Obs(),
            fetch=lambda *a: shard_exposition(1, 1, 10, 0),
            clock=fake_clock(),
        )
        aggregator.scrape_once()
        aggregator.scrape_once()
        samples = aggregator.recorder.samples()
        assert {s["day"] for s in samples} == {1, 2}


class TestOneLatencyRead:
    """A round reads the router's latency histogram once: the quantile
    gauges and every latency SLO's good/total derive from that read."""

    @pytest.mark.parametrize("specs", [
        (),
        (
            SLOSpec(name="fast", kind="latency", target=0.95,
                    threshold_s=0.05),
            SLOSpec(name="slow", kind="latency", target=0.95,
                    threshold_s=2.5),
        ),
    ], ids=["stock_slos", "two_latency_slos"])
    def test_one_scrape_reads_the_histogram_once(self, specs):
        obs = Obs()
        latency = fleet_metrics(obs.registry).request_seconds
        for seconds in [0.01] * 10 + [10.0] * 10:
            latency.observe(seconds)
        aggregator = TelemetryAggregator(
            FakeDirectory({}), obs=obs, specs=specs,
            fetch=lambda *a: "", clock=fake_clock(),
        )
        # The per-round time-series tick snapshots the whole registry
        # for its own stream; only the rollup's reads are counted here.
        aggregator.recorder.tick = lambda *a, **k: True
        reads = []
        samples = latency.samples
        latency.samples = lambda: reads.append(1) or samples()
        fleet = aggregator.scrape_once()
        assert len(reads) == 1
        assert 0.0 < fleet["latency"]["p50_s"] <= fleet["latency"]["p99_s"]
        latency_specs = [
            spec for spec in aggregator.slo.specs if spec.kind == "latency"
        ]
        assert len(latency_specs) == max(1, len(specs))
        for spec in latency_specs:
            # Half the requests are over every threshold: bad fraction
            # 0.5 against a 5% budget.
            assert aggregator.slo.burn_rate(spec, 1) == pytest.approx(10.0)


class TestDashboards:
    def _doc(self):
        directory = FakeDirectory({0: ("h", 1)})
        aggregator = TelemetryAggregator(
            directory, obs=Obs(),
            fetch=lambda *a: shard_exposition(10, 4, 100, 100),
            clock=fake_clock(),
        )
        aggregator.scrape_once()
        return aggregator.telemetry()

    def test_ascii_dashboard_renders(self):
        text = render_dashboard_ascii(self._doc())
        assert "Fleet rollup" in text
        assert "hit ratio %" in text
        assert "40.00" in text
        assert "fresh" in text
