"""A span is kept only where someone will read it.

A tier built without an ``Obs`` records no spans (nothing could ever
export them), yet still counts into its metrics registry and still
propagates the trace context: ``X-Trace-Id`` comes back on every
response and an instrumented hop further down joins the same trace.
A CLI run keeps spans only when ``--trace-out`` will write them.
"""

import json
from contextlib import contextmanager

from repro import cli
from repro.httpnet.client import fetch
from repro.obs import Obs
from repro.obs.tracing import TRACE_ID_HEADER
from repro.proxy import CachingProxy, OriginServer, ProxyStore
from repro.proxy.origin import SyntheticSite
from repro.proxy.router import FleetRouter, StaticDirectory
from repro.proxy.server import METRICS_PATH

TRACE_ID = TRACE_ID_HEADER.lower()  # a parsed response's header names


@contextmanager
def tiers(origin_obs=None):
    """Origin -> one proxy shard -> router, listening; only the origin
    may be handed an ``Obs``."""
    origin = OriginServer(SyntheticSite(), obs=origin_obs).start()
    proxy = CachingProxy(
        ProxyStore(capacity=256 * 1024),
        resolver=lambda host: origin.address,
        timeout=2.0,
    ).start()
    router = FleetRouter(
        StaticDirectory({0: proxy.address}), shard_timeout=2.0,
    ).start()
    try:
        yield origin, proxy, router
    finally:
        router.stop()
        proxy.stop()
        origin.stop()


def test_a_tier_without_obs_keeps_no_spans():
    with tiers() as (origin, proxy, router):
        miss = fetch(proxy.address, "http://keep.test/a.html")
        hit = fetch(proxy.address, "http://keep.test/a.html")
        routed = fetch(router.address, "http://keep.test/b.html")
        exposition = fetch(proxy.address, METRICS_PATH).body.decode()

    assert [r.status for r in (miss, hit, routed)] == [200, 200, 200]
    assert [miss.headers["x-cache"], hit.headers["x-cache"]] == [
        "MISS", "HIT",
    ]
    for response in (miss, hit, routed):
        assert len(response.headers[TRACE_ID]) == 32
    for tier in (origin, proxy, router):
        assert tier.obs.tracer.spans() == []
    # The private context still counts: /metrics serves every family.
    assert proxy.obs.registry.value("repro_proxy_requests_total") == 3
    assert "repro_proxy_requests_total 3" in exposition


def test_propagation_never_depended_on_recording():
    """Neither the router nor the shard records a span, yet the
    origin's own ``Obs`` sees the router's trace id."""
    with tiers(origin_obs=Obs()) as (origin, proxy, router):
        response = fetch(router.address, "http://keep.test/c.html")

    assert response.status == 200
    (span,) = origin.obs.tracer.spans()
    assert span["name"] == "origin.respond"
    assert span["args"]["trace_id"] == response.headers[TRACE_ID]
    assert router.obs.tracer.spans() == proxy.obs.tracer.spans() == []


CHAOS = ["chaos", "--workload", "BL", "--scale", "0.005", "--seed", "1996"]


def test_the_cli_keeps_spans_only_for_trace_out(
    tmp_path, capsys, monkeypatch,
):
    exported = []
    export = cli._export_obs
    monkeypatch.setattr(
        cli, "_export_obs",
        lambda obs, args: (exported.append(obs), export(obs, args)),
    )
    metrics = tmp_path / "only" / "m.prom"
    metrics.parent.mkdir()
    assert cli.main(CHAOS + ["--metrics-out", str(metrics)]) == 0
    assert "trace event" not in capsys.readouterr().out
    assert sorted(p.name for p in metrics.parent.iterdir()) == ["m.prom"]
    # The faulted proxy reported into the CLI's context: metrics, no spans.
    assert exported[0].registry.value("repro_proxy_requests_total") > 0
    assert exported[0].tracer.spans() == []

    trace = tmp_path / "t.json"
    assert cli.main(CHAOS + ["--trace-out", str(trace)]) == 0
    capsys.readouterr()
    events = json.loads(trace.read_text(encoding="utf-8"))["traceEvents"]
    # The names this command's trace held before private contexts
    # stopped recording (the baseline proxy's were never in it).
    assert {(e["ph"], e["name"]) for e in events} == {
        ("M", "process_name"),
        ("X", "chaos.baseline"),
        ("X", "chaos.faulted"),
        ("X", "proxy.request"),
        ("X", "proxy.origin_fetch"),
        ("i", "proxy.origin_fetch.retry"),
    }
