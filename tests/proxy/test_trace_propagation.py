"""Cross-process trace propagation through the fleet tiers.

Covers the two acceptance properties of the telemetry plane: a
malformed ``X-Trace-Context`` can never 500 a request (it degrades to a
fresh root span), and a request traced through router → failover shard
→ origin assembles into one span tree from the three processes'
exports."""

import socket

import pytest

from repro.httpnet.message import HttpRequest
from repro.obs import Obs
from repro.obs.telemetry import assemble_span_tree
from repro.obs.tracing import (
    TRACE_CONTEXT_HEADER,
    TRACE_ID_HEADER,
    TraceContext,
)
from repro.proxy import CachingProxy, ProxyStore
from repro.proxy.origin import OriginServer, SyntheticSite
from repro.proxy.router import FleetRouter, StaticDirectory, rendezvous_rank


@pytest.fixture
def stack():
    """An origin plus an instrumented proxy resolving every host to it."""
    origin = OriginServer(SyntheticSite()).start()
    proxy = CachingProxy(
        ProxyStore(capacity=256 * 1024),
        resolver=lambda host: origin.address,
        timeout=2.0,
        obs=Obs(),
    ).start()
    yield origin, proxy
    proxy.stop()
    origin.stop()


GARBAGE_HEADERS = [
    "",
    "garbage",
    "00-short-short-00",
    "00-" + "Z" * 32 + "-" + "b" * 16 + "-00",
    "00-" + "a" * 32 + "-" + "b" * 16 + "-",
    "01-" + "a" * 32 + "-" + "b" * 16 + "-00",
    "00-" + "a" * 31 + "-" + "b" * 16 + "-00",
    "-".join(["00", "a" * 32, "b" * 16, "00", "extra"]),
    "\x00\x01\x02 binary junk \xff",
    "00-" * 40,
]


class TestMalformedHeaderFuzz:
    def test_garbage_contexts_never_error(self, stack):
        """Every malformed header degrades to a fresh root span: the
        request succeeds and a new trace id comes back."""
        origin, proxy = stack
        for index, garbage in enumerate(GARBAGE_HEADERS):
            request = HttpRequest(
                "GET", f"http://fuzz.edu/doc-{index}.html",
                headers={TRACE_CONTEXT_HEADER: garbage},
            )
            response = proxy.handle(request)
            assert response.status == 200, garbage
            assert response.headers.get(TRACE_ID_HEADER)

        spans = [
            span for span in proxy.obs.tracer.spans()
            if span["name"] == "proxy.request"
        ]
        assert len(spans) == len(GARBAGE_HEADERS)
        assert all(span["args"]["parent_ctx"] is None for span in spans)

    def test_garbage_over_a_live_socket(self, stack):
        origin, proxy = stack
        raw = (
            b"GET http://fuzz.edu/wire.html HTTP/1.0\r\n"
            b"X-Trace-Context: not-a-context\r\n\r\n"
        )
        with socket.create_connection(proxy.address, timeout=5.0) as conn:
            conn.sendall(raw)
            conn.shutdown(socket.SHUT_WR)
            data = bytearray()
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                data.extend(chunk)
        status = bytes(data).split(b"\r\n", 1)[0]
        assert b"200" in status

    def test_well_formed_context_is_continued(self, stack):
        origin, proxy = stack
        inbound = TraceContext.root()
        request = HttpRequest(
            "GET", "http://fuzz.edu/continued.html",
            headers={TRACE_CONTEXT_HEADER: inbound.header_value()},
        )
        response = proxy.handle(request)
        assert response.status == 200
        assert response.headers[TRACE_ID_HEADER] == inbound.trace_id
        (span,) = [
            s for s in proxy.obs.tracer.spans()
            if s["name"] == "proxy.request"
        ]
        assert span["args"]["trace_id"] == inbound.trace_id
        assert span["args"]["parent_ctx"] == inbound.span_id


def _dead_address():
    """An address that refuses connections (bound, then closed)."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    return address


class TestEndToEndSpanTree:
    def test_failover_request_assembles_one_tree(self):
        """Router → (dead home shard) → failover shard → origin: the
        three processes' spans link into a single root chain, with the
        failover recorded as a span event on the router hop."""
        origin_obs, shard_obs, router_obs = Obs(), Obs(), Obs()
        origin = OriginServer(SyntheticSite(), obs=origin_obs).start()
        proxy = CachingProxy(
            ProxyStore(capacity=256 * 1024),
            resolver=lambda host: origin.address,
            timeout=2.0,
            obs=shard_obs,
        ).start()
        directory = StaticDirectory({
            0: _dead_address(),
            1: proxy.address,
        })
        router = FleetRouter(
            directory, obs=router_obs, shard_timeout=2.0,
        )
        try:
            url = next(
                f"http://site-{i}.edu/doc.html" for i in range(256)
                if rendezvous_rank(f"http://site-{i}.edu/doc.html",
                                   [0, 1])[0] == 0
            )
            response = router.route(HttpRequest("GET", url))
        finally:
            proxy.stop()
            origin.stop()
        assert response.status == 200
        trace_id = response.headers[TRACE_ID_HEADER]

        # Collect the three processes' exports the way the fleet does:
        # absorbed into one tracer (which re-keys local span ids — the
        # tree must link on the propagated context ids instead).
        collected = Obs()
        for obs in (router_obs, shard_obs, origin_obs):
            collected.tracer.absorb(obs.tracer.to_dicts())
        roots = assemble_span_tree(collected.tracer.spans(), trace_id)

        assert len(roots) == 1
        chain = []
        node = roots[0]
        while node is not None:
            chain.append(node["name"])
            node = node["children"][0] if node["children"] else None
        assert chain == [
            "fleet.route", "proxy.request",
            "proxy.origin_fetch", "origin.respond",
        ]
        failovers = [
            event for event in roots[0]["events"]
            if event["name"] == "failover"
        ]
        assert failovers and failovers[0]["shard"] == 0
