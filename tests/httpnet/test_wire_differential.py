"""What a one-shot client reads off the wire, pinned at the parent commit.

Every live tier (shard, router, origin) is driven through a raw socket
that does **not** ask for keep-alive, and the full reply — status line,
header names and values in order, body — is compared with
``tests/fixtures/wire_parent.json``, recorded at commit ``1105716``
(before persistent connections between tiers existed) with::

    PYTHONPATH=<parent checkout>/src python tests/httpnet/test_wire_differential.py

The one permitted difference: the parent sent ``Content-Length`` twice
on every reply built from a parsed upstream response (``content-length``
as parsed, then the ``Content-Length`` ``serialize`` added because its
check was case-sensitive); exactly the first of the two remains.
``X-Trace-Id`` values are random and left out; ``/metrics`` is pinned by
status line and content type only.
"""

import json
import socket
import time
from pathlib import Path

import pytest

from repro.proxy import (
    CachingProxy,
    ConsistencyEstimator,
    OriginServer,
    OverloadPolicy,
    ProxyStore,
)
from repro.proxy.replay import TraceOriginSite
from repro.proxy.router import FleetRouter, StaticDirectory

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "wire_parent.json"
URL = "http://wire.test/doc.html"
TTL = 100.0


def exchange(address, payload: bytes, stall_after: int = 0) -> dict:
    """Send ``payload`` (holding back everything after ``stall_after``
    bytes when set) and read the reply to end of stream."""
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(payload[:stall_after] if stall_after else payload)
        raw = bytearray()
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw.extend(chunk)
    head, _, body = bytes(raw).partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = [line.split(": ", 1) for line in lines]
    return {
        "status_line": status_line,
        "headers": [h for h in headers if h[0].lower() != "x-trace-id"],
        "body": body.decode("latin-1"),
    }


def get(url: str, *extra: str, method: str = "GET") -> bytes:
    lines = [f"{method} {url} HTTP/1.0", *extra]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def content_type_only(reply: dict) -> dict:
    return {
        "status_line": reply["status_line"],
        "content_type": dict(
            (name.lower(), value) for name, value in reply["headers"]
        )["content-type"],
    }


class Stack:
    """An origin, one shard over it (injected clock, pinned freshness
    lifetime) and a router in front of the shard."""

    def __init__(self, max_inflight: int = 64) -> None:
        self.now = [1_000_000_000.0]
        site = TraceOriginSite()
        site.register(URL, 40)
        self.origin = OriginServer(site=site, timeout=0.3).start()
        self.shard = CachingProxy(
            ProxyStore(capacity=1 << 20),
            resolver=lambda host: self.origin.address,
            estimator=ConsistencyEstimator(
                default_ttl=TTL, lm_factor=0.0, min_ttl=TTL, max_ttl=TTL,
            ),
            clock=lambda: self.now[0],
            read_deadline=0.3,
            overload=OverloadPolicy(max_inflight=max_inflight),
        ).start()
        self.router = FleetRouter(
            StaticDirectory({0: self.shard.address}),
            shard_timeout=0.3,
            overload=OverloadPolicy(max_inflight=max_inflight),
        ).start()

    def stop(self) -> None:
        self.router.stop()
        self.shard.stop()
        self.origin.stop()


def saturated(tier: str) -> dict:
    """With ``max_inflight=1``, the reply to a second connection while a
    first one (admitted at accept, its head not yet sent) is in flight."""
    stack = Stack(max_inflight=1)
    try:
        address = getattr(stack, tier).address
        with socket.create_connection(address, timeout=5.0):
            time.sleep(0.05)  # let the acceptor admit the silent first one
            return exchange(address, b"")
    finally:
        stack.stop()


def through_a_cache(address, stack: Stack) -> dict:
    """The scenarios both caching tiers answer, in an order that walks
    one document through miss, hit and revalidation."""
    replies = {
        "get_miss": exchange(address, get(URL)),
        "get_hit": exchange(address, get(URL)),
    }
    stack.now[0] += TTL + 1.0
    replies["get_revalidated"] = exchange(address, get(URL))
    replies["head"] = exchange(address, get(URL, method="HEAD"))
    replies["post_pass_through"] = exchange(
        address, get(URL, "Content-Length: 3", method="POST") + b"a=1",
    )
    replies["not_http_400"] = exchange(address, get("/doc.html"))
    replies["put_501"] = exchange(address, get(URL, method="PUT"))
    replies["trickled_head_408"] = exchange(address, get(URL), stall_after=9)
    replies["metrics"] = content_type_only(exchange(address, get("/metrics")))
    return replies


def observe() -> dict:
    """Every pinned reply, from the tree ``repro`` imports from."""
    observed = {}
    for tier in ("shard", "router"):
        stack = Stack()
        try:
            observed[tier] = through_a_cache(getattr(stack, tier).address, stack)
        finally:
            stack.stop()
        observed[tier]["saturated_503"] = saturated(tier)
    stack = Stack()
    try:
        address = stack.origin.address
        stamp = dict(exchange(address, get("/doc.html"))["headers"])["Last-Modified"]
        observed["origin"] = {
            "get": exchange(address, get("/doc.html")),
            "get_absolute_url": exchange(address, get(URL)),
            "get_not_modified_304": exchange(
                address, get("/doc.html", f"If-Modified-Since: {stamp}"),
            ),
            "head": exchange(address, get("/doc.html", method="HEAD")),
            "post_501": exchange(address, get("/doc.html", method="POST")),
            "put_501": exchange(address, get("/doc.html", method="PUT")),
            "trickled_head_408": exchange(
                address, get("/doc.html"), stall_after=9,
            ),
        }
    finally:
        stack.stop()
    return observed


def without_second_content_length(reply: dict) -> dict:
    """The parent's reply with a repeated ``Content-Length`` dropped."""
    if "headers" not in reply:
        return reply
    kept, seen = [], False
    for name, value in reply["headers"]:
        if name.lower() == "content-length":
            if seen:
                continue
            seen = True
        kept.append([name, value])
    return dict(reply, headers=kept)


@pytest.fixture(scope="module")
def observed():
    return observe()


PARENT = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}


@pytest.mark.parametrize(
    "tier,scenario",
    [(tier, scenario) for tier, replies in PARENT.items() for scenario in replies],
)
def test_one_shot_reply_is_the_parents(observed, tier, scenario):
    assert observed[tier][scenario] == without_second_content_length(
        PARENT[tier][scenario]
    )


def test_every_scenario_is_pinned(observed):
    assert {t: sorted(r) for t, r in observed.items()} == {
        t: sorted(r) for t, r in PARENT.items()
    }


def test_the_parent_really_sent_content_length_twice():
    """The fixture shows the bug this PR fixes, so the permitted
    difference above is not vacuous."""
    names = [name.lower() for name, _ in PARENT["shard"]["get_miss"]["headers"]]
    assert names.count("content-length") == 2


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(observe(), indent=1, sort_keys=True) + "\n", encoding="utf-8",
    )
    print(f"wrote {FIXTURE}")
