"""Keep-alive between the tiers we own, seen from outside the fleet:
the duplicated ``Content-Length`` fix, the hop-by-hop rule end to end,
failover when a shard dies under the router's pooled sockets, and the
accounting invariant under concurrent clients."""

import socket
import threading
import time

import pytest

from repro.httpnet.client import fetch
from repro.proxy import CachingProxy, OriginServer, ProxyStore
from repro.proxy.fleet import FleetSupervisor, ShardSpec
from repro.proxy.replay import TraceOriginSite
from repro.proxy.router import FleetRouter, StaticDirectory, rendezvous_rank
from repro.workloads import generate_valid
from tests.httpnet.scripted_peer import ScriptedPeer, reply

URL = "http://keep.test/doc.html"


def raw_exchange(address, payload: bytes) -> bytes:
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def header_lines(raw: bytes, name: str):
    head = raw.partition(b"\r\n\r\n")[0].decode("latin-1")
    return [
        line for line in head.split("\r\n")[1:]
        if line.lower().startswith(name.lower() + ":")
    ]


class RecordingOrigin(OriginServer):
    """Remembers the headers of every request it is asked to answer."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.seen = []

    def respond(self, request):
        self.seen.append(dict(request.headers))
        return super().respond(request)


class RecordingShard(CachingProxy):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []

    def handle(self, request, client="-"):
        self.seen.append(dict(request.headers))
        return super().handle(request, client=client)


@pytest.fixture
def stack():
    origin = RecordingOrigin().start()
    shard = RecordingShard(
        ProxyStore(capacity=1 << 20), resolver=lambda host: origin.address,
    ).start()
    router = FleetRouter(StaticDirectory({0: shard.address})).start()
    try:
        yield origin, shard, router
    finally:
        router.stop()
        shard.stop()
        origin.stop()


class TestContentLengthOnce:
    """At ``1105716`` every reply built from a parsed upstream response
    went out with ``content-length: N`` *and* ``Content-Length: N``."""

    @pytest.mark.parametrize("tier", ["shard", "router"])
    def test_a_miss_declares_its_length_once(self, stack, tier):
        origin, shard, router = stack
        address = (shard if tier == "shard" else router).address
        raw = raw_exchange(address, f"GET {URL} HTTP/1.0\r\n\r\n".encode())
        body = raw.partition(b"\r\n\r\n")[2]
        assert header_lines(raw, "x-cache")[0].endswith("MISS")
        assert header_lines(raw, "content-length") == [
            f"content-length: {len(body)}"
        ]

    def test_a_head_pass_through_keeps_the_entitys_length_once(self):
        """A real origin's reply to HEAD declares the entity's length
        and carries no body; the shard's pooled reader must not wait for
        one, must pass the length on (once), and the socket must still
        be in step for the next request."""
        with ScriptedPeer([reply(b"", length=5000), reply(b"next")]) as peer:
            shard = CachingProxy(
                ProxyStore(capacity=1 << 20), resolver=lambda host: peer.address,
            ).start()
            try:
                raw = raw_exchange(
                    shard.address, f"HEAD {URL} HTTP/1.0\r\n\r\n".encode(),
                )
                assert raw.partition(b"\r\n\r\n")[2] == b""
                assert header_lines(raw, "content-length") == [
                    "content-length: 5000"
                ]
                assert header_lines(raw, "x-cache")[0].endswith("PASS")
                assert fetch(shard.address, URL).body == b"next"
                assert peer.accepted == 1
            finally:
                shard.stop()


class TestHopByHop:
    def test_a_clients_connection_headers_reach_neither_shard_nor_origin(
        self, stack,
    ):
        origin, shard, router = stack
        raw = raw_exchange(router.address, (
            f"GET {URL} HTTP/1.0\r\nConnection: close\r\n"
            "Keep-Alive: timeout=300\r\nX-Mine: 1\r\n\r\n"
        ).encode())
        assert raw.startswith(b"HTTP/1.0 200")
        for seen in (shard.seen[0], origin.seen[0]):
            # What arrived is the previous tier's own ask, not the client's.
            assert seen["connection"] == "keep-alive"
            assert "keep-alive" not in seen
            assert seen["x-mine"] == "1"
        # The client asked for close: it got a close and no promise.
        assert header_lines(raw, "connection") == []
        assert header_lines(raw, "keep-alive") == []

    def test_an_origins_connection_headers_do_not_reach_the_client(self):
        answer = (
            b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n"
            b"Keep-Alive: timeout=5, max=100\r\nX-Origin: yes\r\n\r\nok"
        )
        with ScriptedPeer([answer]) as peer:
            shard = CachingProxy(
                ProxyStore(capacity=1 << 20), resolver=lambda host: peer.address,
            ).start()
            router = FleetRouter(StaticDirectory({0: shard.address})).start()
            try:
                raw = raw_exchange(
                    router.address, f"GET {URL} HTTP/1.0\r\n\r\n".encode(),
                )
            finally:
                router.stop()
                shard.stop()
        assert raw.endswith(b"\r\n\r\nok")
        assert header_lines(raw, "x-origin") == ["x-origin: yes"]
        assert header_lines(raw, "connection") == []
        assert header_lines(raw, "keep-alive") == []

    def test_the_tiers_reuse_one_socket_each(self, stack):
        origin, shard, router = stack
        urls = [f"http://keep.test/{index}.html" for index in range(12)]
        for url in urls:
            assert fetch(router.address, url).status == 200
        assert origin.request_count == 12
        assert len(origin._held) == 1           # shard -> origin
        assert len(shard._held) == 1            # router -> shard
        assert not router._held                 # one-shot clients: none


class TestFailoverUnderPooledSockets:
    def test_sigkill_of_a_shard_the_router_holds_sockets_to(self, tmp_path):
        """The router's idle socket to the killed process is dead: the
        request is retried on a fresh connection (refused), which is the
        failure the router has always seen — report, fail over, answer."""
        origin = OriginServer().start()
        spec = ShardSpec(
            shard_id=0, state_dir=tmp_path / "shard-0",
            origin=f"{origin.address[0]}:{origin.address[1]}",
        )
        supervisor = FleetSupervisor([spec])    # spawns it; never started
        handle = supervisor._handles[0]
        with supervisor._lock:
            supervisor._spawn_locked(handle)
        survivor = CachingProxy(
            ProxyStore(capacity=1 << 20), resolver=lambda host: origin.address,
        ).start()
        router = None
        try:
            deadline = time.monotonic() + 20.0
            address = None
            while address is None and time.monotonic() < deadline:
                address = supervisor._read_endpoint(handle)
                time.sleep(0.05)
            assert address is not None, "shard process never published its endpoint"
            directory = StaticDirectory({0: address, 1: survivor.address})
            router = FleetRouter(directory, shard_timeout=2.0).start()
            homed = [
                url for url in (f"http://keep.test/{i}.html" for i in range(40))
                if rendezvous_rank(url, [0, 1])[0] == 0
            ][:3]
            for url in homed:
                assert fetch(router.address, url).status == 200
            assert router._upstream.idle_count(address) == 1
            assert int(router.m.failover.value) == 0

            handle.process.kill()
            handle.process.wait(timeout=10.0)

            response = fetch(router.address, homed[0], timeout=5.0)
            assert response.status == 200
            assert response.headers["x-cache"] == "MISS"    # the survivor's
            assert int(router.m.failover.value) == 1
            assert directory.address_of(0) is None          # reported down
            assert router._upstream.idle_count(address) == 0
        finally:
            if router is not None:
                router.stop()
            survivor.stop()
            if handle.alive():
                handle.process.kill()
                handle.process.wait(timeout=10.0)
            origin.stop()

    def test_stopping_a_shard_in_process_fails_over_too(self):
        origin = OriginServer().start()
        shards = [
            CachingProxy(
                ProxyStore(capacity=1 << 20), resolver=lambda host: origin.address,
            ).start()
            for _ in range(2)
        ]
        directory = StaticDirectory(
            {index: shard.address for index, shard in enumerate(shards)}
        )
        router = FleetRouter(directory, shard_timeout=2.0).start()
        try:
            url = next(
                url for url in (f"http://keep.test/{i}.html" for i in range(40))
                if rendezvous_rank(url, [0, 1])[0] == 0
            )
            assert fetch(router.address, url).headers["x-cache"] == "MISS"
            assert fetch(router.address, url).headers["x-cache"] == "HIT"
            shards[0].stop()
            response = fetch(router.address, url, timeout=5.0)
            assert response.status == 200
            assert response.headers["x-cache"] == "MISS"
            assert int(router.m.failover.value) == 1
        finally:
            router.stop()
            for shard in shards:
                shard.stop()
            origin.stop()


class TestConcurrentReplayAccounting:
    def test_four_closed_loop_clients_every_request_is_a_hit_or_an_origin_fetch(
        self,
    ):
        """Stale-socket retries and shared pools must never lose or
        double-count a request: per-shard store hits plus origin
        requests equals requests sent, with nothing failed."""
        trace = generate_valid("BR", seed=1996, scale=0.02)[:1200]
        site = TraceOriginSite()
        sizes = {}
        for request in trace:
            sizes.setdefault(request.url, request.size)
        for url, size in sizes.items():
            site.register(url, size)
        origin = OriginServer(site=site).start()
        shards = [
            CachingProxy(
                ProxyStore(capacity=64 << 20),
                resolver=lambda host: origin.address,
            ).start()
            for _ in range(2)
        ]
        router = FleetRouter(StaticDirectory(
            {index: shard.address for index, shard in enumerate(shards)}
        )).start()
        cursor = iter(trace)
        lock = threading.Lock()
        failures = []

        def client():
            while True:
                with lock:
                    request = next(cursor, None)
                if request is None:
                    return
                try:
                    response = fetch(router.address, request.url, timeout=10.0)
                    if (
                        response.status != 200
                        or len(response.body) != sizes[request.url]
                    ):
                        failures.append((request.url, response.status))
                except Exception as error:  # noqa: BLE001 - recorded, asserted
                    failures.append((request.url, repr(error)))

        threads = [threading.Thread(target=client) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            hits = sum(shard.store.stats.hits for shard in shards)
            assert hits + origin.request_count == len(trace)
            assert hits > 0 and origin.request_count >= len(sizes)
            assert int(router.m.failover.value) == 0
            assert sum(shard.stats.errors for shard in shards) == 0
        finally:
            router.stop()
            for shard in shards:
                shard.stop()
            origin.stop()
