"""Tests for the one socket server (:mod:`repro.httpnet.server`):
lifecycle, the two dispatch modes, the shed/timeout/bad-request hooks,
and the head reader's limits — over real localhost sockets."""

import json
import socket
import threading
import time

import pytest

from repro.faults import FaultPlan, FaultyOriginServer
from repro.httpnet.client import fetch
from repro.httpnet.message import HttpResponse
from repro.httpnet.server import HttpServer, error_response
from repro.proxy.overload import AdmissionController, OverloadPolicy


class EchoServer(HttpServer):
    """Answers every request with its URL; records the hook calls."""

    def __init__(self, admission=None, max_clients=1, timeout=2.0,
                 read_deadline=None, delay=0.0):
        super().__init__(
            "127.0.0.1", 0, timeout, read_deadline=read_deadline,
            admission=admission, max_clients=max_clients,
        )
        self.delay = delay
        self.peers = []
        self.bad = []

    def answer(self, request, peer):
        self.peers.append(peer)
        time.sleep(self.delay)
        return HttpResponse(status=200, body=request.url.encode("utf-8"))

    def bad_request(self, peer):
        self.bad.append(peer)


class Gate:
    """A duck-typed admission object: admits while ``open`` is set."""

    def __init__(self, open=True):
        self.open = open
        self.released = []

    def try_admit(self):
        return self.open

    def release(self, seconds):
        self.released.append(seconds)

    def retry_after_seconds(self):
        return 2.5


def wait_for(predicate, seconds=2.0):
    """Poll for something a handler thread does after the client is
    already answered (hook calls, admission release)."""
    deadline = time.monotonic() + seconds
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


def read_all(sock):
    chunks = bytearray()
    try:
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            chunks.extend(chunk)
    except OSError:
        pass
    return bytes(chunks)


class TestErrorResponse:
    def test_json_body_and_ceiled_retry_after(self):
        response = error_response(503, "saturated", retry_after=1.2, shard=3)
        assert response.status == 503
        assert response.headers["Content-Type"] == "application/json"
        assert response.headers["Retry-After"] == "2"
        assert json.loads(response.body) == {"error": "saturated", "shard": 3}

    def test_no_retry_after_unless_given(self):
        assert "Retry-After" not in error_response(408, "x").headers


class TestLifecycle:
    def test_stop_is_idempotent_and_prompt(self):
        server = EchoServer().start()
        assert fetch(server.address, "/a", timeout=2.0).body == b"/a"
        started = time.monotonic()
        server.stop()
        server.stop()
        assert time.monotonic() - started < 1.0

    def test_stop_before_start_is_harmless(self):
        EchoServer().stop()

    def test_stopped_server_refuses_connections(self):
        server = EchoServer().start()
        server.stop()
        with pytest.raises(OSError):
            fetch(server.address, "/late", timeout=1.0)

    def test_context_manager_and_request_count(self):
        with EchoServer(admission=Gate(), max_clients=2) as server:
            for index in range(3):
                assert fetch(server.address, f"/{index}", timeout=2.0).status == 200
            assert server.request_count == 3
            assert server.peers == ["127.0.0.1"] * 3
            assert wait_for(lambda: len(server.admission.released) == 3)


class TestBoundedPool:
    def test_refused_admission_is_shed_inline_with_retry_after(self):
        gate = Gate(open=False)
        with EchoServer(admission=gate) as server:
            # Shed at the door: answered before a byte of request is read.
            with socket.create_connection(server.address, timeout=2.0) as sock:
                response = HttpResponse.parse(read_all(sock))
            assert response.status == 503
            assert response.headers["retry-after"] == "3"   # parsed: lowercased
            assert json.loads(response.body)["error"] == "saturated"
            assert server.request_count == 0     # never reached a worker
            gate.open = True
            assert fetch(server.address, "/y", timeout=2.0).status == 200


class TestHeadReader:
    def test_stalled_head_gets_408_at_the_total_deadline(self):
        with EchoServer(timeout=5.0, read_deadline=0.3) as server:
            with socket.create_connection(server.address, timeout=5.0) as sock:
                sock.sendall(b"GET /slow HT")
                started = time.monotonic()
                response = HttpResponse.parse(read_all(sock))
            assert time.monotonic() - started < 2.0
            assert response.status == 408
            assert json.loads(response.body)["error"] == "client_read_timeout"
            assert server.request_count == 0
            assert server.bad == []

    def test_oversize_head_is_rejected_without_a_reply(self):
        with EchoServer() as server:
            with socket.create_connection(server.address, timeout=5.0) as sock:
                try:
                    sock.sendall(b"GET /big HTTP/1.0\r\nX-Pad: " + b"a" * (2 << 20))
                except OSError:
                    pass    # the server may hang up mid-send
                assert read_all(sock) == b""
            assert wait_for(lambda: server.bad == ["127.0.0.1"])
            assert server.request_count == 0

    def test_unparseable_head_reaches_the_bad_request_hook(self):
        with EchoServer() as server:
            with socket.create_connection(server.address, timeout=5.0) as sock:
                sock.sendall(b"garbage\r\n\r\n")
                assert read_all(sock) == b""
            assert wait_for(lambda: server.bad == ["127.0.0.1"])


class TestThreadPerConnection:
    def test_concurrent_slow_handlers_do_not_queue(self):
        clients = 6
        with EchoServer(delay=0.3) as server:
            statuses = []

            def client(index):
                statuses.append(
                    fetch(server.address, f"/{index}", timeout=5.0).status
                )

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(clients)
            ]
            started = time.monotonic()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.monotonic() - started
            assert statuses == [200] * clients
            assert server.request_count == clients
            # Serialised through one worker this would take clients * 0.3 s.
            assert elapsed < 0.3 * clients / 2


# -- persistent connections ---------------------------------------------------


KEEP_ALIVE = "Connection: keep-alive\r\n"


def ask(sock, url, extra=KEEP_ALIVE, method="GET"):
    sock.sendall(f"{method} {url} HTTP/1.0\r\n{extra}\r\n".encode("latin-1"))


def read_one(sock):
    """One response off a connection that may stay open: the head, then
    exactly the declared body."""
    data = bytearray()
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(4096)
        if not chunk:
            break
        data.extend(chunk)
    response = HttpResponse.parse(bytes(data))
    while len(response.body) < (response.content_length or 0):
        response.body += sock.recv(4096)
    return response


def at_eof(sock):
    """The server closed its side (and sent nothing more first)."""
    return sock.recv(4096) == b""


def admission(max_inflight=64):
    return AdmissionController(OverloadPolicy(max_inflight=max_inflight))


BOTH_MODES = pytest.mark.parametrize(
    "pooled", [False, True], ids=["thread-per-connection", "bounded-pool"],
)


class TestKeepAlive:
    @BOTH_MODES
    def test_many_requests_ride_one_connection(self, pooled):
        gate = admission() if pooled else None
        with EchoServer(admission=gate, max_clients=2) as server:
            with socket.create_connection(server.address, timeout=5.0) as sock:
                for index in range(5):
                    ask(sock, f"/{index}")
                    response = read_one(sock)
                    assert response.body == f"/{index}".encode()
                    assert response.headers["connection"] == "keep-alive"
                assert server.request_count == 5
                assert len(server._held) == 1       # one accept carried all five
            assert wait_for(lambda: not server._held)
            if pooled:
                assert wait_for(lambda: gate.inflight == 0)

    @BOTH_MODES
    def test_no_grant_unless_asked_and_the_request_ends_at_its_head(self, pooled):
        gate = admission() if pooled else None
        with EchoServer(admission=gate) as server:
            for extra, method, trailing in (
                ("", "GET", b""),                       # did not ask
                ("Connection: close\r\n", "GET", b""),  # asked for the opposite
                (KEEP_ALIVE, "POST", b""),              # a body may follow
                (KEEP_ALIVE, "GET", b"GET /next"),      # something did follow
            ):
                with socket.create_connection(server.address, timeout=5.0) as sock:
                    sock.sendall(
                        f"{method} /x HTTP/1.0\r\n{extra}\r\n".encode() + trailing
                    )
                    response = HttpResponse.parse(read_all(sock))  # reads to EOF
                assert response.status == 200
                assert "connection" not in response.headers
            assert not server._held

    def test_admission_is_per_request_not_per_connection(self):
        gate = admission(max_inflight=1)
        with EchoServer(admission=gate, max_clients=2) as server:
            with socket.create_connection(server.address, timeout=5.0) as held:
                ask(held, "/first")
                assert read_one(held).status == 200
                assert wait_for(lambda: gate.inflight == 0)  # idle: no slot
                # A second connection takes the only slot (admitted at
                # accept, its head not sent yet) ...
                with socket.create_connection(server.address, timeout=5.0) as other:
                    assert wait_for(lambda: gate.inflight == 1)
                    # ... so the held connection's next request is shed,
                    # inline, and the connection closed.
                    ask(held, "/second")
                    shed = read_one(held)
                    assert shed.status == 503
                    assert shed.headers["retry-after"] == "4"
                    assert json.loads(shed.body)["error"] == "saturated"
                    assert at_eof(held)
                    ask(other, "/other", extra="")
                    assert HttpResponse.parse(read_all(other)).body == b"/other"
            assert server.request_count == 2
            assert wait_for(lambda: gate.inflight == 0 and not server._held)

    def test_idle_held_connections_pin_no_worker_and_no_slot(self):
        gate = admission(max_inflight=64)
        with EchoServer(admission=gate, max_clients=2) as server:
            held = [
                socket.create_connection(server.address, timeout=5.0)
                for _ in range(20)
            ]
            try:
                for index, sock in enumerate(held):
                    ask(sock, f"/{index}")
                    assert read_one(sock).status == 200
                assert wait_for(lambda: gate.inflight == 0)
                assert len(server._held) == 20
                started = time.monotonic()
                assert fetch(server.address, "/fresh", timeout=2.0).body == b"/fresh"
                assert time.monotonic() - started < 0.5
                # And every one of them still answers.
                ask(held[7], "/again")
                assert read_one(held[7]).body == b"/again"
            finally:
                for sock in held:
                    sock.close()

    def test_held_connections_are_bounded_by_max_inflight(self):
        with EchoServer(admission=admission(max_inflight=2), max_clients=2) as server:
            socks = []
            try:
                granted = []
                for _ in range(3):
                    sock = socket.create_connection(server.address, timeout=5.0)
                    socks.append(sock)
                    ask(sock, "/x")
                    response = read_one(sock)
                    assert response.status == 200
                    granted.append(response.headers.get("connection"))
                assert granted == ["keep-alive", "keep-alive", None]
                assert at_eof(socks[2])     # no grant: closed as HTTP/1.0 does
            finally:
                for sock in socks:
                    sock.close()

    @BOTH_MODES
    def test_idle_expiry_closes_without_a_word(self, pooled):
        gate = admission() if pooled else None
        with EchoServer(admission=gate, timeout=0.2) as server:
            with socket.create_connection(server.address, timeout=5.0) as sock:
                ask(sock, "/once")
                assert read_one(sock).status == 200
                started = time.monotonic()
                assert at_eof(sock)         # not a 408: nothing was half-sent
                assert 0.1 < time.monotonic() - started < 2.0
            assert server.request_count == 1
            assert server.bad == []

    @BOTH_MODES
    def test_trickled_head_on_a_held_connection_still_gets_408(self, pooled):
        gate = admission() if pooled else None
        with EchoServer(admission=gate, timeout=5.0, read_deadline=0.3) as server:
            with socket.create_connection(server.address, timeout=5.0) as sock:
                ask(sock, "/ok")
                assert read_one(sock).status == 200
                sock.sendall(b"GET /slow HT")
                response = read_one(sock)
                assert response.status == 408
                assert json.loads(response.body)["error"] == "client_read_timeout"
                assert at_eof(sock)
            assert server.request_count == 1
            if pooled:
                assert wait_for(lambda: gate.inflight == 0)

    @BOTH_MODES
    def test_stop_closes_held_connections_and_the_port_refuses(self, pooled):
        server = EchoServer(admission=admission() if pooled else None).start()
        with socket.create_connection(server.address, timeout=5.0) as sock:
            ask(sock, "/held")
            assert read_one(sock).status == 200
            server.stop()
            assert at_eof(sock)
            # Asked again anyway, a stopped server does not answer.
            try:
                ask(sock, "/after")
                assert at_eof(sock)
            except OSError:
                pass
        assert wait_for(lambda: not server._held)
        with pytest.raises(OSError):
            socket.create_connection(server.address, timeout=1.0)

    def test_a_reply_override_never_grants(self):
        """``FaultyOriginServer`` writes its replies itself (that is how
        it truncates and drops), so it stays one request per connection
        and every fault plan plays out connection by connection."""
        injector = FaultPlan().injector()
        origin = FaultyOriginServer(injector, timeout=2.0).start()
        try:
            for _ in range(2):
                with socket.create_connection(origin.address, timeout=5.0) as sock:
                    ask(sock, "/doc.html")
                    response = HttpResponse.parse(read_all(sock))   # to EOF
                    assert response.status == 200
                    assert "connection" not in response.headers
            assert not origin._held
            assert injector.summary() == {"events": 2}
        finally:
            origin.stop()
