"""Tests for the one socket server (:mod:`repro.httpnet.server`):
lifecycle, the two dispatch modes, the shed/timeout/bad-request hooks,
and the head reader's limits — over real localhost sockets."""

import json
import socket
import threading
import time

import pytest

from repro.httpnet.client import fetch
from repro.httpnet.message import HttpResponse
from repro.httpnet.server import HttpServer, error_response


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
