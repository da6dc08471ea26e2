"""Tests for the blocking HTTP client."""

import threading
import time

import pytest

import repro.httpnet.client as client_module
from repro.httpnet.client import NoResponse, UpstreamClient, fetch, request
from repro.httpnet.message import HttpMessageError, HttpRequest
from repro.proxy import OriginServer
from tests.httpnet.scripted_peer import GRANT, ScriptedPeer, reply


class TestClient:
    def test_fetch_from_origin(self):
        with OriginServer() as origin:
            response = fetch(origin.address, "/page.html")
            assert response.status == 200
            assert response.body == origin.site.document("/page.html")[0]

    def test_fetch_with_headers(self):
        from repro.httpnet.message import format_http_date
        with OriginServer() as origin:
            stamp = format_http_date(origin.site.last_modified("/p.html"))
            response = fetch(
                origin.address, "/p.html",
                headers={"If-Modified-Since": stamp},
            )
            assert response.status == 304

    def test_request_object(self):
        with OriginServer() as origin:
            response = request(
                origin.address,
                HttpRequest(method="HEAD", url="/page.html"),
            )
            assert response.status == 200
            assert response.body == b""

    def test_connection_refused(self):
        import socket
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        with pytest.raises(OSError):
            fetch(("127.0.0.1", dead_port), "/x", timeout=1.0)

    def test_response_size_cap(self):
        with OriginServer() as origin:
            with pytest.raises(ValueError):
                request(
                    origin.address,
                    HttpRequest(method="GET", url="/big.html"),
                    max_response_bytes=16,
                )


# -- the pooled upstream client ------------------------------------------------

def get(url="/x", **headers):
    return HttpRequest(method="GET", url=url, headers=headers)


class TestUpstreamClient:
    def test_a_granted_socket_is_reused(self):
        with ScriptedPeer([reply(b"one"), reply(b"two"), reply(b"three")]) as peer:
            client = UpstreamClient()
            bodies = [client.request(peer.address, get()).body for _ in range(3)]
            assert bodies == [b"one", b"two", b"three"]
            assert peer.accepted == 1
            assert client.idle_count(peer.address) == 1
            client.close()
            assert client.idle_count(peer.address) == 0

    def test_reuse_against_the_real_origin(self):
        with OriginServer() as origin:
            client = UpstreamClient()
            for _ in range(4):
                response = client.request(origin.address, get("/page.html"))
                assert response.body == origin.site.document("/page.html")[0]
            assert origin.request_count == 4
            assert len(origin._held) == 1
            client.close()

    def test_asks_for_keep_alive_and_hop_by_hop_headers_stop_here(self):
        answer = reply(b"ok", extra=GRANT + b"Keep-Alive: timeout=5\r\nX-Kept: yes\r\n")
        with ScriptedPeer([answer]) as peer:
            client = UpstreamClient()
            response = client.request(peer.address, get(
                "/x", **{"connection": "close", "Keep-Alive": "300", "X-Mine": "1"},
            ))
            (_, head), = peer.heads
            lines = head.decode("latin-1").lower().split("\r\n")
            assert [line for line in lines if line.startswith("connection")] == [
                "connection: keep-alive"
            ]
            assert not any(line.startswith("keep-alive") for line in lines)
            assert "x-mine: 1" in lines
            assert response.headers == {"content-length": "2", "x-kept": "yes"}
            client.close()

    def test_idle_sockets_are_taken_last_in_first_out(self):
        released = threading.Event()

        def late():
            released.wait(5.0)
            return reply(b"late")

        with ScriptedPeer(
            [reply(b"early"), reply(b"unused")], [late, reply(b"on the late one")],
        ) as peer:
            client = UpstreamClient()
            bodies = {}

            def fetch_into(key):
                bodies[key] = client.request(peer.address, get()).body

            first = threading.Thread(target=fetch_into, args=("a",))
            first.start()
            first.join(5.0)                 # connection 0 answered and parked
            second = threading.Thread(target=fetch_into, args=("b",))
            # Connection 0 is idle, so hold it out of the pool to force a
            # second connection, then park that one after it.
            parked = client._take(peer.address)
            second.start()
            while peer.accepted < 2:
                time.sleep(0.01)
            client._park(peer.address, parked)
            released.set()
            second.join(5.0)                # connection 1 parked last
            assert bodies == {"a": b"early", "b": b"late"}
            assert client.idle_count(peer.address) == 2
            assert client.request(peer.address, get()).body == b"on the late one"
            client.close()

    def test_the_pool_is_bounded(self, monkeypatch):
        monkeypatch.setattr(client_module, "MAX_IDLE_PER_ADDRESS", 2)
        with OriginServer() as origin:
            client = UpstreamClient()
            barrier = threading.Barrier(5)

            def one():
                barrier.wait(5.0)
                client.request(origin.address, get("/page.html"))

            threads = [threading.Thread(target=one) for _ in range(5)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(5.0)
            assert 1 <= client.idle_count(origin.address) <= 2
            client.close()

    def test_a_stale_socket_is_retried_once_on_a_fresh_connection(self):
        # Connection 0 grants, then closes while idle; connection 1 answers.
        with ScriptedPeer([reply(b"first")], [reply(b"second")]) as peer:
            client = UpstreamClient()
            assert client.request(peer.address, get()).body == b"first"
            time.sleep(0.1)     # the peer's close arrives
            assert client.request(peer.address, get()).body == b"second"
            assert peer.accepted == 2
            # The peer saw each request once: the retry resent a request
            # the first socket's owner never read.
            assert [index for index, _ in peer.heads] == [0, 1]
            client.close()

    def test_the_retry_happens_exactly_once(self):
        with ScriptedPeer([reply(b"first")], [None]) as peer:
            client = UpstreamClient()
            client.request(peer.address, get())
            time.sleep(0.1)
            with pytest.raises(NoResponse):
                client.request(peer.address, get())
            assert peer.accepted == 2           # not 3
            assert client.idle_count(peer.address) == 0

    def test_a_fresh_connection_with_no_response_is_not_retried(self):
        with ScriptedPeer([None]) as peer:
            with pytest.raises(NoResponse):
                UpstreamClient().request(peer.address, get())
            time.sleep(0.05)
            assert peer.accepted == 1

    def test_no_retry_once_a_response_byte_has_arrived(self):
        with ScriptedPeer([reply(b"first"), b"HTTP/1.0 200 OK\r\nConte"], []) as peer:
            client = UpstreamClient()
            client.request(peer.address, get())
            with pytest.raises((OSError, HttpMessageError)) as caught:
                client.request(peer.address, get())
            assert not isinstance(caught.value, NoResponse)
            time.sleep(0.05)
            assert peer.accepted == 1
            assert client.idle_count(peer.address) == 0

    def test_post_never_rides_a_reused_socket_and_never_asks(self):
        with ScriptedPeer([reply(b"got")], [reply(b"posted", extra=b"")]) as peer:
            client = UpstreamClient()
            client.request(peer.address, get())
            post = HttpRequest(method="POST", url="/form", body=b"a=1")
            assert client.request(peer.address, post).body == b"posted"
            assert peer.accepted == 2
            assert client.idle_count(peer.address) == 1     # the GET's, untouched
            (_, posted), = [h for h in peer.heads if h[1].startswith(b"POST")]
            assert b"keep-alive" not in posted.lower()
            client.close()

    def test_head_and_304_are_bodiless_whatever_they_declare(self):
        script = [
            reply(b"", length=5000),                            # to HEAD
            reply(b"", length=7, status=b"304 Not Modified"),   # to a conditional GET
            reply(b"whole"),
        ]
        with ScriptedPeer(script) as peer:
            client = UpstreamClient()
            head = client.request(
                peer.address, HttpRequest(method="HEAD", url="/x"),
            )
            assert (head.body, head.content_length) == (b"", 5000)
            assert client.request(peer.address, get()).status == 304
            assert client.request(peer.address, get()).body == b"whole"
            assert peer.accepted == 1       # framing held: one socket throughout
            client.close()

    @pytest.mark.parametrize("extra", [GRANT, b""], ids=["granted", "not-granted"])
    def test_a_short_body_is_an_error_and_the_socket_is_not_pooled(self, extra):
        with ScriptedPeer([reply(b"four", extra=extra, length=10)]) as peer:
            client = UpstreamClient()
            with pytest.raises(HttpMessageError, match="4 bytes, 10 declared"):
                client.request(peer.address, get())
            assert client.idle_count(peer.address) == 0

    def test_a_long_body_is_an_error_too(self):
        with ScriptedPeer([reply(b"far too long", length=3)]) as peer:
            client = UpstreamClient()
            with pytest.raises(HttpMessageError, match="declared"):
                client.request(peer.address, get())
            assert client.idle_count(peer.address) == 0

    def test_a_peer_that_does_not_grant_is_read_to_end_of_stream(self):
        plain = b"HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n\r\nuntil you hang up"
        with ScriptedPeer([plain], [plain]) as peer:
            client = UpstreamClient()
            for _ in range(2):
                response = client.request(peer.address, get())
                assert response.body == b"until you hang up"
            assert peer.accepted == 2
            assert client.idle_count(peer.address) == 0

    def test_a_bare_lf_head_is_read_without_waiting_for_crlf(self):
        bare = b"HTTP/1.0 200 OK\nContent-Length: 2\nConnection: keep-alive\n\nok"
        with ScriptedPeer([bare, bare]) as peer:
            client = UpstreamClient()
            started = time.monotonic()
            for _ in range(2):
                assert client.request(peer.address, get(), timeout=1.0).body == b"ok"
            assert time.monotonic() - started < 1.0
            assert peer.accepted == 1
            client.close()

    def test_one_shot_request_hands_a_short_body_back_as_it_came(self):
        with ScriptedPeer([reply(b"four", extra=b"", length=10)]) as peer:
            response = request(peer.address, get())
            assert (response.body, response.content_length) == (b"four", 10)
