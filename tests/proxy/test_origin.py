"""Tests for the toy origin server (socket-free paths plus one live test)."""

import socket

import pytest

from repro.httpnet import HttpRequest, HttpResponse
from repro.httpnet.message import format_http_date
from repro.proxy import OriginServer, SyntheticSite


class TestSyntheticSite:
    def test_documents_deterministic(self):
        site = SyntheticSite()
        a1, type1 = site.document("/x.html")
        a2, type2 = site.document("/x.html")
        assert a1 == a2
        assert type1 == type2 == "text/html"

    def test_distinct_paths_distinct_bodies(self):
        site = SyntheticSite()
        assert site.document("/a.html")[0] != site.document("/b.html")[0]

    def test_content_types_by_extension(self):
        site = SyntheticSite()
        assert site.document("/x.gif")[1] == "image/gif"
        assert site.document("/song.au")[1] == "audio/basic"
        assert site.document("/blob.bin")[1] == "application/octet-stream"

    def test_touch_changes_document(self):
        site = SyntheticSite()
        before = site.document("/x.html")[0]
        site.touch("/x.html", 900_000_000.0)
        after = site.document("/x.html")[0]
        assert before != after
        assert site.last_modified("/x.html") == 900_000_000.0

    def test_sizes_in_range(self):
        site = SyntheticSite(base_size=100, size_spread=50)
        for path in ("/a", "/b", "/c.gif"):
            size = len(site.document(path)[0])
            assert 100 <= size < 150


class TestRespond:
    """Socket-free request handling."""

    def make_server(self):
        return OriginServer.__new__(OriginServer), SyntheticSite()

    def origin(self):
        origin = object.__new__(OriginServer)
        origin.site = SyntheticSite()
        return origin

    def test_get_returns_document(self):
        origin = self.origin()
        response = origin.respond(HttpRequest(method="GET", url="/x.html"))
        assert response.status == 200
        assert response.body == origin.site.document("/x.html")[0]
        assert response.last_modified is not None

    def test_absolute_url_accepted(self):
        origin = self.origin()
        absolute = origin.respond(
            HttpRequest(method="GET", url="http://host.edu/x.html")
        )
        relative = origin.respond(HttpRequest(method="GET", url="/x.html"))
        assert absolute.body == relative.body

    def test_head_has_no_body(self):
        origin = self.origin()
        response = origin.respond(HttpRequest(method="HEAD", url="/x.html"))
        assert response.status == 200
        assert response.body == b""

    def test_post_not_implemented(self):
        origin = self.origin()
        assert origin.respond(
            HttpRequest(method="POST", url="/x.html")
        ).status == 501

    def test_conditional_get_not_modified(self):
        origin = self.origin()
        stamp = format_http_date(origin.site.last_modified("/x.html"))
        response = origin.respond(HttpRequest(
            method="GET", url="/x.html",
            headers={"If-Modified-Since": stamp},
        ))
        assert response.status == 304
        assert response.body == b""

    def test_conditional_get_modified(self):
        origin = self.origin()
        old_stamp = format_http_date(1.0)
        response = origin.respond(HttpRequest(
            method="GET", url="/x.html",
            headers={"If-Modified-Since": old_stamp},
        ))
        assert response.status == 200


class TestLiveServer:
    def fetch(self, address, raw):
        with socket.create_connection(address, timeout=5.0) as conn:
            conn.sendall(raw)
            conn.shutdown(socket.SHUT_WR)
            data = bytearray()
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                data.extend(chunk)
        return HttpResponse.parse(bytes(data))

    def test_serves_over_socket(self):
        with OriginServer() as origin:
            response = self.fetch(
                origin.address,
                b"GET /live.html HTTP/1.0\r\n\r\n",
            )
            assert response.status == 200
            assert response.body == origin.site.document("/live.html")[0]
            assert origin.request_count == 1

    def test_parallel_requests(self):
        import concurrent.futures
        with OriginServer() as origin:
            def one(i):
                return self.fetch(
                    origin.address,
                    f"GET /doc{i}.html HTTP/1.0\r\n\r\n".encode(),
                ).status
            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                statuses = list(pool.map(one, range(16)))
            assert statuses == [200] * 16


def test_malformed_if_modified_since_is_ignored_over_socket():
    """RFC 7232 §3.3: an invalid date is ignored, so the client gets the
    full document instead of an empty reply from a dead handler."""
    with OriginServer() as origin:
        response = TestLiveServer().fetch(
            origin.address,
            b"GET /x HTTP/1.0\r\nIf-Modified-Since: yesterday\r\n\r\n",
        )
        assert response.status == 200
        assert response.body == origin.site.document("/x")[0]
        assert response.content_length == len(response.body)
