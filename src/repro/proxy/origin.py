"""A toy HTTP/1.0 origin server for demos and integration tests.

Serves a deterministic synthetic site: each path maps to a stable document
whose size and type derive from the URL (so repeated fetches are
byte-identical, like the static documents the paper's caches hold).
Supports conditional GET (``If-Modified-Since`` -> ``304 Not Modified``),
which the proxy's consistency estimator exercises.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.httpnet.message import HttpRequest, HttpResponse, format_http_date
from repro.httpnet.server import HttpServer
from repro.obs import Obs
from repro.obs.tracing import continue_trace

__all__ = ["SyntheticSite", "OriginServer"]

_CONTENT_TYPES = {
    "html": "text/html",
    "txt": "text/plain",
    "gif": "image/gif",
    "jpg": "image/jpeg",
    "au": "audio/basic",
    "mpg": "video/mpeg",
}


@dataclass
class SyntheticSite:
    """Deterministic document universe behind an origin server.

    Args:
        base_size: smallest document size in bytes.
        size_spread: sizes vary in ``[base_size, base_size + size_spread)``
            as a stable function of the path.
        last_modified_epoch: Last-Modified stamped on every document;
            bump per-path entries in :attr:`modified_overrides` to simulate
            edits.
    """

    base_size: int = 256
    size_spread: int = 8192
    last_modified_epoch: float = 800_000_000.0

    def __post_init__(self) -> None:
        self.modified_overrides: Dict[str, float] = {}

    def last_modified(self, path: str) -> float:
        return self.modified_overrides.get(path, self.last_modified_epoch)

    def touch(self, path: str, when: float) -> None:
        """Simulate an edit to one document at time ``when``."""
        self.modified_overrides[path] = when

    def document(self, path: str) -> Tuple[bytes, str]:
        """The (body, content type) for a path; stable across calls unless
        the document was touched."""
        stamp = self.last_modified(path)
        digest = zlib.crc32(f"{path}@{stamp}".encode("utf-8"))
        size = self.base_size + digest % self.size_spread
        block = f"{path}:{digest:08x};".encode("ascii")
        body = (block * (size // len(block) + 1))[:size]
        extension = path.rsplit(".", 1)[-1] if "." in path else "html"
        return body, _CONTENT_TYPES.get(extension, "application/octet-stream")


class OriginServer(HttpServer):
    """A threaded HTTP/1.0 server over a :class:`SyntheticSite`.

    Runs thread-per-connection (no admission object): an injected DELAY
    sleeps in the handler, and a bounded pool would make the requests
    queued behind it wait and so reorder a chaos schedule.

    Use as a context manager::

        with OriginServer() as origin:
            ... connect to origin.address ...
    """

    def __init__(
        self,
        site: Optional[SyntheticSite] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 5.0,
        obs: Optional[Obs] = None,
    ) -> None:
        super().__init__(host, port, timeout)
        self.site = site if site is not None else SyntheticSite()
        self.obs = obs if obs is not None else Obs.private()

    def answer(self, request: HttpRequest, peer: str) -> HttpResponse:
        return self.respond(request)

    def respond(self, request: HttpRequest) -> HttpResponse:
        """Build the response for a parsed request (also used directly by
        unit tests, no sockets involved).

        When the request carries an ``X-Trace-Context`` stamped by an
        upstream proxy, the origin's span joins that trace — the last
        hop of a request's router → shard → origin path.
        """
        obs = getattr(self, "obs", None)
        if obs is None:  # partially-constructed instances (tests)
            return self._respond(request)
        _, traced = continue_trace(obs, "origin.respond", request)
        with traced:
            return self._respond(request)

    def _respond(self, request: HttpRequest) -> HttpResponse:
        path = request.url
        if path.startswith("http://"):
            path = "/" + path.split("/", 3)[-1]
        if request.method not in ("GET", "HEAD"):
            return HttpResponse(status=501)
        modified = self.site.last_modified(path)
        since = request.if_modified_since
        if since is not None and modified <= since:
            return HttpResponse(
                status=304,
                headers={"Last-Modified": format_http_date(modified)},
            )
        body, content_type = self.site.document(path)
        if request.method == "HEAD":
            body = b""
        return HttpResponse(
            status=200,
            headers={
                "Content-Type": content_type,
                "Last-Modified": format_http_date(modified),
                "Server": "repro-origin/1.0",
            },
            body=body,
        )
