"""Blocking HTTP/1.0 clients: one-shot, and pooled between our own tiers.

:func:`request` / :func:`fetch` are HTTP/1.0 as the paper's clients spoke
it — one request per connection, the response ended by the server's
close.  The tests, the CLI, the supervisor's health checks and the
benchmark's load driver use them.

:class:`UpstreamClient` is what the router uses toward its shards and a
shard toward its origin: it asks for ``Connection: keep-alive``, and a
peer that grants it gets its socket parked for the next request instead
of closed.  Both share one response reader (:func:`_receive`).
"""

from __future__ import annotations

import socket
import threading
from typing import Dict, List, Optional, Tuple

from repro.httpnet.message import HttpMessageError, HttpRequest, HttpResponse

__all__ = ["connect", "fetch", "request", "NoResponse", "UpstreamClient"]

#: Headers that describe one connection, not the message: never forwarded.
HOP_BY_HOP = frozenset(("connection", "keep-alive"))

#: Idle sockets kept per address.  Not an option: a tier never has more
#: requests in flight toward a peer than its own admission bound lets in,
#: and the peer stops granting at *its* bound, so the pool only ever
#: holds what recent concurrency needed; this caps what a burst leaves.
MAX_IDLE_PER_ADDRESS = 16


class NoResponse(ConnectionError):
    """The peer closed (or reset) before sending a single response byte."""


def connect(address: Tuple[str, int], timeout: float) -> socket.socket:
    """Open a TCP connection to ``address``.  An ASCII host reaches
    ``getaddrinfo`` as bytes: a ``str`` host makes the stdlib load its
    idna codec, ``stringprep`` and ``unicodedata`` on the first connect."""
    host, port = address
    return socket.create_connection(
        (host.encode("ascii") if host.isascii() else host, port),
        timeout=timeout,
    )


def _receive(
    sock: socket.socket, head_only: bool, max_response_bytes: int,
    strict: bool,
) -> Tuple[HttpResponse, bool]:
    """Read one response; the flag says the socket may carry another.

    That takes the peer's ``Connection: keep-alive`` and a body whose end
    is known: ``Content-Length``, or no body at all (a reply to HEAD and
    a 304 have none, whatever length they declare).  Such a body is read
    to exactly that length — more or fewer bytes is an error, never a
    reusable socket — and ``strict`` reads every body of known length
    that way, granted or not.  Any other response ends where the peer
    closes and is handed back as it came (the one-shot client's way).
    """
    total = 0

    def read() -> bytes:
        nonlocal total
        chunk = sock.recv(65536)
        total += len(chunk)
        if total > max_response_bytes:
            raise ValueError(f"response exceeded {max_response_bytes} bytes")
        return chunk

    try:
        data = read()
    except ConnectionError as error:
        raise NoResponse(str(error)) from error
    if not data:
        raise NoResponse("peer closed the connection with no response")
    # Either terminator ends the head, as for ``HttpResponse.parse``.
    while b"\r\n\r\n" not in data and b"\n\n" not in data:
        chunk = read()
        if not chunk:
            break
        data += chunk
    response = HttpResponse.parse(data)
    wanted = (
        0 if head_only or response.status == 304 else response.content_length
    )
    granted = wanted is not None and (
        response.headers.get("connection", "").lower() == "keep-alive"
    )
    framed = granted or (strict and wanted is not None)
    body = [response.body]
    received = len(response.body)
    while not framed or received < wanted:
        chunk = read()
        if not chunk:
            break
        body.append(chunk)
        received += len(chunk)
    if len(body) > 1:
        response.body = b"".join(body)
    if framed and received != wanted:
        raise HttpMessageError(
            f"response body is {received} bytes, {wanted} declared"
        )
    return response, granted


def request(
    address: Tuple[str, int],
    message: HttpRequest,
    timeout: float = 5.0,
    max_response_bytes: int = 64 * 2**20,
) -> HttpResponse:
    """Send one request to ``address`` on a connection of its own and
    read the full response.

    Raises:
        OSError: on connection failures or timeout.
        HttpMessageError: when the response bytes are not HTTP.
        ValueError: when the response exceeds ``max_response_bytes``.
    """
    with connect(address, timeout) as connection:
        connection.sendall(message.serialize())
        connection.shutdown(socket.SHUT_WR)
        return _receive(
            connection, message.method == "HEAD", max_response_bytes,
            strict=False,
        )[0]


def fetch(
    address: Tuple[str, int],
    url: str,
    headers: Optional[Dict[str, str]] = None,
    timeout: float = 5.0,
) -> HttpResponse:
    """GET ``url`` via the server at ``address`` (proxy-style request)."""
    message = HttpRequest(
        method="GET", url=url, headers=dict(headers or {}),
    )
    return request(address, message, timeout=timeout)


class UpstreamClient:
    """Requests to the next tier over connections that outlive them.

    Idle sockets are kept per address, last in first out (the warmest
    socket is reused and the rest age out at the peer's idle timeout).
    A socket goes back only after one whole response the peer granted
    keep-alive on; anything else — an error, a disagreeing length, a peer
    that does not grant — closes it.  Only GET and HEAD ride a reused
    socket, and when one turns out dead before a single response byte
    (the peer's idle timeout won the race) the request is sent once more
    on a fresh connection: the peer never saw it, so nothing is counted
    or fetched twice.  ``Connection`` / ``Keep-Alive`` are hop-by-hop in
    both directions: the caller's are not sent on, the peer's are not
    handed back.
    """

    def __init__(self) -> None:
        self._idle: Dict[Tuple[str, int], List[socket.socket]] = {}
        self._lock = threading.Lock()

    def request(
        self,
        address: Tuple[str, int],
        message: HttpRequest,
        timeout: float = 5.0,
        max_response_bytes: int = 64 * 2**20,
    ) -> HttpResponse:
        """Send ``message`` to ``address``; errors as :func:`request`,
        plus :class:`HttpMessageError` for a body that disagrees with
        its declared length."""
        head_only = message.method == "HEAD"
        reusable = head_only or message.method == "GET"
        headers = {
            name: value for name, value in message.headers.items()
            if name.lower() not in HOP_BY_HOP
        }
        if reusable:
            headers["Connection"] = "keep-alive"
        wire = HttpRequest(
            message.method, message.url, message.version, headers, message.body,
        ).serialize()
        parked = self._take(address) if reusable else None
        if parked is not None:
            try:
                return self._exchange(
                    parked, address, wire, head_only, timeout,
                    max_response_bytes,
                )
            except NoResponse:
                pass  # stale: the peer closed it while it sat idle
        return self._exchange(
            connect(address, timeout),
            address, wire, head_only, timeout, max_response_bytes,
        )

    def _exchange(
        self, sock, address, wire, head_only, timeout, max_response_bytes,
    ) -> HttpResponse:
        try:
            sock.settimeout(timeout)
            try:
                sock.sendall(wire)
            except ConnectionError as error:
                raise NoResponse(str(error)) from error
            response, granted = _receive(
                sock, head_only, max_response_bytes, strict=True,
            )
        except BaseException:
            sock.close()
            raise
        for name in HOP_BY_HOP:
            response.headers.pop(name, None)
        if granted:
            self._park(address, sock)
        else:
            sock.close()
        return response

    def _take(self, address: Tuple[str, int]) -> Optional[socket.socket]:
        with self._lock:
            idle = self._idle.get(address)
            return idle.pop() if idle else None

    def _park(self, address: Tuple[str, int], sock: socket.socket) -> None:
        with self._lock:
            idle = self._idle.setdefault(address, [])
            if len(idle) < MAX_IDLE_PER_ADDRESS:
                idle.append(sock)
                return
        sock.close()

    def idle_count(self, address: Tuple[str, int]) -> int:
        """Sockets parked for ``address`` right now."""
        with self._lock:
            return len(self._idle.get(address, ()))

    def close(self) -> None:
        """Close every parked socket (the owner is stopping)."""
        with self._lock:
            parked = [sock for idle in self._idle.values() for sock in idle]
            self._idle.clear()
        for sock in parked:
            sock.close()
