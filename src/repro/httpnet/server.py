"""The one HTTP/1.0 socket server every live tier is built on.

:class:`HttpServer` owns everything between ``bind`` and ``sendall``:
the listener, ``start``/``stop``, the accept loop, how an accepted
connection reaches a handler thread, the request-head reader with its
two deadlines, and the ``read -> parse -> reply`` skeleton.  The caching
proxy, the fleet router, and the toy origin differ only in the hooks
they override (:meth:`HttpServer.answer` above all).

Two dispatch modes, chosen by whether an admission object is passed:

* **bounded pool** (an admission object is given) — ``max_clients``
  worker threads drain a queue the acceptor feeds only while
  ``admission.try_admit()`` agrees; a refused connection is answered
  inline with :meth:`HttpServer.shed_response` (``503 + Retry-After``)
  and closed, so overload is answered in microseconds, never queued
  into a stall.  ``admission`` is duck-typed: ``try_admit()``,
  ``release(seconds)`` and ``retry_after_seconds()``.
* **thread per connection** (no admission object) — every connection
  gets its own thread and nothing is ever shed (the toy origin; see
  :class:`repro.proxy.origin.OriginServer` for why).

A head that misses either of :func:`read_head`'s two deadlines is
answered with ``408 client_read_timeout``.
"""

from __future__ import annotations

import json
import math
import queue
import socket
import threading
import time as _time
from typing import Optional, Tuple

from repro.httpnet.message import HttpMessageError, HttpRequest, HttpResponse

__all__ = ["HttpServer", "error_response", "read_head"]

#: Largest request head accepted, in bytes.
MAX_HEAD_BYTES = 1 << 20

_LISTEN_BACKLOG = 128


def error_response(
    status: int,
    reason: str,
    retry_after: Optional[float] = None,
    **details,
) -> HttpResponse:
    """A well-formed local error: JSON ``{"error": reason, ...}`` body,
    plus ``Retry-After`` (whole seconds, >= 1) when a retry can
    plausibly succeed."""
    body = json.dumps(
        {"error": reason, **details}, sort_keys=True,
    ).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if retry_after is not None:
        headers["Retry-After"] = str(max(1, math.ceil(retry_after)))
    return HttpResponse(status=status, headers=headers, body=body)


def read_head(
    connection: socket.socket,
    idle_timeout: float,
    total_deadline: float,
    limit: int = MAX_HEAD_BYTES,
) -> bytes:
    """Read a request head under both an idle and a total deadline.

    ``idle_timeout`` bounds each recv (a *silent* client);
    ``total_deadline`` bounds the whole head, in seconds from now (a
    slowloris client that trickles one byte per recv and would otherwise
    pin its handler indefinitely).

    Raises:
        socket.timeout: either deadline expired before the blank line.
        HttpMessageError: the head grew past ``limit`` bytes.
    """
    deadline = _time.monotonic() + total_deadline
    chunks = bytearray()
    while b"\r\n\r\n" not in chunks and b"\n\n" not in chunks:
        remaining = deadline - _time.monotonic()
        if remaining <= 0:
            raise socket.timeout("request head read deadline exceeded")
        connection.settimeout(min(idle_timeout, remaining))
        chunk = connection.recv(4096)
        if not chunk:
            break
        chunks.extend(chunk)
        if len(chunks) > limit:
            raise HttpMessageError("request head too large")
    return bytes(chunks)


class HttpServer:
    """A threaded HTTP/1.0 server; subclasses say what to answer.

    Args:
        host, port: listen address (port 0 picks a free port).
        timeout: per-recv idle timeout while reading a request head.
        read_deadline: total seconds a client may take to deliver its
            head; defaults to ``timeout``.
        admission: the bounded pool's admission object (see the module
            docstring); ``None`` selects thread-per-connection.
        max_clients: worker threads in the bounded pool.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float,
        read_deadline: Optional[float] = None,
        admission=None,
        max_clients: int = 1,
    ) -> None:
        self.timeout = timeout
        self.read_deadline = read_deadline if read_deadline is not None else timeout
        self.admission = admission
        self.max_clients = max(1, max_clients)
        #: Well-formed requests parsed off the socket since start.
        self.request_count = 0
        self._count_lock = threading.Lock()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(_LISTEN_BACKLOG)
        self.address: Tuple[str, int] = self._listener.getsockname()
        self._acceptor: Optional[threading.Thread] = None
        self._workers: list = []
        self._pending: queue.Queue = queue.Queue()  # (connection, peer) | None

    # -- lifecycle ---------------------------------------------------------------

    def start(self):
        if self.admission is not None:
            self._workers = [
                threading.Thread(target=self._work, daemon=True)
                for _ in range(self.max_clients)
            ]
            for worker in self._workers:
                worker.start()
        self._acceptor = threading.Thread(target=self._accept, daemon=True)
        self._acceptor.start()
        return self

    def stop(self) -> None:
        """Stop accepting and wind the pool down; safe to call twice."""
        try:
            # Closing alone leaves a thread blocked in accept() asleep
            # (and the port answering) until the next connection arrives.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        if self._acceptor is not None:
            self._acceptor.join(timeout=2.0)
        for _ in self._workers:
            self._pending.put(None)
        for worker in self._workers:
            worker.join(timeout=2.0)
        self._workers = []

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- accept and dispatch -----------------------------------------------------

    def _accept(self) -> None:
        while True:
            try:
                connection, peer = self._listener.accept()
            except OSError:
                return  # stop() shut the listener down
            if self.admission is None:
                threading.Thread(
                    target=self._handle_connection,
                    args=(connection, peer[0]),
                    daemon=True,
                ).start()
            elif self.admission.try_admit():
                self._pending.put((connection, peer[0]))
            else:
                self._shed(connection)

    def _shed(self, connection: socket.socket) -> None:
        with connection:
            try:
                connection.settimeout(0.5)
                connection.sendall(self.shed_response().serialize())
            except OSError:  # pragma: no cover - client already gone
                pass

    def _work(self) -> None:
        for item in iter(self._pending.get, None):
            started = _time.monotonic()
            try:
                self._handle_connection(*item)
            finally:
                self.admission.release(_time.monotonic() - started)

    def _handle_connection(self, connection: socket.socket, peer: str) -> None:
        with connection:
            try:
                try:
                    request = HttpRequest.parse(
                        read_head(connection, self.timeout, self.read_deadline)
                    )
                except socket.timeout:
                    # Not a server error: the client never finished its head.
                    connection.sendall(self.client_timed_out(peer).serialize())
                    return
                except (HttpMessageError, OSError):
                    self.bad_request(peer)
                    return
                with self._count_lock:
                    self.request_count += 1
                self.reply(connection, request, peer)
            except OSError:  # pragma: no cover - client went away mid-reply
                pass

    # -- hooks -------------------------------------------------------------------

    def answer(self, request: HttpRequest, peer: str) -> HttpResponse:
        """The response to one parsed request."""
        raise NotImplementedError

    def reply(
        self, connection: socket.socket, request: HttpRequest, peer: str,
    ) -> None:
        """Write the answer to the socket.  Override only when the reply
        is not simply one whole response (fault injection)."""
        connection.sendall(self.answer(request, peer).serialize())

    def shed_response(self) -> HttpResponse:
        """What a connection refused by ``admission`` is told."""
        return error_response(
            503, "saturated",
            retry_after=self.admission.retry_after_seconds(),
        )

    def client_timed_out(self, peer: str) -> HttpResponse:
        """What a client whose head missed a read deadline is told."""
        return error_response(408, "client_read_timeout")

    def bad_request(self, peer: str) -> None:
        """A head that did not parse (or a reset); the connection is
        closed without a reply."""
