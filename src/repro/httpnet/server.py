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
  ``release(seconds)``, ``retry_after_seconds()`` and, optionally,
  ``policy.max_inflight``.
* **thread per connection** (no admission object) — every connection
  gets its own thread and nothing is ever shed (the toy origin; see
  :class:`repro.proxy.origin.OriginServer` for why).

A head that misses either of :func:`read_head`'s two deadlines is
answered with ``408 client_read_timeout``.

**Persistent connections.**  A GET or HEAD that asks for ``Connection:
keep-alive`` (the tiers' own :class:`~repro.httpnet.client.UpstreamClient`
does; a one-shot client does not) is granted it when the default
:meth:`HttpServer.reply` wrote one whole response and fewer than the
admission bound's worth of connections are held open.  A held connection
has a thread of its own that waits for the next request *outside*
admission: admission is per request, so the thread calls ``try_admit()``
when the next head's first byte arrives (refused: the same inline 503,
then close), reads the head under the same two deadlines, and
calls ``release()`` when the reply is written — pool workers and admission
slots are never pinned by an idle upstream socket.  A connection idle
for ``timeout`` seconds is closed without a word, and :meth:`stop`
closes them all.
"""

from __future__ import annotations

import json
import math
import queue
import socket
import threading
import time as _time
from typing import Optional, Set, Tuple

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
        timeout: per-recv idle timeout while reading a request head;
            also how long a connection granted keep-alive may sit idle.
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
        #: (connection, peer) from the acceptor to a worker; None stops one.
        self._pending: queue.SimpleQueue = queue.SimpleQueue()
        #: Connections granted keep-alive, open until they idle out, the
        #: peer closes, a reply goes without a grant, or ``stop()``.
        self._held: Set[socket.socket] = set()
        self._held_lock = threading.Lock()
        #: At most this many are held (past it a reply omits the grant):
        #: the admission policy's in-flight bound.  No admission object,
        #: or one with no policy to ask, means no bound — as the threads
        #: of thread-per-connection mode never had one.
        policy = getattr(admission, "policy", None)
        self._max_held = policy.max_inflight if policy is not None else math.inf
        self._stopping = False

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
        """Stop accepting, wind the pool down and close the connections
        held open for keep-alive; safe to call twice."""
        with self._held_lock:
            self._stopping = True  # no grant from here on
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
        # A held connection would go on answering from a stopped server.
        # Ending its read side wakes an idle thread at once (it closes)
        # and lets one in mid-reply finish first.
        with self._held_lock:
            held = list(self._held)
        for connection in held:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # its thread closed it meanwhile

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
                    target=self._serve_connection,
                    args=(connection, peer[0]),
                    daemon=True,
                ).start()
            elif self.admission.try_admit():
                self._pending.put((connection, peer[0]))
            else:
                self._shed(connection)

    def _shed(self, connection: socket.socket) -> None:
        try:
            connection.settimeout(0.5)
            connection.sendall(self.shed_response().serialize())
        except OSError:  # pragma: no cover - client already gone
            pass
        finally:
            self._close(connection)

    def _work(self) -> None:
        for connection, peer in iter(self._pending.get, None):
            if self._serve_admitted(connection, peer):
                # Keep-alive granted: what follows on this connection is
                # served from a thread of its own, not from the pool.
                threading.Thread(
                    target=self._serve_held,
                    args=(connection, peer),
                    daemon=True,
                ).start()

    def _serve_connection(self, connection: socket.socket, peer: str) -> None:
        """Thread-per-connection mode: the connection's thread serves
        every request it carries."""
        if self._serve_one(connection, peer):
            self._serve_held(connection, peer)

    def _serve_held(self, connection: socket.socket, peer: str) -> None:
        """Every request after the first on a connection that was granted
        keep-alive; admission is asked per request, as each one arrives."""
        admission = self.admission
        while self._next_request_arrived(connection):
            if admission is None:
                kept = self._serve_one(connection, peer)
            elif admission.try_admit():
                kept = self._serve_admitted(connection, peer)
            else:
                try:
                    # Closing over an unread request would reset the
                    # connection under the 503; take what has arrived.
                    connection.recv(4096)
                except OSError:
                    pass
                self._shed(connection)
                return
            if not kept:
                return
        self._close(connection)

    def _next_request_arrived(self, connection: socket.socket) -> bool:
        """Wait, outside admission, for the first byte of another request;
        false when the connection idled out, the peer closed it, or the
        server is stopping."""
        try:
            connection.settimeout(self.timeout)
            return (
                bool(connection.recv(1, socket.MSG_PEEK))
                and not self._stopping
            )
        except OSError:
            return False

    def _serve_admitted(self, connection: socket.socket, peer: str) -> bool:
        started = _time.monotonic()
        try:
            return self._serve_one(connection, peer)
        finally:
            self.admission.release(_time.monotonic() - started)

    def _serve_one(self, connection: socket.socket, peer: str) -> bool:
        """Read one request and answer it.  True when the connection was
        granted keep-alive and stays open; otherwise it is closed here."""
        kept = False
        try:
            try:
                request = HttpRequest.parse(
                    read_head(connection, self.timeout, self.read_deadline)
                )
            except socket.timeout:
                # Not a server error: the client never finished its head.
                connection.sendall(self.client_timed_out(peer).serialize())
                return False
            except (HttpMessageError, OSError):
                self.bad_request(peer)
                return False
            with self._count_lock:
                self.request_count += 1
            kept = bool(self.reply(connection, request, peer))
        except OSError:  # pragma: no cover - client went away mid-reply
            pass
        finally:
            if not kept:
                self._close(connection)
        return kept

    def _grant(self, connection: socket.socket, request: HttpRequest) -> bool:
        """Whether the reply to ``request`` may promise keep-alive: it was
        asked for, the request is one whose end we can see (no body, so
        nothing after the head is mistaken for the next request), and
        the bound on held connections has room."""
        if (
            request.method not in ("GET", "HEAD") or request.body
            or request.headers.get("connection", "").lower() != "keep-alive"
        ):
            return False
        with self._held_lock:
            if connection not in self._held:
                if self._stopping or len(self._held) >= self._max_held:
                    return False
                self._held.add(connection)
        return True

    def _close(self, connection: socket.socket) -> None:
        with self._held_lock:
            self._held.discard(connection)
        connection.close()

    # -- hooks -------------------------------------------------------------------

    def answer(self, request: HttpRequest, peer: str) -> HttpResponse:
        """The response to one parsed request."""
        raise NotImplementedError

    def reply(
        self, connection: socket.socket, request: HttpRequest, peer: str,
    ) -> Optional[bool]:
        """Write the answer to the socket; true when it promised the
        client keep-alive.  Override only when the reply is not simply
        one whole response (fault injection) — an override that returns
        nothing never keeps a connection open."""
        response = self.answer(request, peer)
        kept = self._grant(connection, request)
        if kept:
            response.headers["Connection"] = "keep-alive"
        connection.sendall(response.serialize())
        return kept

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
