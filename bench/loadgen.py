"""The benchmark's own load driver.

Two loops over a fixed list of ``(url, size)`` requests, both through
the program's public HTTP/1.0 client (one connection per request, as
HTTP/1.0 has it):

* :func:`closed_loop` — each client sends its next request only after
  the previous reply is complete.  With one client the request order is
  the list's order, which is what lets a live hit count be compared
  with the simulator's exactly.
* :func:`open_loop` — request ``i`` is *due* at ``start + i / rate``
  whatever the server is doing; latency is timed **from the due time**
  (a stall is charged to every request it delays) and how late the
  driver itself ran is reported beside it.

``repro.proxy.loadgen.LoadGenerator`` times from the actual send and
cannot report lateness, which is why the benchmark does not use it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.httpnet.client import fetch
from repro.httpnet.message import HttpMessageError

Address = Tuple[str, int]
LiveRequest = Tuple[str, int]  # (url, expected body length)


@dataclass
class LoadResult:
    wall_s: float = 0.0
    #: Seconds per request in completion order per client (with one
    #: client: the order of the request list), failed ones included.
    latencies: List[float] = field(default_factory=list)
    #: Latencies of the requests answered ``X-Cache: HIT`` / anything else.
    hit_latencies: List[float] = field(default_factory=list)
    miss_latencies: List[float] = field(default_factory=list)
    #: Open loop only: seconds between due time and actual send.
    lateness: List[float] = field(default_factory=list)
    attempted: int = 0
    #: Non-200, wrong body length, timeout or any client-side error.
    failed: int = 0

    @property
    def hits(self) -> int:
        return len(self.hit_latencies)


def _one(address: Address, url: str, size: int, timeout: float):
    """Fetch one document; returns ``(ok, was_hit)``."""
    try:
        response = fetch(address, url, timeout=timeout)
    except (OSError, HttpMessageError, ValueError):
        return False, False
    ok = response.status == 200 and len(response.body) == size
    return ok, response.headers.get("x-cache") == "HIT"


def closed_loop(
    address: Address,
    requests: Sequence[LiveRequest],
    clients: int = 1,
    timeout: float = 10.0,
) -> LoadResult:
    """Drive ``requests`` with ``clients`` closed-loop clients."""
    result = LoadResult(attempted=len(requests))
    clock = time.perf_counter

    def drive(items, into: LoadResult) -> None:
        for url, size in items:
            start = clock()
            ok, hit = _one(address, url, size, timeout)
            elapsed = clock() - start
            into.latencies.append(elapsed)
            if not ok:
                into.failed += 1
                continue
            (into.hit_latencies if hit else into.miss_latencies).append(elapsed)

    started = clock()
    if clients == 1:
        drive(requests, result)
    else:
        # Clients share one cursor, so the list is served in order
        # overall but interleaved between them.
        cursor = iter(requests)
        lock = threading.Lock()

        def shared():
            while True:
                with lock:
                    item = next(cursor, None)
                if item is None:
                    return
                yield item

        parts = [LoadResult() for _ in range(clients)]
        threads = [
            threading.Thread(target=drive, args=(shared(), part))
            for part in parts
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for part in parts:
            result.failed += part.failed
            result.latencies += part.latencies
            result.hit_latencies += part.hit_latencies
            result.miss_latencies += part.miss_latencies
    result.wall_s = clock() - started
    return result


def open_loop(
    address: Address,
    requests: Sequence[LiveRequest],
    rate: float,
    connections: int = 2,
    timeout: float = 10.0,
) -> LoadResult:
    """Offer ``requests`` at ``rate`` per second over ``connections``
    concurrent senders, timing each from when it was due."""
    result = LoadResult(attempted=len(requests))
    clock = time.perf_counter
    lock = threading.Lock()
    cursor = iter(enumerate(requests))
    started = clock() + 0.05  # let every sender reach its first wait

    def send() -> None:
        while True:
            with lock:
                item = next(cursor, None)
            if item is None:
                return
            index, (url, size) = item
            due = started + index / rate
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            sent = clock()
            ok, _ = _one(address, url, size, timeout)
            done = clock()
            with lock:
                if ok:
                    result.latencies.append(done - due)
                    result.lateness.append(sent - due)
                else:
                    result.failed += 1

    threads = [threading.Thread(target=send) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall_s = clock() - started
    return result
