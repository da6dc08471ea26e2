"""A seeded open-loop load generator for the proxy fleet.

Drives the calibrated workload models (:mod:`repro.workloads`) through
real sockets at a controlled arrival rate, and classifies every outcome
so chaos runs can assert the fleet's overload contract: every request
gets a *well-formed* answer — a success, or an honest
``503 + Retry-After`` — never a hang and never a protocol-less reset.

The generator is **open-loop**: request ``i`` is launched at
``epoch + i / rate`` regardless of how the fleet is coping, which is
what makes "offered load at 2x capacity" a meaningful phrase (a
closed-loop client would politely slow down and hide the overload).
Determinism: the URL schedule comes from a seeded workload synthesis,
slow-client indices are chosen by the seeded fault plan *before* the
run, and per-index chaos triggers fire via ``on_index`` — so two runs
with one seed offer byte-identical traffic.
"""

from __future__ import annotations

import hashlib
import socket
import threading
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.httpnet.client import connect, request as _client_request
from repro.httpnet.message import HttpMessageError, HttpRequest, get_header
from repro.obs.metrics import sample_quantile
from repro.retry import DEADLINE_HEADER

__all__ = [
    "build_schedule",
    "schedule_checksum",
    "LoadOutcome",
    "LoadReport",
    "LoadGenerator",
]

#: Outcomes a request can land in.  ``ok`` and ``shed`` are the two
#: *well-formed* answers; everything else is a contract violation or
#: tolerated collateral (``client_error`` — a reset mid-kill).
OUTCOMES = (
    "ok", "shed", "failed", "malformed", "client_error", "hang",
    "slow_client",
)


def build_schedule(
    profile: str = "U",
    seed: int = 0,
    scale: float = 0.05,
    requests: int = 200,
) -> List[str]:
    """A deterministic URL schedule from one calibrated workload.

    The validated trace is cycled if shorter than ``requests`` so the
    schedule length is exactly what the caller asked for.
    """
    from repro.workloads.generator import generate_valid

    trace = generate_valid(profile, seed=seed, scale=scale)
    if not trace:
        raise ValueError(f"workload {profile!r} produced an empty trace")
    urls = [record.url for record in trace]
    return [urls[i % len(urls)] for i in range(requests)]


def schedule_checksum(urls: Sequence[str], rate: float, seed: int) -> str:
    """Fingerprint of the offered traffic (URLs + rate + seed)."""
    payload = "\n".join(urls) + f"\n@rate={rate!r}&seed={seed}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class LoadOutcome:
    """One request's fate."""

    index: int
    url: str
    outcome: str
    status: Optional[int] = None
    latency: float = 0.0


@dataclass
class LoadReport:
    """Aggregated classification of one generator run."""

    requests: int
    counts: Dict[str, int]
    latencies: List[float] = field(repr=False)
    wall_seconds: float = 0.0

    @property
    def well_formed(self) -> int:
        return self.counts.get("ok", 0) + self.counts.get("shed", 0)

    @property
    def offered(self) -> int:
        """Requests counting toward availability (slow-client probes are
        attack traffic, not offered load)."""
        return self.requests - self.counts.get("slow_client", 0)

    @property
    def availability_pct(self) -> float:
        if not self.offered:
            return 0.0
        return 100.0 * self.well_formed / self.offered

    def percentile(self, fraction: float) -> float:
        return sample_quantile(sorted(self.latencies), fraction)


class LoadGenerator:
    """Offer a URL schedule to one address at a fixed arrival rate.

    Args:
        address: the server (router or single proxy) to drive.
        urls: the schedule, one URL per request index.
        rate: arrivals per second (open loop).
        timeout: per-request client timeout; expiry is a **hang**, the
            outcome the fleet contract promises never happens.
        concurrency: worker threads launching requests.
        slow_indices: request indices performing a slow-client probe
            (trickled request head) instead of a real fetch.
        slow_hold: seconds a slow client stalls mid-request-head.
        deadline_ms: when set, stamp ``X-Deadline-Ms`` on every request.
        on_index: chaos hook called as each index *launches* — the chaos
            harness uses it to fire seeded shard kills/stalls; must
            return quickly.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        urls: Sequence[str],
        rate: float = 50.0,
        timeout: float = 10.0,
        concurrency: int = 16,
        slow_indices: FrozenSet[int] = frozenset(),
        slow_hold: float = 1.0,
        deadline_ms: Optional[int] = None,
        on_index: Optional[Callable[[int], None]] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.address = address
        self.urls = list(urls)
        self.rate = rate
        self.timeout = timeout
        self.concurrency = max(1, concurrency)
        self.slow_indices = slow_indices
        self.slow_hold = slow_hold
        self.deadline_ms = deadline_ms
        self.on_index = on_index
        self._lock = threading.Lock()
        self._next_index = 0
        self._results: List[LoadOutcome] = []

    # -- the run -----------------------------------------------------------------

    def run(self) -> LoadReport:
        started = _time.monotonic()
        epoch = started
        workers = [
            threading.Thread(target=self._work, args=(epoch,), daemon=True)
            for _ in range(self.concurrency)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        wall = _time.monotonic() - started
        counts = {outcome: 0 for outcome in OUTCOMES}
        latencies = []
        for result in self._results:
            counts[result.outcome] = counts.get(result.outcome, 0) + 1
            if result.outcome in ("ok", "shed"):
                latencies.append(result.latency)
        return LoadReport(
            requests=len(self.urls),
            counts=counts,
            latencies=latencies,
            wall_seconds=wall,
        )

    def _claim(self) -> Optional[int]:
        with self._lock:
            if self._next_index >= len(self.urls):
                return None
            index = self._next_index
            self._next_index += 1
            return index

    def _work(self, epoch: float) -> None:
        while True:
            index = self._claim()
            if index is None:
                return
            launch_at = epoch + index / self.rate
            delay = launch_at - _time.monotonic()
            if delay > 0:
                _time.sleep(delay)
            if self.on_index is not None:
                self.on_index(index)
            result = self._one(index, self.urls[index])
            with self._lock:
                self._results.append(result)

    def _one(self, index: int, url: str) -> LoadOutcome:
        if index in self.slow_indices:
            return self._slow_probe(index, url)
        headers = {}
        if self.deadline_ms is not None:
            headers[DEADLINE_HEADER] = str(self.deadline_ms)
        message = HttpRequest(method="GET", url=url, headers=headers)
        started = _time.monotonic()
        try:
            response = _client_request(
                self.address, message, timeout=self.timeout,
            )
        except socket.timeout:
            return LoadOutcome(index, url, "hang")
        except (OSError, ValueError):
            return LoadOutcome(index, url, "client_error")
        except HttpMessageError:
            return LoadOutcome(index, url, "malformed")
        latency = _time.monotonic() - started
        return self._classify(index, url, response, latency)

    @staticmethod
    def _classify(index, url, response, latency) -> LoadOutcome:
        status = response.status
        if 200 <= status < 300 or status == 304:
            return LoadOutcome(index, url, "ok", status, latency)
        if status == 503:
            retry_after = get_header(response.headers, "Retry-After") is not None
            # A 503 *without* Retry-After is a malformed shed: the
            # contract requires an honest backoff hint.
            outcome = "shed" if retry_after else "malformed"
            return LoadOutcome(index, url, outcome, status, latency)
        return LoadOutcome(index, url, "failed", status, latency)

    def _slow_probe(self, index: int, url: str) -> LoadOutcome:
        """Trickle a request head to exercise the slowloris guard.

        The *correct* server behaviour is to cut us off (408 or a plain
        close) — either way the probe records ``slow_client`` and never
        counts toward availability.
        """
        head = f"GET {url} HTTP/1.0\r\n".encode("ascii")
        try:
            with connect(self.address, self.timeout) as connection:
                connection.sendall(head[: len(head) // 2])
                _time.sleep(self.slow_hold)
                try:
                    connection.sendall(head[len(head) // 2:] + b"\r\n")
                    connection.settimeout(self.timeout)
                    while connection.recv(65536):
                        pass
                except OSError:
                    pass  # server cut the trickle: guard worked
        except OSError:
            pass
        return LoadOutcome(index, url, "slow_client")
