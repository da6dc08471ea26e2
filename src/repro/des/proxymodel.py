"""A queueing model of a caching proxy, for latency estimation.

The proxy is a single FIFO server.  Serving a request costs a fixed
per-request overhead plus transmission time at the proxy's link rate; a
miss additionally costs an origin round trip plus transfer at the (slower)
origin path rate.  Requests arrive at their trace timestamps, optionally
time-compressed so that queueing effects at the proxy become visible.

This is the extension experiment the paper could not run ("our traces have
insufficient information on timing ... we can only say that if HR and WHR
are high, and the proxy is not saturated, then the user will experience a
reduction in latency"): it turns a removal policy's HR/WHR into an
estimated mean response time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.core.cache import HIT, MISS, SimCache
from repro.des.engine import EventLoop
from repro.obs.metrics import sample_quantile
from repro.trace.compiled import compile_trace
from repro.trace.record import Request

__all__ = ["LatencyParameters", "LatencyReport", "estimate_latency"]


@dataclass(frozen=True)
class LatencyParameters:
    """Timing constants of the proxy/origin path.

    Defaults approximate a mid-90s campus: 10 Mb/s LAN to the proxy,
    ~128 kB/s effective Internet path to origins, 80 ms origin RTT.

    ``servers`` models the proxy's concurrency (worker processes /
    threads): requests queue FIFO for the first free worker, so raising
    it defers saturation without changing per-request service time.
    """

    proxy_overhead: float = 0.002
    proxy_bandwidth: float = 1_250_000.0   # bytes/second (10 Mb/s)
    origin_rtt: float = 0.080
    origin_bandwidth: float = 128_000.0    # bytes/second
    time_compression: float = 1.0          # >1 squeezes arrivals together
    servers: int = 1

    def __post_init__(self) -> None:
        if min(self.proxy_bandwidth, self.origin_bandwidth) <= 0:
            raise ValueError("bandwidths must be positive")
        if self.time_compression <= 0:
            raise ValueError("time_compression must be positive")
        if self.servers < 1:
            raise ValueError("servers must be at least 1")

    def service_time(self, size: int, hit: bool) -> float:
        """Proxy occupancy for one request."""
        total = self.proxy_overhead + size / self.proxy_bandwidth
        if not hit:
            total += self.origin_rtt + size / self.origin_bandwidth
        return total


@dataclass
class LatencyReport:
    """Latency statistics from one model run."""

    latencies: List[float] = field(default_factory=list)
    hits: int = 0
    requests: int = 0
    busy_time: float = 0.0
    makespan: float = 0.0
    servers: int = 1

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    @property
    def hit_rate(self) -> float:
        return 100.0 * self.hits / self.requests if self.requests else 0.0

    @property
    def utilisation(self) -> float:
        """Mean fraction of the run the proxy's workers were busy."""
        if not self.makespan:
            return 0.0
        return self.busy_time / (self.makespan * self.servers)

    def percentile(self, fraction: float) -> float:
        """Latency percentile (e.g. ``0.95``)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        return sample_quantile(sorted(self.latencies), fraction)


def estimate_latency(
    trace: Sequence[Request],
    cache: Optional[SimCache],
    parameters: LatencyParameters = LatencyParameters(),
) -> LatencyReport:
    """Run the queueing model over a valid trace.

    Args:
        trace: the valid request stream (timestamp order).
        cache: the proxy's cache, or ``None`` to model a cache-less proxy
            (every request is a miss) — the baseline for "transfer time
            avoided".
        parameters: path timing constants.

    The cache decision (hit or miss) is made at *arrival*, in trace order,
    so cache state evolution matches the trace-driven simulator exactly;
    the event loop then models queueing delay at the proxy.
    """
    import heapq

    loop = EventLoop()
    report = LatencyReport(servers=parameters.servers)
    # FIFO queue onto the first free worker: a min-heap of each worker's
    # next free time models c identical servers exactly.
    workers = [0.0] * parameters.servers
    heapq.heapify(workers)

    trace, codes = compile_trace(trace), bytearray()
    if cache is not None:
        # Arrivals reach the cache in trace order whatever the queueing,
        # so the whole trace is one run.
        cache.access_run(trace.urls, trace.sizes, trace.stamps, trace.types,
                         codes)
    else:
        codes = bytes([MISS]) * len(trace)
    for request, code in zip(trace, codes):
        arrival = request.timestamp / parameters.time_compression
        hit = code == HIT
        service = parameters.service_time(request.size, hit)
        report.requests += 1
        report.hits += hit

        def completed(arrival=arrival, service=service) -> None:
            # Latency = queueing delay + service.
            report.latencies.append(loop.now - arrival)

        free_at = heapq.heappop(workers)
        start = max(arrival, free_at)
        finish = start + service
        heapq.heappush(workers, finish)
        report.busy_time += service
        loop.schedule_at(finish, completed)

    loop.run()
    report.makespan = loop.now
    return report
