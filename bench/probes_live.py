"""Layer probes run by the traced live workloads.

Three kinds: scrapes of a server that just served a pass (counts the
program keeps itself), probes against a warm probe server (router hop,
telemetry scrape), and in-process timing of public functions of one
layer (``httpnet``, ``durability``, ``proxy.store``, ``proxy.origin``,
``CachingProxy.handle``) on the workload's own documents.
"""

from __future__ import annotations

import re
import time
from typing import Callable, Dict, List, Sequence

import loadgen
from harness import Context, median, quantile

from repro.core import size_policy
from repro.durability import Journal, atomic_write_bytes
from repro.httpnet.client import fetch
from repro.httpnet.message import HttpRequest, HttpResponse
from repro.obs.telemetry import TelemetryAggregator
from repro.proxy import CachedDocument, CachingProxy, ProxyStore
from repro.proxy.origin import OriginServer
from repro.proxy.replay import TraceOriginSite
from repro.proxy.router import FleetRouter, StaticDirectory, rendezvous_rank

_SAMPLE = re.compile(r"^(repro_\w+?)(?:_total)? (\S+)$", re.MULTILINE)


def _timed_each(calls: Sequence[Callable[[], object]]) -> List[float]:
    clock = time.perf_counter
    seconds = []
    for call in calls:
        start = clock()
        call()
        seconds.append(clock() - start)
    return seconds


def _median_us(seconds: Sequence[float]) -> float:
    return 1e6 * median(seconds) if seconds else 0.0


def scrape_shards(ctx: Context, server) -> Dict[str, float]:
    """``GET /metrics`` on every shard that just served the traced pass:
    the proxy's own request counters (a scrape is not counted as a
    request) and what one scrape costs."""
    totals = {"repro_proxy_hits": 0.0, "repro_proxy_misses": 0.0,
              "repro_proxy_store_journal_appends": 0.0}
    seconds = []
    with ctx.tracer.span("obs.metrics.scrape", shards=len(server.shards)):
        for shard in server.shards:
            for _ in range(5):
                start = time.perf_counter()
                response = fetch(shard, "/metrics")
                seconds.append(time.perf_counter() - start)
            for name, value in _SAMPLE.findall(response.body.decode("utf-8")):
                if name in totals:
                    totals[name] += float(value)
    return {
        "proxy.server.hits": totals["repro_proxy_hits"],
        "proxy.server.misses": totals["repro_proxy_misses"],
        "proxy.server.journal_appends": totals["repro_proxy_store_journal_appends"],
        "obs.metrics.scrape_ms": 1e3 * median(seconds),
    }


def router_hop(ctx: Context, server, live, capacity: int) -> Dict[str, float]:
    """On a probe server: the smallest documents, as many as fit in half
    a shard (so SIZE never evicts one), fetched through the router and
    straight from their home shard, all hits; the difference of the
    medians is the hop."""
    tracer = ctx.tracer
    smallest, total = [], 0
    for item in sorted(set(live), key=lambda item: item[1])[:300]:
        total += item[1]
        if total > capacity // 2:
            break
        smallest.append(item)
    shard_ids = list(range(len(server.shards)))
    loadgen.closed_loop(server.target, smallest)  # make them resident

    with tracer.span("proxy.router.via_router", requests=len(smallest)):
        routed = loadgen.closed_loop(server.target, smallest)
    direct: List[float] = []
    with tracer.span("proxy.router.direct_to_shard", requests=len(smallest)):
        for url, size in smallest:
            home = server.shards[rendezvous_rank(url, shard_ids)[0]]
            direct += loadgen.closed_loop(home, [(url, size)]).hit_latencies
    if routed.hits != len(smallest) or len(direct) != len(smallest):
        raise RuntimeError("hop probe: the hit-only stream missed")

    router = FleetRouter(StaticDirectory(dict(enumerate(server.shards))))
    try:
        with tracer.span("proxy.router.route", requests=len(smallest)):
            routes = _timed_each([
                (lambda url=url: router.route(HttpRequest("GET", url)))
                for url, _ in smallest
            ])
    finally:
        router.stop()
    with tracer.span("proxy.router.rendezvous_rank"):
        ranks = _timed_each([
            (lambda url=url: rendezvous_rank(url, shard_ids)) for url, _ in live
        ])

    aggregator = TelemetryAggregator(StaticDirectory(dict(enumerate(server.shards))))
    with tracer.span("obs.telemetry.scrape_once"):
        rounds = _timed_each([aggregator.scrape_once] * 5)

    return {
        "proxy.router.hop_overhead_ms": 1e3 * (
            median(routed.hit_latencies) - median(direct)
        ),
        "proxy.router.route_us": _median_us(routes),
        "proxy.router.rank_us": _median_us(ranks),
        "obs.telemetry.scrape_once_ms": 1e3 * median(rounds),
    }


def httpnet(ctx: Context, live) -> Dict[str, float]:
    """Parse and serialise the messages this workload's requests carry."""
    sample = live[:400]
    requests = [HttpRequest("GET", url, headers={"Host": "bench"}).serialize()
                for url, _ in sample]
    responses = [
        HttpResponse(status=200, headers={
            "Content-Type": "application/octet-stream", "X-Cache": "HIT",
        }, body=b"x" * size)
        for _, size in sample
    ]
    wire = [response.serialize() for response in responses]
    with ctx.tracer.span("httpnet.messages", messages=len(sample)):
        parse_request = _timed_each(
            [(lambda data=data: HttpRequest.parse(data)) for data in requests])
        parse_response = _timed_each(
            [(lambda data=data: HttpResponse.parse(data)) for data in wire])
        serialize = _timed_each([response.serialize for response in responses])
    return {
        "httpnet.parse_request_us": _median_us(parse_request),
        "httpnet.parse_response_us": _median_us(parse_response),
        "httpnet.serialize_us": _median_us(serialize),
    }


def durability(ctx: Context) -> Dict[str, float]:
    """Journal appends with and without fsync, and one atomic write, in
    the scratch directory the workload's own journal lives in."""
    record = {"op": "put", "url": "http://bench/doc", "pad": "x" * 256}
    metrics = {}
    for label, fsync, appends in (("fsync", True, 300), ("nofsync", False, 3000)):
        journal = Journal(ctx.workdir / f"probe-{label}.jsonl", fsync=fsync,
                          truncate=True)
        try:
            with ctx.tracer.span("durability.journal_append", fsync=fsync):
                seconds = _timed_each([lambda: journal.append(record)] * appends)
        finally:
            journal.close()
        metrics[f"durability.journal_append_us.{label}"] = _median_us(seconds)
    payload = b"x" * 4096
    with ctx.tracer.span("durability.atomic_write"):
        seconds = _timed_each(
            [lambda: atomic_write_bytes(ctx.workdir / "probe-atomic", payload)] * 60)
    metrics["durability.atomic_write_ms"] = 1e3 * median(seconds)
    return metrics


def store_and_server(
    ctx: Context, spec: dict, inputs: dict, client_hit_p50_us: float,
) -> Dict[str, float]:
    """``ProxyStore`` puts and hit-gets, ``OriginServer.respond`` and
    ``CachingProxy.handle`` called in-process on the workload's first
    requests — no client socket, so the difference from the client's
    median hit is what the socket path adds."""
    tracer = ctx.tracer
    capacity = inputs["capacity"]
    head = inputs["live"][:600]
    documents = {url: size for url, size in head}
    metrics: Dict[str, float] = {}

    def fill(store: ProxyStore) -> List[float]:
        return _timed_each([
            (lambda url=url, size=size: store.put(
                CachedDocument(url=url, body=b"x" * size)))
            for url, size in documents.items()
        ])

    plain = ProxyStore(capacity, policy=size_policy(), seed=ctx.seed)
    with tracer.span("proxy.store.put", journaled=False):
        metrics["proxy.store.put_us"] = _median_us(fill(plain))
    resident = [url for url in documents if url in plain]
    with tracer.span("proxy.store.get", documents=len(resident)):
        metrics["proxy.store.get_hit_us"] = _median_us(_timed_each(
            [(lambda url=url: plain.get(url)) for url in resident]))

    if spec["journaled"]:
        journaled = ProxyStore(
            capacity, policy=size_policy(), seed=ctx.seed,
            state_dir=ctx.workdir / "probe-store", fsync=False,
        )
        with tracer.span("proxy.store.put", journaled=True):
            metrics["proxy.store.put_journaled_us"] = _median_us(fill(journaled))
        metrics["proxy.store.journal_bytes_per_put"] = (
            journaled.journal_path.stat().st_size / journaled.stats.insertions
        )

    site = TraceOriginSite()
    for url, size in documents.items():
        site.register(url, size)
    with OriginServer(site=site) as origin:
        with tracer.span("proxy.origin.respond", requests=len(head)):
            metrics["proxy.origin.respond_us"] = _median_us(_timed_each([
                (lambda url=url: origin.respond(HttpRequest("GET", url)))
                for url, _ in head
            ]))
        store = ProxyStore(
            capacity, policy=size_policy(), seed=ctx.seed, fsync=False,
            state_dir=(ctx.workdir / "probe-proxy") if spec["journaled"] else None,
        )
        proxy = CachingProxy(store, resolver=lambda host: origin.address)
        by_tag: Dict[str, List[float]] = {"HIT": [], "MISS": []}
        clock = time.perf_counter
        try:
            with tracer.span("proxy.server.handle", requests=len(head)):
                for url, _ in head:
                    start = clock()
                    response = proxy.handle(HttpRequest("GET", url))
                    elapsed = clock() - start
                    by_tag.setdefault(
                        response.headers.get("X-Cache", "?"), [],
                    ).append(elapsed)
                tracer.aggregate("proxy.server.handle.hit", len(by_tag["HIT"]),
                                 sum(by_tag["HIT"]))
                tracer.aggregate("proxy.server.handle.miss", len(by_tag["MISS"]),
                                 sum(by_tag["MISS"]))
        finally:
            proxy.stop()
    metrics["proxy.server.handle_hit_us"] = _median_us(by_tag["HIT"])
    metrics["proxy.server.handle_miss_us"] = _median_us(by_tag["MISS"])
    metrics["proxy.server.socket_overhead_us"] = (
        client_hit_p50_us - metrics["proxy.server.handle_hit_us"]
    )
    return metrics


def two_clients(ctx: Context, server, live) -> Dict[str, float]:
    """The same requests, closed loop, two clients (the gated runs use
    one: with two, hit counts drift and throughput is no higher)."""
    with ctx.tracer.span("proxy.server.two_clients", requests=len(live)):
        result = loadgen.closed_loop(server.target, live, clients=2)
    return {
        "proxy.server.two_client_req_per_s": len(result.latencies) / result.wall_s,
    }


def open_loop(ctx: Context, server, live) -> Dict[str, float]:
    """Open loop at 200 requests a second over two connections, timed
    from the due time, on the durable pass's requests (no body left out)
    against a server journaling with ``fsync=True`` — the whole-body
    journal put of a megabyte document stalls the shard, and this is
    where it shows.  Diagnostic, never gated: a stall is charged to every
    request due while it lasts, so the tail moves 10% and more from run
    to run."""
    head = live[:800]
    with ctx.tracer.span("proxy.loadgen.open_loop", rate=200, connections=2,
                         requests=len(head)):
        result = loadgen.open_loop(server.target, head, rate=200.0, connections=2)
    latencies, lateness = sorted(result.latencies), sorted(result.lateness)
    return {
        "proxy.loadgen.open_p50_ms": 1e3 * quantile(latencies, 0.50),
        "proxy.loadgen.open_p99_ms": 1e3 * quantile(latencies, 0.99),
        "proxy.loadgen.late_p99_ms": 1e3 * quantile(lateness, 0.99),
    }
