"""The fleet front tier: rendezvous routing with failover.

URLs map to shards by **rendezvous (highest-random-weight) hashing**:
every (url, shard) pair gets a stable pseudo-random score and the
request goes to the highest-scoring *live* shard.  The properties the
fleet needs fall out directly:

* deterministic — the same URL always prefers the same shard, so each
  shard's cache sees a stable working set (the paper's locality carries
  over per shard);
* minimal reshuffle — when a shard dies, only *its* URLs move (each to
  its second-choice shard); every other URL stays put, unlike modulo
  hashing where one death reshuffles nearly everything;
* built-in failover order — the full score ranking *is* the preference
  list, so the router retries down it without any extra state.

The :class:`FleetRouter` is itself an overload-aware server (the same
:class:`~repro.proxy.overload.AdmissionController` ladder the shards
use): saturation at the front door sheds with ``503 + Retry-After``
rather than stacking requests onto a struggling fleet.  Every forwarded
request is stamped with its remaining deadline budget
(``X-Deadline-Ms``) so shard retries cannot outlive the client.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time as _time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.httpnet.client import UpstreamClient
from repro.httpnet.message import (
    HttpMessageError,
    HttpRequest,
    HttpResponse,
    get_header,
)
from repro.httpnet.server import HttpServer, error_response
from repro.obs import Obs
from repro.obs.catalog import fleet_metrics
from repro.obs.tracing import (
    TRACE_ID_HEADER,
    TraceContext,
    continue_trace,
    set_trace_header,
)
from repro.proxy.overload import AdmissionController, OverloadPolicy
from repro.proxy.server import METRICS_PATH, _EXPOSITION_CONTENT_TYPE
from repro.retry import DEADLINE_HEADER, Deadline

__all__ = [
    "rendezvous_score",
    "rendezvous_rank",
    "StaticDirectory",
    "FleetRouter",
    "STATUS_PATH",
    "TELEMETRY_PATH",
]

#: Local router path answering a JSON fleet-status document.
STATUS_PATH = "/fleet/status"

#: Local router path answering the aggregated fleet telemetry document.
TELEMETRY_PATH = "/fleet/telemetry"

_FLEET_PATHS = (STATUS_PATH, TELEMETRY_PATH)


def rendezvous_score(url: str, shard_id: int) -> int:
    """The stable pseudo-random weight of placing ``url`` on ``shard_id``.

    ``blake2b`` (not ``hash()``) so the mapping is identical across
    processes and runs — shard processes, the router, and offline
    analysis must all agree where a URL lives.
    """
    digest = hashlib.blake2b(
        f"{shard_id}\x00{url}".encode("utf-8"), digest_size=8,
    ).digest()
    return int.from_bytes(digest, "big")


def rendezvous_rank(url: str, shard_ids: Sequence[int]) -> List[int]:
    """Shards ordered most- to least-preferred for ``url``.

    Position 0 is the home shard; the rest is the failover order.
    """
    return sorted(
        shard_ids,
        key=lambda sid: rendezvous_score(url, sid),
        reverse=True,
    )


class StaticDirectory:
    """A fixed shard map (id -> address) for tests and ad-hoc routing.

    The live fleet uses :class:`~repro.proxy.fleet.FleetSupervisor` as
    its directory; this one never restarts anything — ``report_failure``
    just drops the shard from the live set.
    """

    def __init__(self, shards: Dict[int, Tuple[str, int]]) -> None:
        self._shards = dict(shards)
        self._lock = threading.Lock()
        self._down: set = set()

    def ids(self) -> List[int]:
        return sorted(self._shards)

    def address_of(self, shard_id: int) -> Optional[Tuple[str, int]]:
        with self._lock:
            if shard_id in self._down:
                return None
        return self._shards.get(shard_id)

    def report_failure(self, shard_id: int) -> None:
        with self._lock:
            self._down.add(shard_id)

    def revive(self, shard_id: int) -> None:
        with self._lock:
            self._down.discard(shard_id)


class FleetRouter(HttpServer):
    """The fleet's client-facing server: admit, rank, forward, fail over.

    Args:
        directory: where shards live — anything with ``ids()``,
            ``address_of(shard_id)`` and ``report_failure(shard_id)``
            (the supervisor, or a :class:`StaticDirectory`).
        host, port: listen address (port 0 picks a free port).
        shard_timeout: per-forward socket timeout toward one shard; also
            both the idle and the total deadline for a client's request
            head (a slower client is answered ``408``).
        default_budget: deadline budget (seconds) granted to requests
            that arrive without an ``X-Deadline-Ms`` header.
        overload: front-tier admission configuration.
        max_clients: worker threads in the bounded handler pool.
        telemetry: optional callable returning the aggregated telemetry
            document served at ``/fleet/telemetry`` (the
            :class:`~repro.obs.telemetry.TelemetryAggregator` provides
            one).

    ``/fleet/status`` serves the directory's ``status()`` when it has
    one (the supervisor does), else the shard ids.
    """

    def __init__(
        self,
        directory,
        host: str = "127.0.0.1",
        port: int = 0,
        shard_timeout: float = 5.0,
        default_budget: float = 10.0,
        overload: Optional[OverloadPolicy] = None,
        max_clients: int = 16,
        obs: Optional[Obs] = None,
        telemetry: Optional[Callable[[], dict]] = None,
    ) -> None:
        self.directory = directory
        self.shard_timeout = shard_timeout
        self.default_budget = default_budget
        self.obs = obs if obs is not None else Obs.private()
        self.m = fleet_metrics(self.obs.registry)
        self._channel = self.obs.channel("fleet")
        self.telemetry = telemetry
        #: Connections to the shards, kept open between requests.
        self._upstream = UpstreamClient()
        super().__init__(
            host, port, shard_timeout,
            admission=AdmissionController(overload),
            max_clients=max_clients,
        )

    def stop(self) -> None:
        super().stop()
        self._upstream.close()

    # -- socket-server hooks -----------------------------------------------------

    def answer(self, request: HttpRequest, peer: str) -> HttpResponse:
        return self.route(request)

    def shed_response(self) -> HttpResponse:
        self.m.shed.labels(tier="router").inc()
        self.m.requests.labels(outcome="shed").inc()
        return error_response(
            503, "router_saturated",
            retry_after=self.admission.retry_after_seconds(),
        )

    # -- routing -----------------------------------------------------------------

    def route(self, request: HttpRequest) -> HttpResponse:
        """Answer one client request (socket-free core, used by tests)."""
        if request.method == "GET" and request.url == METRICS_PATH:
            return self._metrics_response()
        if request.method == "GET" and request.url in _FLEET_PATHS:
            return self._fleet_response(request.url)
        ctx, traced = continue_trace(self.obs, "fleet.route", request)
        started = _time.perf_counter()
        with traced as span:
            response = self._route_with_failover(request, ctx, span)
        self.m.request_seconds.observe(
            _time.perf_counter() - started, exemplar=ctx.trace_id,
        )
        response.headers.setdefault(TRACE_ID_HEADER, ctx.trace_id)
        return response

    def _route_with_failover(
        self,
        request: HttpRequest,
        ctx: TraceContext,
        span=None,
    ) -> HttpResponse:
        deadline = self._deadline_for(request)
        ranked = rendezvous_rank(request.url, self.directory.ids())
        forwarded = HttpRequest(
            method=request.method,
            url=request.url,
            headers=dict(request.headers),
        )
        set_trace_header(forwarded.headers, ctx)
        attempted = 0
        for rank, shard_id in enumerate(ranked):
            address = self.directory.address_of(shard_id)
            if address is None:
                continue  # not live right now: next preference
            if deadline.expired():
                self.m.requests.labels(outcome="failed").inc()
                if span is not None:
                    span.event("deadline_exhausted", shard=shard_id)
                return error_response(503, "deadline_exhausted")
            forwarded.headers[DEADLINE_HEADER] = deadline.header_value()
            timeout = min(self.shard_timeout, max(0.05, deadline.remaining()))
            try:
                response = self._upstream.request(
                    address, forwarded, timeout=timeout,
                )
            except (OSError, HttpMessageError, ValueError) as error:
                # The shard is unreachable or spoke garbage: tell the
                # directory (the supervisor will health-check/restart
                # it) and fall through to the next preference.
                attempted += 1
                self.directory.report_failure(shard_id)
                self._channel.warning(
                    "route.failover", shard=shard_id, rank=rank,
                    url=request.url, error=str(error),
                )
                if span is not None:
                    span.event(
                        "failover", shard=shard_id, rank=rank,
                        error=str(error),
                    )
                continue
            if rank > 0 or attempted > 0:
                self.m.failover.inc()
            if response.status == 503:
                self.m.shed.labels(tier="shard").inc()
                self.m.requests.labels(outcome="shed").inc()
                if span is not None:
                    span.event("shed", tier="shard", shard=shard_id)
            else:
                self.m.requests.labels(outcome="routed").inc()
            return response
        self.m.requests.labels(outcome="failed").inc()
        if span is not None:
            span.event("no_live_shard")
        return error_response(
            503, "no_live_shard", retry_after=1.0,
        )

    def _deadline_for(self, request: HttpRequest) -> Deadline:
        stamped = Deadline.from_header(
            get_header(request.headers, DEADLINE_HEADER)
        )
        if stamped is not None:
            return stamped
        return Deadline.after(self.default_budget)

    # -- local endpoints ---------------------------------------------------------

    def _metrics_response(self) -> HttpResponse:
        for mode, seconds in self.admission.flush_mode_seconds().items():
            if mode != "full" and seconds > 0:
                self.m.degraded_seconds.labels(mode=mode).inc(seconds)
        return HttpResponse(
            status=200,
            headers={"Content-Type": _EXPOSITION_CONTENT_TYPE},
            body=self.obs.registry.render().encode("utf-8"),
        )

    def _fleet_response(self, path: str) -> HttpResponse:
        """The directory's status or the telemetry document, as JSON."""
        if path == STATUS_PATH:
            status = getattr(self.directory, "status", None)
            doc = status() if status is not None else {
                "shards": self.directory.ids(),
            }
        elif self.telemetry is None:
            return error_response(404, "telemetry_not_configured")
        else:
            doc = self.telemetry()
        return HttpResponse(
            status=200,
            headers={"Content-Type": "application/json"},
            body=json.dumps(doc, sort_keys=True).encode("utf-8"),
        )
