"""The caching proxy server.

A threaded HTTP/1.0 proxy implementing the paper's three cases for a client
request (Section 1):

1. fresh cached copy -> serve it (**hit**);
2. stale cached copy -> conditional GET to the origin; ``304`` refreshes
   the copy and serves it (**hit**), anything else replaces it (**miss**);
3. no copy -> fetch from the origin, cache if cacheable, serve (**miss**).

Eviction is whatever removal policy the :class:`~repro.proxy.store.ProxyStore`
was built with — by default SIZE, the paper's recommendation.  Responses
carry an ``X-Cache`` header (``HIT``/``REVALIDATED``/``MISS``) so clients
and tests can observe the path taken.

The server is overload-resilient (fleet PR):

* the socket side is :class:`repro.httpnet.server.HttpServer`: a
  **bounded worker pool** behind an
  :class:`~repro.proxy.overload.AdmissionController` (arrivals beyond
  the in-flight bound get an inline ``503 + Retry-After``), and request
  heads read under a **total deadline** so a slowloris client cannot pin
  a worker (``408``, counted as ``repro_proxy_client_timeouts_total``);
* under pressure the proxy degrades to **hit-only** service (fresh hits
  and stale copies still served; misses shed) before shedding outright;
* an ``X-Deadline-Ms`` budget on the request clamps every origin
  attempt and backoff wait (see :class:`repro.retry.Deadline`);
* every locally-generated 502/503 carries a machine-readable JSON body
  (``{"error": <reason>, ...}``) and — where a retry can help — a
  ``Retry-After`` header derived from breaker/saturation state.
"""

from __future__ import annotations

import dataclasses
import random
import threading
import time as _time
from typing import Callable, Optional, Tuple

from repro.httpnet.client import UpstreamClient
from repro.httpnet.message import (
    HttpMessageError,
    HttpRequest,
    HttpResponse,
    format_http_date,
    get_header,
    parse_http_date,
)
from repro.httpnet.server import HttpServer, error_response
from repro.obs import Obs
from repro.obs.catalog import proxy_metrics
from repro.obs.tracing import (
    TRACE_ID_HEADER,
    TraceContext,
    continue_trace,
    set_trace_header,
)
from repro.proxy.consistency import ConsistencyEstimator, Freshness
from repro.proxy.overload import AdmissionController, OverloadPolicy
from repro.proxy.store import CachedDocument, ProxyStore
from repro.retry import DEADLINE_HEADER, BreakerRegistry, Deadline, RetryPolicy
from repro.trace.clf import format_clf_line
from repro.trace.record import Request as TraceRequest, split_url

__all__ = ["OriginError", "ProxyStats", "CachingProxy", "METRICS_PATH"]

#: Local path on the proxy that serves the metrics registry in
#: Prometheus text format instead of being proxied.
METRICS_PATH = "/metrics"

#: The exposition content type (Prometheus text format 0.0.4).
_EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class OriginError(OSError):
    """A terminal origin-fetch failure (after retries), or a fast-fail
    from an open circuit breaker.  Subclasses :class:`OSError` so every
    pre-existing ``except OSError`` failure path still applies.

    Carries a machine-readable ``reason`` (the JSON error code clients
    see) and, when a retry could plausibly help, a ``retry_after`` hint
    in seconds (e.g. the breaker's time-to-next-probe).
    """

    def __init__(
        self,
        message: str,
        reason: str = "origin_unreachable",
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after = retry_after

#: Resolves a URL's host to a (address, port) the proxy should connect to.
#: Tests and demos point every host at a local toy origin.
Resolver = Callable[[str], Tuple[str, int]]


def _counter_property(name: str, doc: str) -> property:
    def read(self: "ProxyStats") -> int:
        return int(getattr(self.m, name).value)

    read.__doc__ = doc
    return property(read)


class ProxyStats:
    """Counters describing proxy behaviour since start.

    Backed by the ``repro_proxy_*`` families of an obs metrics registry
    (the same registry ``GET /metrics`` serves), with the historical int
    attributes kept as read-through properties so existing callers and
    tests keep reading plain ints.  Write sites go through :meth:`inc`.
    """

    def __init__(self, obs: Optional[Obs] = None) -> None:
        self.obs = obs if obs is not None else Obs.private()
        self.m = proxy_metrics(self.obs.registry)

    def inc(self, name: str, amount: int = 1) -> None:
        """Add to one of the unlabelled proxy counters by field name."""
        getattr(self.m, name).inc(amount)

    requests = _counter_property("requests", "Client requests handled.")
    hits = _counter_property("hits", "Fresh cached copies served.")
    revalidations = _counter_property(
        "revalidations", "Conditional GETs sent for stale copies.")
    revalidation_hits = _counter_property(
        "revalidation_hits",
        "Revalidations answered 304 (copy confirmed, a hit).")
    misses = _counter_property("misses", "Requests served from the origin.")
    errors = _counter_property(
        "errors", "Requests that failed (client or origin side).")
    bytes_from_cache = _counter_property(
        "bytes_from_cache", "Body bytes served from the store.")
    bytes_from_origin = _counter_property(
        "bytes_from_origin", "Body bytes fetched and cached from origins.")
    retries = _counter_property(
        "retries",
        "Origin fetch attempts retried after a transient failure.")
    stale_served = _counter_property(
        "stale_served",
        "Cached copies served because revalidation/refetch failed "
        "(stale-if-error; tagged ``X-Cache: STALE``).")
    breaker_open = _counter_property(
        "breaker_open",
        "Requests failed fast by an open per-origin circuit breaker.")
    client_timeouts = _counter_property(
        "client_timeouts",
        "Client connections dropped by the slowloris read deadline.")
    deadline_exhausted = _counter_property(
        "deadline_exhausted",
        "Origin work abandoned because the deadline budget ran out.")

    @property
    def hit_rate(self) -> float:
        """HR in percent, counting revalidated copies as hits (the paper's
        case (2) hit) and stale-if-error serves (still served from the
        cache, no origin transfer)."""
        if not self.requests:
            return 0.0
        served_from_cache = (
            self.hits + self.revalidation_hits + self.stale_served
        )
        return 100.0 * served_from_cache / self.requests


class CachingProxy(HttpServer):
    """A runnable HTTP/1.0 caching proxy.

    Args:
        store: the document store (capacity + removal policy).
        resolver: maps a requested host to the (address, port) to fetch
            from; defaults to connecting to the host itself.
        estimator: freshness heuristics for cached copies.
        host, port: listen address (port 0 picks a free port).
        clock: time source, injectable for tests.
        timeout: per-attempt origin socket timeout, seconds (also used
            when reading client requests).
        retry_policy: origin retry/backoff schedule; defaults to
            ``RetryPolicy(timeout=timeout)``.
        breakers: per-origin circuit breakers; pass a configured
            :class:`~repro.retry.BreakerRegistry` to tune thresholds.
        sleep: how backoff waits are performed (injectable for tests).
        overload: admission-control configuration (in-flight bound and
            the saturation ladder); defaults to a permissive
            :class:`~repro.proxy.overload.OverloadPolicy`.
        max_clients: worker threads in the bounded handler pool.
        read_deadline: total seconds a client may take to deliver its
            request head (the slowloris guard); defaults to ``timeout``.
    """

    def __init__(
        self,
        store: ProxyStore,
        resolver: Optional[Resolver] = None,
        estimator: Optional[ConsistencyEstimator] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        clock=_time.time,
        access_log=None,
        timeout: float = 5.0,
        retry_policy: Optional[RetryPolicy] = None,
        breakers: Optional[BreakerRegistry] = None,
        sleep=_time.sleep,
        obs: Optional[Obs] = None,
        overload: Optional[OverloadPolicy] = None,
        max_clients: int = 8,
        read_deadline: Optional[float] = None,
    ) -> None:
        self.store = store
        self.resolver = resolver if resolver is not None else self._default_resolver
        self.estimator = estimator if estimator is not None else ConsistencyEstimator()
        self.obs = obs if obs is not None else Obs.private()
        self.stats = ProxyStats(self.obs)
        self._channel = self.obs.channel("proxy")
        # Per-request store phase timing (lookup/evict/admit) into the
        # shared registry.  Attached *after* construction so journal
        # replay during recovery is never timed as live traffic.
        store.enable_phase_metrics(self.obs.registry)
        if store.recovery is not None:
            # A warm restart happened before we got the store; surface
            # what it recovered on the event stream and /metrics.
            recovery = store.recovery
            self.stats.m.store_recovered_documents.set(recovery.documents)
            self.stats.m.store_journal_tail_discarded.set(
                recovery.tail_discarded,
            )
            self._channel.info(
                "store.recovered",
                documents=recovery.documents,
                journal_replayed=recovery.journal_replayed,
                tail_discarded=recovery.tail_discarded,
            )
        super().__init__(
            host, port, timeout,
            read_deadline=read_deadline,
            admission=AdmissionController(
                overload, on_transition=self._on_mode_transition,
            ),
            max_clients=max_clients,
        )
        self.retry_policy = (
            retry_policy if retry_policy is not None
            else RetryPolicy(timeout=timeout)
        )
        self.breakers = breakers if breakers is not None else BreakerRegistry()
        self.breakers.on_transition = self._on_breaker_transition
        self._sleep = sleep
        self._retry_rng = random.Random(0)
        self._clock = clock
        #: Optional writable text stream receiving one common-log-format
        #: line per proxied request — so a running proxy produces exactly
        #: the trace format the simulator consumes.
        self.access_log = access_log
        self._log_lock = threading.Lock()
        #: Per-worker-thread trace context of the request in flight, so
        #: origin fetches deep in the call stack can continue the trace.
        self._trace_local = threading.local()
        #: Connections to origins (or a parent proxy) that grant keep-alive.
        self._upstream = UpstreamClient()

    def stop(self) -> None:
        super().stop()
        self._upstream.close()

    @staticmethod
    def _default_resolver(host: str) -> Tuple[str, int]:
        name, _, port = host.partition(":")
        return name, int(port) if port else 80

    # -- socket-server hooks ----------------------------------------------------------

    def answer(self, request: HttpRequest, peer: str) -> HttpResponse:
        return self.handle(request, client=peer)

    def shed_response(self) -> HttpResponse:
        self.stats.m.shed.labels(reason="saturated").inc()
        return super().shed_response()

    def client_timed_out(self, peer: str) -> HttpResponse:
        self.stats.inc("client_timeouts")
        self._channel.warning("client.timeout", peer=peer)
        return super().client_timed_out(peer)

    def bad_request(self, peer: str) -> None:
        self.stats.inc("errors")

    # -- the proxy decision procedure -------------------------------------------------

    def handle(self, request: HttpRequest, client: str = "-") -> HttpResponse:
        """Process one proxied request (socket-free core, used by tests).

        Never raises: any unexpected failure degrades to a well-formed
        502 so one bad request can never take a client connection (or a
        chaos replay) down with an unhandled exception.

        ``GET /metrics`` (a local path, not a proxied URL) is answered
        from the metrics registry *before* request accounting, so
        scrapes never perturb the hit rate they report.
        """
        if request.method == "GET" and request.url == METRICS_PATH:
            return self._metrics_response()
        self.stats.inc("requests")
        ctx, traced = continue_trace(self.obs, "proxy.request", request)
        try:
            with traced as span:
                self._trace_local.ctx = ctx
                self._trace_local.span = span
                try:
                    response = self._dispatch(request)
                finally:
                    self._trace_local.ctx = None
                    self._trace_local.span = None
        except Exception:
            self.stats.inc("errors")
            response = error_response(502, "internal_error")
        response.headers.setdefault(TRACE_ID_HEADER, ctx.trace_id)
        self._log_access(request, response, client)
        return response

    def _dispatch(self, request: HttpRequest) -> HttpResponse:
        if not request.url.startswith("http://"):
            self.stats.inc("errors")
            return HttpResponse(status=400)
        # The propagated budget, when the request carries a usable one.
        deadline = Deadline.from_header(
            get_header(request.headers, DEADLINE_HEADER)
        )
        hit_only = self.admission.mode != "full"
        if request.method in ("HEAD", "POST"):
            # Pass through uncached: HEAD carries no cacheable body and
            # POST responses are dynamic by definition (Section 1: only
            # static documents are cacheable).
            if hit_only:
                return self._shed_degraded()
            try:
                response = self._forward(request, deadline)
            except OSError as error:
                self.stats.inc("errors")
                return self._origin_error_response(error)
            self.stats.inc("misses")
            return self._tag(response, "PASS")
        if request.method != "GET":
            self.stats.inc("errors")
            return HttpResponse(status=501)
        now = self._clock()
        cached = self.store.get(request.url, now=now)
        if cached is not None:
            verdict = self.estimator.evaluate(
                now, cached.fetched_at, cached.last_modified, cached.expires,
            )
            if verdict is Freshness.FRESH:
                self.stats.inc("hits")
                self.stats.inc("bytes_from_cache", cached.size)
                return self._respond_from(cached, "HIT")
            if hit_only:
                # Degraded: we hold a copy; serving it stale beats
                # queueing an origin round-trip behind the backlog.
                return self._serve_stale(cached)
            return self._revalidate(request, cached, now, deadline)
        if hit_only:
            return self._shed_degraded()
        return self._fetch_and_cache(request, now, deadline)

    def _shed_degraded(self) -> HttpResponse:
        """Refuse origin-bound work while on the degraded ladder."""
        self.stats.m.shed.labels(reason="degraded").inc()
        span = getattr(self._trace_local, "span", None)
        if span is not None:
            span.event("shed", reason="degraded", mode=self.admission.mode)
        return error_response(
            503, "degraded",
            retry_after=self.admission.retry_after_seconds(),
        )

    def _log_access(
        self, request: HttpRequest, response: HttpResponse, client: str
    ) -> None:
        if self.access_log is None:
            return
        record = TraceRequest(
            timestamp=max(0.0, self._clock()),
            url=request.url,
            size=len(response.body),
            status=response.status,
            client=client or "-",
        )
        line = format_clf_line(record, epoch=0.0, method=request.method)
        with self._log_lock:
            self.access_log.write(line + "\n")

    # -- cases (2) and (3) -------------------------------------------------------------

    def _revalidate(
        self,
        request: HttpRequest,
        cached: CachedDocument,
        now: float,
        deadline: Optional[Deadline] = None,
    ) -> HttpResponse:
        self.stats.inc("revalidations")
        conditional = HttpRequest(
            method="GET",
            url=request.url,
            headers=dict(request.headers),
        )
        if cached.last_modified is not None:
            conditional.headers["If-Modified-Since"] = format_http_date(
                cached.last_modified
            )
        try:
            origin_response = self._forward(conditional, deadline)
        except OSError:
            # Stale-if-error: the origin is unreachable, but we still
            # hold a copy — serving it beats erroring (availability over
            # strict consistency, the deployed-proxy tradeoff).
            return self._serve_stale(cached)
        if origin_response.status >= 500:
            # The origin answered but is unhealthy; same tradeoff.
            return self._serve_stale(cached)
        if origin_response.status == 304:
            # Copy confirmed consistent: refresh and serve it (a hit).
            self.stats.inc("revalidation_hits")
            self.stats.inc("bytes_from_cache", cached.size)
            refreshed = dataclasses.replace(cached, fetched_at=now)
            self.store.put(refreshed, now=now)
            return self._respond_from(refreshed, "REVALIDATED")
        # Document changed (or revalidation unsupported): treat as miss.
        self.stats.inc("misses")
        self.store.invalidate(request.url)
        self._maybe_cache(request.url, origin_response, now)
        return self._tag(origin_response, "MISS")

    def _serve_stale(self, cached: CachedDocument) -> HttpResponse:
        """Serve a cached copy we could not revalidate (stale-if-error)."""
        self.stats.inc("stale_served")
        self.stats.inc("bytes_from_cache", cached.size)
        self._channel.warning("stale.served", url=cached.url)
        return self._respond_from(cached, "STALE")

    def _fetch_and_cache(
        self,
        request: HttpRequest,
        now: float,
        deadline: Optional[Deadline] = None,
    ) -> HttpResponse:
        try:
            origin_response = self._forward(request, deadline)
        except OSError as error:
            self.stats.inc("errors")
            return self._origin_error_response(error)
        self.stats.inc("misses")
        self._maybe_cache(request.url, origin_response, now)
        return self._tag(origin_response, "MISS")

    def _maybe_cache(
        self, url: str, response: HttpResponse, now: float
    ) -> None:
        if response.status != 200 or not response.body:
            return
        if "?" in url:
            return  # dynamically created documents cannot be cached (§1)
        self.stats.inc("bytes_from_origin", len(response.body))
        expires = None
        expires_header = get_header(response.headers, "Expires")
        if expires_header:
            try:
                expires = parse_http_date(expires_header)
            except HttpMessageError:
                expires = None
        self.store.put(CachedDocument(
            url=url,
            body=response.body,
            status=response.status,
            content_type=response.content_type,
            fetched_at=now,
            last_modified=response.last_modified,
            expires=expires,
        ), now=now)

    # -- plumbing -----------------------------------------------------------------------

    def _origin_error_response(self, error: OSError) -> HttpResponse:
        """Map a terminal origin failure to its client-facing 502."""
        return error_response(
            502,
            getattr(error, "reason", "origin_unreachable"),
            retry_after=getattr(error, "retry_after", None),
            detail=str(error),
        )

    def _on_mode_transition(self, old: str, new: str) -> None:
        self._channel.warning("overload.mode", old=old, new=new)

    def _metrics_response(self) -> HttpResponse:
        """``GET /metrics``: the registry in Prometheus text format.

        Store occupancy gauges are set at scrape time (they describe
        current state, not a stream of increments); the store-journal
        counters are brought up to date the same way, by adding the
        delta the store accumulated since the last scrape."""
        self.stats.m.store_used_bytes.set(self.store.used_bytes)
        self.stats.m.store_documents.set(len(self.store))
        self.stats.m.store_max_used_bytes.set(self.store.max_used_bytes)
        capacity = self.store.capacity
        self.stats.m.store_occupancy_ratio.set(
            self.store.used_bytes / capacity if capacity else 0.0
        )
        appends = self.store.stats.journal_appends
        errors = self.store.stats.journal_errors
        behind = appends - int(self.stats.m.store_journal_appends.value)
        if behind > 0:
            self.stats.m.store_journal_appends.inc(behind)
        behind = errors - int(self.stats.m.store_journal_errors.value)
        if behind > 0:
            self.stats.m.store_journal_errors.inc(behind)
        self.stats.m.degraded_mode.set(self.admission.mode_index())
        for mode, seconds in self.admission.flush_mode_seconds().items():
            # Time in "full" is healthy service, not degradation, and
            # counting it would make idle scrapes non-reproducible.
            if mode != "full" and seconds > 0:
                self.stats.m.degraded_seconds.labels(mode=mode).inc(seconds)
        return HttpResponse(
            status=200,
            headers={"Content-Type": _EXPOSITION_CONTENT_TYPE},
            body=self.obs.registry.render().encode("utf-8"),
        )

    def _on_breaker_transition(self, host: str, old: str, new: str) -> None:
        self.stats.m.breaker_transitions.labels(state=new).inc()
        self._channel.warning(
            "breaker.transition", host=host, old=old, new=new,
        )

    def _deadline_exhausted(self, host: str, url: str) -> OriginError:
        self.stats.inc("deadline_exhausted")
        self._channel.warning("deadline.exhausted", host=host, url=url)
        return OriginError(
            f"deadline budget exhausted fetching {url}",
            reason="deadline_exhausted",
        )

    def _forward(
        self, request: HttpRequest, deadline: Optional[Deadline] = None,
    ) -> HttpResponse:
        """Fetch from the origin with retries, behind its circuit breaker.

        When the request carries a deadline budget, every attempt's
        socket timeout is clamped to the remaining budget and the retry
        loop gives up (rather than sleeping a backoff) once the budget
        cannot cover another attempt — a tier must never retry past the
        point where its caller has already timed out.

        Raises:
            OriginError: breaker open, deadline exhausted, or every
                attempt failed (refused, timed out, reset, closed with
                no response, or returned malformed bytes, a body that
                disagrees with its declared length, or one too large).
        """
        host = split_url(request.url)[0]
        breaker = self.breakers.for_host(host)
        now = self._clock()
        if not breaker.allow(now):
            self.stats.inc("breaker_open")
            self._channel.warning("breaker.fastfail", host=host)
            raise OriginError(
                f"circuit breaker open for {host}",
                reason="breaker_open",
                retry_after=breaker.retry_after(now),
            )
        policy = self.retry_policy
        # Continue the in-flight request's trace toward the origin (or
        # start one: direct callers without a handler context get a
        # fresh root), and stamp the outbound request so an
        # instrumented origin can join the same tree.
        parent = getattr(self._trace_local, "ctx", None)
        fetch_ctx = (
            parent.child() if parent is not None else TraceContext.root()
        )
        set_trace_header(request.headers, fetch_ctx)
        fetch_start = _time.perf_counter()
        with self.obs.span(
            "proxy.origin_fetch",
            url=request.url,
            trace_id=fetch_ctx.trace_id,
            ctx=fetch_ctx.span_id,
            parent_ctx=parent.span_id if parent is not None else None,
        ) as span:
            for retry_index in range(policy.attempts):
                attempt_timeout = self.timeout
                if deadline is not None:
                    remaining = deadline.remaining()
                    if remaining <= 0:
                        raise self._deadline_exhausted(host, request.url)
                    attempt_timeout = min(attempt_timeout, remaining)
                try:
                    response = self._upstream.request(
                        self.resolver(host), request, timeout=attempt_timeout,
                    )
                except (OSError, ValueError) as error:
                    # ValueError: not HTTP, a body that disagrees with
                    # its declared length, or one past the client's cap.
                    if retry_index >= policy.max_retries:
                        breaker.record_failure(self._clock())
                        self.stats.m.origin_fetch_seconds.observe(
                            _time.perf_counter() - fetch_start,
                            exemplar=fetch_ctx.trace_id,
                        )
                        self._channel.warning(
                            "origin.failed", host=host, url=request.url,
                            attempts=policy.attempts, error=str(error),
                        )
                        raise OriginError(
                            f"origin fetch failed after {policy.attempts} "
                            f"attempt(s): {error}"
                        ) from error
                    delay = policy.delay(retry_index, self._retry_rng)
                    if deadline is not None and delay >= deadline.remaining():
                        raise self._deadline_exhausted(host, request.url)
                    self.stats.inc("retries")
                    self._channel.warning(
                        "origin.retry", host=host, url=request.url,
                        attempt=retry_index + 1, error=str(error),
                    )
                    if span is not None:
                        span.event(
                            "retry", attempt=retry_index + 1,
                            error=str(error),
                        )
                    self._sleep(delay)
                else:
                    breaker.record_success()
                    self.stats.m.origin_fetch_seconds.observe(
                        _time.perf_counter() - fetch_start,
                        exemplar=fetch_ctx.trace_id,
                    )
                    return response
        raise AssertionError("unreachable")  # pragma: no cover

    @staticmethod
    def _respond_from(cached: CachedDocument, tag: str) -> HttpResponse:
        headers = {"Content-Type": cached.content_type, "X-Cache": tag}
        if cached.last_modified is not None:
            headers["Last-Modified"] = format_http_date(cached.last_modified)
        return HttpResponse(status=200, headers=headers, body=cached.body)

    @staticmethod
    def _tag(response: HttpResponse, tag: str) -> HttpResponse:
        response.headers["X-Cache"] = tag
        return response
