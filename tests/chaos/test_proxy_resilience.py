"""Resilience tests for the caching proxy under injected origin faults.

Covers the error paths directly (connection refused, hung origin,
malformed and truncated responses -> counted errors + well-formed 502),
the stale-if-error path, the per-origin circuit breaker, and the
end-to-end acceptance criterion: a 20% connection-drop plan replayed
through the full stack finishes with zero client-visible failures and a
hit rate within five points of the fault-free baseline.
"""

import json
import socket
import threading
from pathlib import Path

import pytest

from repro.faults import FaultKind, FaultPlan, FaultRule, FaultyOriginServer
from repro.httpnet.client import fetch
from repro.httpnet.message import HttpRequest, HttpResponse
from repro.proxy import CachingProxy, ConsistencyEstimator, ProxyStore
from repro.proxy.chaos import run_chaos
from repro.retry import BreakerRegistry, RetryPolicy
from repro.workloads import generate_valid

FAST_RETRY = RetryPolicy(
    timeout=0.3, max_retries=2, backoff_base=0.001, max_backoff=0.01,
)
NO_RETRY = RetryPolicy(timeout=0.3, max_retries=0)


def make_proxy(resolver, retry_policy=FAST_RETRY, **kwargs):
    proxy = CachingProxy(
        ProxyStore(capacity=512 * 1024),
        resolver=resolver,
        timeout=retry_policy.timeout,
        retry_policy=retry_policy,
        sleep=lambda seconds: None,  # retries must not slow the suite
        **kwargs,
    )
    return proxy


def dead_port():
    """A local port with no listener behind it."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class RawOrigin:
    """An 'origin' that accepts TCP and then misbehaves at the byte level.

    ``payload=None`` hangs (accepts and never responds) until closed;
    any bytes are sent verbatim and the connection closed.
    """

    def __init__(self, payload=None):
        self.payload = payload
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.address = self._listener.getsockname()
        self._open = []
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            if self.payload is None:
                self._open.append(connection)  # hold it open, say nothing
            else:
                try:
                    connection.sendall(self.payload)
                finally:
                    connection.close()

    def close(self):
        self._listener.close()
        for connection in self._open:
            connection.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def well_formed_502(response, reason=None):
    """The response is a real 502 a client could parse off the wire,
    carrying the machine-readable JSON reason body."""
    assert response.status == 502
    reparsed = HttpResponse.parse(response.serialize())
    assert reparsed.status == 502
    content_type = {
        name.lower(): value for name, value in reparsed.headers.items()
    }["content-type"]
    assert content_type == "application/json"
    body = json.loads(reparsed.body.decode("utf-8"))
    assert "error" in body
    if reason is not None:
        assert body["error"] == reason
    return True


class TestErrorPaths:
    """Satellite: every origin failure mode -> counted error + clean 502."""

    def test_connection_refused(self):
        port = dead_port()
        proxy = make_proxy(lambda host: ("127.0.0.1", port))
        try:
            response = proxy.handle(HttpRequest("GET", "http://gone.edu/a"))
            assert well_formed_502(response, reason="origin_unreachable")
            assert proxy.stats.errors == 1
            assert proxy.stats.retries == FAST_RETRY.max_retries
        finally:
            proxy.stop()

    def test_origin_hangs_past_timeout(self):
        with RawOrigin(payload=None) as origin:
            proxy = make_proxy(lambda host: origin.address, NO_RETRY)
            try:
                response = proxy.handle(
                    HttpRequest("GET", "http://slow.edu/a")
                )
                assert well_formed_502(response)
                assert proxy.stats.errors == 1
            finally:
                proxy.stop()

    def test_malformed_origin_response(self):
        with RawOrigin(payload=b"NOT HTTP AT ALL\r\n\r\n") as origin:
            proxy = make_proxy(lambda host: origin.address)
            try:
                response = proxy.handle(HttpRequest("GET", "http://bad.edu/a"))
                assert well_formed_502(response)
                assert proxy.stats.errors == 1
            finally:
                proxy.stop()

    def test_truncated_origin_response(self):
        payload = (
            b"HTTP/1.0 200 OK\r\nContent-Length: 100\r\n\r\nonly this"
        )
        with RawOrigin(payload=payload) as origin:
            proxy = make_proxy(lambda host: origin.address)
            try:
                response = proxy.handle(HttpRequest("GET", "http://cut.edu/a"))
                assert well_formed_502(response)
                assert proxy.stats.errors == 1
            finally:
                proxy.stop()

    def test_empty_origin_response(self):
        with RawOrigin(payload=b"") as origin:
            proxy = make_proxy(lambda host: origin.address)
            try:
                response = proxy.handle(HttpRequest("GET", "http://eof.edu/a"))
                assert well_formed_502(response)
                assert proxy.stats.errors == 1
            finally:
                proxy.stop()

    def test_502_reaches_a_real_client_intact(self):
        """Through live sockets, not just handle(): the client parses a
        complete 502 rather than seeing a reset or garbage."""
        with RawOrigin(payload=b"NOT HTTP AT ALL\r\n\r\n") as origin:
            proxy = make_proxy(lambda host: origin.address).start()
            try:
                response = fetch(
                    proxy.address, "http://bad.edu/a.html", timeout=5.0,
                )
                assert response.status == 502
            finally:
                proxy.stop()


class TestRetries:
    def test_transient_drops_are_absorbed(self):
        """Faults that fail fewer attempts than the retry budget never
        surface: the client sees a 200 MISS."""
        plan = FaultPlan(rules=(
            FaultRule(FaultKind.DROP, at=(0, 1)),  # first two attempts die
        ))
        origin = FaultyOriginServer(plan.injector()).start()
        proxy = make_proxy(lambda host: origin.address)
        try:
            response = proxy.handle(HttpRequest("GET", "http://a.edu/x.html"))
            assert response.status == 200
            assert response.headers["X-Cache"] == "MISS"
            assert proxy.stats.retries == 2
            assert proxy.stats.errors == 0
        finally:
            proxy.stop()
            origin.stop()


class TestStaleIfError:
    def stale_stack(self, plan):
        """A proxy over a faulty origin, with an injectable clock and a
        10-second pinned TTL so the second fetch must revalidate."""
        now = [1_000_000_000.0]
        origin = FaultyOriginServer(plan.injector()).start()
        proxy = make_proxy(
            lambda host: origin.address,
            estimator=ConsistencyEstimator(
                default_ttl=10.0, lm_factor=0.0, min_ttl=10.0, max_ttl=10.0,
            ),
            clock=lambda: now[0],
        )
        return now, origin, proxy

    def run_miss_then_stale(self, plan):
        now, origin, proxy = self.stale_stack(plan)
        try:
            url = "http://a.edu/doc.html"
            first = proxy.handle(HttpRequest("GET", url))
            assert first.headers["X-Cache"] == "MISS"
            now[0] += 3600.0  # the copy is now stale -> revalidation
            second = proxy.handle(HttpRequest("GET", url))
            assert second.headers["X-Cache"] == "STALE"
            assert second.status == 200
            assert second.body == first.body
            assert proxy.stats.stale_served == 1
            assert proxy.stats.errors == 0
            # A stale serve still came from the cache: it counts as a hit.
            assert proxy.stats.hit_rate == 50.0
        finally:
            proxy.stop()
            origin.stop()

    def test_dropped_revalidation_serves_stale(self):
        self.run_miss_then_stale(FaultPlan(rules=(
            FaultRule(FaultKind.DROP, conditional_only=True),
        )))

    def test_5xx_revalidation_serves_stale(self):
        self.run_miss_then_stale(FaultPlan(rules=(
            FaultRule(FaultKind.ERROR, conditional_only=True, status=500),
        )))

    def test_no_cached_copy_means_no_stale_fallback(self):
        """First-contact failures have nothing to fall back on: 502."""
        plan = FaultPlan(rules=(FaultRule(FaultKind.DROP),))
        now, origin, proxy = self.stale_stack(plan)
        try:
            response = proxy.handle(HttpRequest("GET", "http://a.edu/new"))
            assert response.status == 502
            assert proxy.stats.stale_served == 0
            assert proxy.stats.errors == 1
        finally:
            proxy.stop()
            origin.stop()


class TestCircuitBreaker:
    def test_breaker_opens_and_fast_fails(self):
        port = dead_port()
        now = [0.0]
        proxy = make_proxy(
            lambda host: ("127.0.0.1", port),
            NO_RETRY,
            breakers=BreakerRegistry(failure_threshold=2, reset_after=100.0),
            clock=lambda: now[0],
        )
        try:
            for i in range(2):
                proxy.handle(HttpRequest("GET", f"http://down.edu/{i}"))
            assert proxy.stats.breaker_open == 0
            assert proxy.breakers.open_hosts() == {"down.edu": "open"}
            # The third request never touches the socket layer.
            response = proxy.handle(HttpRequest("GET", "http://down.edu/2"))
            assert well_formed_502(response, reason="breaker_open")
            # The fast-fail tells the client when the next half-open
            # probe will be admitted.
            assert response.headers["Retry-After"] == "100"
            assert proxy.stats.breaker_open == 1
            assert proxy.stats.errors == 3
        finally:
            proxy.stop()

    def test_breaker_is_per_origin(self):
        """An open breaker for one host must not gate another."""
        port = dead_port()
        now = [0.0]
        proxy = make_proxy(
            lambda host: ("127.0.0.1", port),
            NO_RETRY,
            breakers=BreakerRegistry(failure_threshold=1, reset_after=100.0),
            clock=lambda: now[0],
        )
        try:
            proxy.handle(HttpRequest("GET", "http://down.edu/a"))
            proxy.handle(HttpRequest("GET", "http://other.edu/a"))
            assert set(proxy.breakers.open_hosts()) == {
                "down.edu", "other.edu",
            }
            # Both failed on their own sockets, neither fast-failed.
            assert proxy.stats.breaker_open == 0
        finally:
            proxy.stop()


class TestChaosAcceptance:
    """ISSUE acceptance: 20% of origin connections dropped, replayed
    end-to-end -> no unhandled exceptions, every request answered, HR
    within 5 points of the fault-free run."""

    @pytest.fixture(scope="class")
    def report(self):
        trace = generate_valid("BL", seed=1996, scale=0.02)
        plan = FaultPlan.basic(drop=0.2, seed=7)
        return run_chaos(trace, plan)

    def test_every_request_is_answered(self, report):
        faulted = report.faulted
        assert faulted.client_errors == 0
        assert (
            faulted.hits + faulted.revalidated + faulted.stale
            + faulted.misses == faulted.requests
        )
        assert faulted.requests == report.baseline.requests

    def test_faults_were_actually_injected(self, report):
        assert report.faults_injected.get("drop", 0) > 0

    def test_degradation_is_bounded(self, report):
        assert abs(report.degradation_points) < 5.0

    def test_retries_absorbed_the_faults(self, report):
        stats = report.faulted_stats
        assert stats.retries > 0
        # Whatever leaked past the retries surfaced as clean 502s/stales,
        # not exceptions.
        assert report.faulted.server_errors == stats.errors

    def test_report_serialises(self, report, tmp_path):
        path = tmp_path / "degradation.json"
        report.write(path)
        import json

        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["degradation_points"] == report.degradation_points
        assert record["plan"]["rules"][0]["kind"] == "drop"
        assert record["faulted"]["client_errors"] == 0

    def test_report_is_byte_identical_to_the_parents(self, report):
        """Recorded at ``1105716``, before the shard kept its origin
        connections open: the healthy baseline now reuses sockets, the
        faulty origin never grants one, and not a count may move."""
        fixture = (
            Path(__file__).resolve().parents[1]
            / "fixtures" / "chaos_report_parent.json"
        )
        assert (
            json.dumps(report.as_dict(), indent=1, sort_keys=True)
            == fixture.read_text(encoding="utf-8")
        )
