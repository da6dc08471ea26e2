"""Tests for the fleet front tier: rendezvous placement, failover
between live shards, deadline stamping, and the local endpoints."""

import json
import socket
import threading
import time

import pytest

from repro.httpnet.client import fetch
from repro.httpnet.message import HttpRequest, HttpResponse
from repro.proxy import CachingProxy, ProxyStore
from repro.proxy.origin import OriginServer, SyntheticSite
from repro.proxy.router import (
    STATUS_PATH,
    FleetRouter,
    StaticDirectory,
    rendezvous_rank,
    rendezvous_score,
)
from repro.proxy.server import METRICS_PATH
from repro.retry import DEADLINE_HEADER

URLS = [f"http://site-{i}.edu/doc-{i}.html" for i in range(64)]


class TestRendezvous:
    def test_scores_are_stable_across_calls(self):
        assert rendezvous_score(URLS[0], 1) == rendezvous_score(URLS[0], 1)
        assert rendezvous_score(URLS[0], 1) != rendezvous_score(URLS[0], 2)

    def test_rank_orders_every_shard(self):
        rank = rendezvous_rank(URLS[0], [0, 1, 2, 3])
        assert sorted(rank) == [0, 1, 2, 3]

    def test_placement_spreads_across_shards(self):
        homes = {rendezvous_rank(url, [0, 1, 2, 3])[0] for url in URLS}
        assert homes == {0, 1, 2, 3}

    def test_removal_reshuffles_only_the_dead_shards_urls(self):
        """The rendezvous property the fleet depends on: killing shard k
        moves k's URLs to their second choice and nothing else."""
        before = {url: rendezvous_rank(url, [0, 1, 2, 3]) for url in URLS}
        survivors = [0, 1, 3]
        for url, rank in before.items():
            after = rendezvous_rank(url, survivors)[0]
            if rank[0] != 2:
                assert after == rank[0]          # unaffected URL stays put
            else:
                expected = next(sid for sid in rank[1:] if sid != 2)
                assert after == expected         # moved to second choice


class TestStaticDirectory:
    def test_failure_and_revival(self):
        directory = StaticDirectory({0: ("h", 1), 1: ("h", 2)})
        assert directory.ids() == [0, 1]
        assert directory.address_of(0) == ("h", 1)
        directory.report_failure(0)
        assert directory.address_of(0) is None
        directory.revive(0)
        assert directory.address_of(0) == ("h", 1)


@pytest.fixture
def fleet_pair():
    """Two real shard proxies over one origin, behind a router."""
    origin = OriginServer(SyntheticSite()).start()
    shards = {}
    for shard_id in range(2):
        proxy = CachingProxy(
            ProxyStore(capacity=256 * 1024),
            resolver=lambda host: origin.address,
            timeout=2.0,
        ).start()
        shards[shard_id] = proxy
    directory = StaticDirectory(
        {sid: proxy.address for sid, proxy in shards.items()}
    )
    router = FleetRouter(
        directory, shard_timeout=2.0, default_budget=5.0,
    ).start()
    try:
        yield origin, shards, directory, router
    finally:
        router.stop()
        for proxy in shards.values():
            proxy.stop()
        origin.stop()


class TestFleetRouter:
    def test_routes_through_a_live_socket(self, fleet_pair):
        origin, shards, directory, router = fleet_pair
        response = fetch(router.address, URLS[0], timeout=5.0)
        assert response.status == 200
        assert router.m.requests.labels(outcome="routed").value == 1

    def test_stamps_the_deadline_budget_onto_forwards(self, fleet_pair):
        origin, shards, directory, router = fleet_pair
        response = router.route(HttpRequest("GET", URLS[1]))
        assert response.status == 200
        # The shard's own dispatch saw a Deadline: exhaust the budget at
        # the router and the request never reaches a shard.
        expired = HttpRequest(
            "GET", URLS[1], headers={DEADLINE_HEADER: "0"},
        )
        shed = router.route(expired)
        assert shed.status == 503
        assert json.loads(shed.body)["error"] == "deadline_exhausted"

    def test_fails_over_to_the_next_preference(self, fleet_pair):
        origin, shards, directory, router = fleet_pair
        url = URLS[2]
        home = rendezvous_rank(url, directory.ids())[0]
        shards[home].stop()                    # kill the home shard
        directory.revive(home)                 # directory still lists it
        response = router.route(HttpRequest("GET", url))
        assert response.status == 200
        assert router.m.failover.value == 1
        # The failed forward marked the shard down for the next request.
        assert directory.address_of(home) is None

    def test_no_live_shard_is_an_honest_503(self, fleet_pair):
        origin, shards, directory, router = fleet_pair
        for shard_id in directory.ids():
            directory.report_failure(shard_id)
        response = router.route(HttpRequest("GET", URLS[3]))
        assert response.status == 503
        assert response.headers["Retry-After"] == "1"
        assert json.loads(response.body)["error"] == "no_live_shard"
        assert router.m.requests.labels(outcome="failed").value == 1

    def test_metrics_endpoint_serves_fleet_families(self, fleet_pair):
        origin, shards, directory, router = fleet_pair
        router.route(HttpRequest("GET", URLS[4]))
        exposition = fetch(router.address, METRICS_PATH, timeout=5.0)
        assert exposition.status == 200
        text = exposition.body.decode("utf-8")
        assert "repro_fleet_requests_total" in text
        assert "repro_fleet_request_seconds_bucket" in text

    def test_status_endpoint_reports_the_directory(self, fleet_pair):
        origin, shards, directory, router = fleet_pair
        response = fetch(router.address, STATUS_PATH, timeout=5.0)
        assert response.status == 200
        assert json.loads(response.body) == {"shards": [0, 1]}


class TestSlowClients:
    def test_a_trickling_client_cannot_pin_the_only_worker(self):
        """One byte per tick keeps every recv inside the idle timeout;
        only the total head deadline cuts the client off.  Before the
        router shared the shard's head reader it had no such deadline
        and this client held the worker for as long as it kept going."""
        origin = OriginServer(SyntheticSite()).start()
        shard = CachingProxy(
            ProxyStore(capacity=256 * 1024),
            resolver=lambda host: origin.address,
        ).start()
        router = FleetRouter(
            StaticDirectory({0: shard.address}),
            shard_timeout=0.6, max_clients=1,
        ).start()
        trickler = socket.create_connection(router.address, timeout=5.0)
        head = b"GET " + URLS[0].encode("ascii") + b" HTTP/1.0\r\nX-Pad: " + b"a" * 64
        stop = threading.Event()

        def trickle():
            try:
                for index in range(len(head)):
                    if stop.is_set():
                        return
                    trickler.sendall(head[index:index + 1])
                    time.sleep(0.1)
            except OSError:
                pass    # cut off, as it should be

        thread = threading.Thread(target=trickle, daemon=True)
        try:
            started = time.monotonic()
            thread.start()
            time.sleep(0.2)     # the trickler now holds the one worker
            response = fetch(router.address, URLS[1], timeout=5.0)
            elapsed = time.monotonic() - started
            assert response.status == 200
            assert elapsed < 2.0    # ~shard_timeout, not the 6.5 s head
            trickler.settimeout(2.0)
            cut = HttpResponse.parse(trickler.recv(4096))
            assert cut.status == 408
            assert json.loads(cut.body)["error"] == "client_read_timeout"
        finally:
            stop.set()
            thread.join(timeout=2.0)
            trickler.close()
            router.stop()
            shard.stop()
            origin.stop()
