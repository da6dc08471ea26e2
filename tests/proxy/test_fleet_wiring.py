"""``Fleet``: the supervisor, the router and the telemetry aggregator
wired once — its caller reads ``address`` and ``status()`` and never
reaches into the parts, and each part that started is stopped once."""

import pytest

from repro.proxy.fleet import Fleet
from repro.proxy.router import FleetRouter


def test_a_started_fleet_answers_its_address_and_status():
    fleet = Fleet([]).start()
    try:
        host, port = fleet.address
        assert host == "127.0.0.1" and port > 0
        assert fleet.status() == {"shards": [], "up": 0, "restarts": 0}
    finally:
        fleet.stop()


def test_a_failed_start_stops_each_started_part_once(monkeypatch):
    stopped = []

    def counting(name, stop):
        return lambda *args: (stopped.append(name), stop(*args))

    monkeypatch.setattr(
        FleetRouter, "stop", counting("router", FleetRouter.stop),
    )
    fleet = Fleet([])
    fleet.supervisor.stop = counting("supervisor", fleet.supervisor.stop)
    fleet.aggregator.stop = counting("aggregator", fleet.aggregator.stop)

    def fail():
        raise RuntimeError("aggregator failed to start")

    fleet.aggregator.start = fail
    with pytest.raises(RuntimeError):
        try:
            fleet.start()
        finally:
            fleet.stop()  # the caller's own cleanup after the failure
    fleet.stop()
    assert stopped == ["aggregator", "router", "supervisor"]
