"""The sharded proxy fleet: supervisor, shard lifecycle, chaos harness.

A fleet is N :class:`~repro.proxy.server.CachingProxy` **processes**
(not threads): each shard owns a journaled ``--state-dir`` (PR 4), so a
killed shard warm-restarts with its cache contents intact, and a wedged
shard can be SIGSTOPped/SIGKILLed without touching its siblings — the
failure domains the chaos harness kills are real OS processes.

The :class:`FleetSupervisor` implements the shard lifecycle machine
(DESIGN.md §12)::

    STARTING ──endpoint+scrape──▶ UP ──process death──▶ RESTARTING
        ▲                          │                        │
        └────────backoff elapsed───┘◀───(K rapid deaths)    ▼
    STOPPED ◀──drain on SIGTERM──  all states            FAILED

* shards bind port 0 and publish ``endpoint.json`` (pid/host/port) into
  their state dir, so the supervisor — including one adopting shards
  after its own restart — discovers addresses without coordination;
* health = process liveness (``poll()``) **and** a ``/metrics`` scrape:
  a shard whose process runs but cannot answer its exposition endpoint
  (SIGSTOPped, wedged) is routed around until it answers again;
* restarts back off exponentially, and ``rapid_deaths`` deaths inside
  ``rapid_window`` seconds mark the shard FAILED (crash-loop detection:
  a shard that dies on arrival must not be respawned in a hot loop);
* the supervisor doubles as the router's shard directory (``ids`` /
  ``address_of`` / ``report_failure``).

:func:`run_fleet_chaos` is the seeded acceptance harness: origin +
supervisor + router + load generator, with KILL_SHARD / STALL_SHARD /
SLOW_CLIENT faults fired at plan-named request indices, producing a
:class:`FleetReport` whose ``deterministic`` section is byte-identical
across same-seed runs.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import repro
from repro.durability import atomic_write_text
from repro.faults import FaultKind, FaultPlan, FaultRule
from repro.httpnet.client import fetch as _fetch
from repro.obs import Obs
from repro.obs.catalog import fleet_metrics, telemetry_metrics
from repro.obs.metrics import Registry
from repro.obs.summarize import parse_prometheus_text
from repro.obs.telemetry import (
    TelemetryAggregator,
    render_dashboard_html,
    slo_config,
)
from repro.obs.timeseries import merge_samples, write_timeseries
from repro.proxy.loadgen import (
    LoadGenerator,
    build_schedule,
    schedule_checksum,
)
from repro.proxy.origin import OriginServer, SyntheticSite
from repro.proxy.router import FleetRouter
from repro.proxy.server import METRICS_PATH

__all__ = [
    "ENDPOINT_FILE",
    "ShardSpec",
    "ShardHandle",
    "FleetSupervisor",
    "FleetReport",
    "run_fleet_chaos",
    "shard_main",
]

#: File a shard atomically publishes into its state dir once listening.
ENDPOINT_FILE = "endpoint.json"

#: Shard lifecycle states (DESIGN.md §12).
SHARD_STATES = ("STARTING", "UP", "RESTARTING", "FAILED", "STOPPED")


@dataclass(frozen=True)
class ShardSpec:
    """Everything needed to (re)spawn one shard process."""

    shard_id: int
    state_dir: Path
    capacity: int = 4 << 20
    policy: str = "SIZE"
    origin: str = ""          # "host:port" all origin hosts resolve to
    timeout: float = 5.0
    max_inflight: int = 16
    max_clients: int = 4
    read_deadline: float = 2.0

    def command(self, python: str) -> List[str]:
        return [
            python, "-m", "repro", "fleet", "shard",
            "--shard-id", str(self.shard_id),
            "--state-dir", str(self.state_dir),
            "--capacity", str(self.capacity),
            "--policy", self.policy,
            "--origin", self.origin,
            "--timeout", str(self.timeout),
            "--max-inflight", str(self.max_inflight),
            "--max-clients", str(self.max_clients),
            "--read-deadline", str(self.read_deadline),
        ]


@dataclass
class ShardHandle:
    """The supervisor's live view of one shard."""

    spec: ShardSpec
    process: Optional[subprocess.Popen] = None
    address: Optional[Tuple[str, int]] = None
    state: str = "STARTING"
    restarts: int = 0
    deaths: List[float] = field(default_factory=list)
    restart_at: float = 0.0     # when RESTARTING, respawn not before this
    backoff: float = 0.0
    suspect: int = 0            # consecutive failed scrapes / reports
    last_scrape_ok: Optional[float] = None  # monotonic; None = never
    scrape_failures: int = 0    # consecutive, reset on success/respawn

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None


class FleetSupervisor:
    """Spawn, watch, restart and drain N shard processes.

    Also the router's shard directory: :meth:`ids`, :meth:`address_of`
    (``None`` unless the shard is UP and not suspect) and
    :meth:`report_failure` (a routing failure marks the shard suspect
    until a scrape proves it healthy again).
    """

    def __init__(
        self,
        specs: Sequence[ShardSpec],
        obs: Optional[Obs] = None,
        python: str = sys.executable,
        health_interval: float = 0.15,
        scrape_timeout: float = 1.0,
        backoff_base: float = 0.2,
        backoff_cap: float = 5.0,
        rapid_deaths: int = 3,
        rapid_window: float = 10.0,
        suspect_threshold: int = 3,
        grace: float = 3.0,
    ) -> None:
        self.obs = obs if obs is not None else Obs()
        self.m = fleet_metrics(self.obs.registry)
        self._channel = self.obs.channel("fleet")
        self.python = python
        self.health_interval = health_interval
        self.scrape_timeout = scrape_timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.rapid_deaths = rapid_deaths
        self.rapid_window = rapid_window
        self.suspect_threshold = suspect_threshold
        self.grace = grace
        self._lock = threading.RLock()
        self._handles: Dict[int, ShardHandle] = {
            spec.shard_id: ShardHandle(spec=spec) for spec in specs
        }
        self._running = False
        self._health_thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self, wait: float = 15.0) -> "FleetSupervisor":
        """Spawn every shard and block until all are UP (or ``wait``
        seconds pass, which raises)."""
        self._running = True
        with self._lock:
            for handle in self._handles.values():
                self._spawn_locked(handle)
        deadline = _time.monotonic() + wait
        for shard_id in list(self._handles):
            remaining = deadline - _time.monotonic()
            if not self.wait_until_up(shard_id, timeout=max(0.1, remaining)):
                self.stop()
                raise RuntimeError(f"shard {shard_id} failed to come up")
        self._health_thread = threading.Thread(
            target=self._health_loop, daemon=True,
        )
        self._health_thread.start()
        return self

    def stop(self) -> None:
        """Drain-and-stop: SIGTERM every shard, escalate to SIGKILL
        after the grace period."""
        self._running = False
        if self._health_thread is not None:
            self._health_thread.join(timeout=2.0)
            self._health_thread = None
        with self._lock:
            handles = list(self._handles.values())
        for handle in handles:
            if handle.alive():
                handle.process.terminate()
        deadline = _time.monotonic() + self.grace
        for handle in handles:
            if handle.process is None:
                continue
            remaining = max(0.05, deadline - _time.monotonic())
            try:
                handle.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                handle.process.kill()
                handle.process.wait(timeout=self.grace)
            handle.state = "STOPPED"
        self._set_state_gauges()

    def __enter__(self) -> "FleetSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- spawning ----------------------------------------------------------------

    def _spawn_locked(self, handle: ShardHandle) -> None:
        spec = handle.spec
        spec.state_dir.mkdir(parents=True, exist_ok=True)
        endpoint = spec.state_dir / ENDPOINT_FILE
        try:
            endpoint.unlink()
        except FileNotFoundError:
            pass
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).parents[1])
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            src_root + (os.pathsep + existing if existing else "")
        )
        handle.process = subprocess.Popen(
            spec.command(self.python),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        handle.address = None
        handle.state = "STARTING"
        handle.suspect = 0
        handle.scrape_failures = 0
        self._channel.info(
            "shard.spawn", shard=spec.shard_id, pid=handle.process.pid,
        )

    def _read_endpoint(self, handle: ShardHandle) -> Optional[Tuple[str, int]]:
        endpoint = handle.spec.state_dir / ENDPOINT_FILE
        try:
            record = json.loads(endpoint.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if handle.process is None or record.get("pid") != handle.process.pid:
            return None  # stale file from a previous incarnation
        return str(record["host"]), int(record["port"])

    def wait_until_up(self, shard_id: int, timeout: float = 10.0) -> bool:
        """Block until one shard reaches UP (endpoint published and
        ``/metrics`` answering)."""
        deadline = _time.monotonic() + timeout
        while _time.monotonic() < deadline:
            with self._lock:
                handle = self._handles[shard_id]
                if handle.state == "FAILED":
                    return False
            self._check(handle)
            with self._lock:
                if handle.state == "UP":
                    return True
            _time.sleep(0.05)
        return False

    # -- health ------------------------------------------------------------------

    def _health_loop(self) -> None:
        while self._running:
            with self._lock:
                handles = list(self._handles.values())
            for handle in handles:
                self._check(handle)
            with self._lock:
                self._set_state_gauges()
            _time.sleep(self.health_interval)

    def _check(self, handle: ShardHandle) -> None:
        """One health step for one shard.

        The ``/metrics`` scrape (a network call that can block for
        ``scrape_timeout`` against a stalled shard) happens *outside*
        the lock, so the router's ``address_of`` never waits on it.
        """
        with self._lock:
            if handle.state in ("FAILED", "STOPPED"):
                return
            now = _time.monotonic()
            if handle.state == "RESTARTING":
                if now >= handle.restart_at:
                    handle.restarts += 1
                    self.m.shard_restarts.labels(
                        shard=str(handle.spec.shard_id),
                    ).inc()
                    self._spawn_locked(handle)
                return
            if not handle.alive():
                self._on_death_locked(handle, now)
                return
            if handle.state == "STARTING":
                address = self._read_endpoint(handle)
            else:
                address = handle.address
            state = handle.state
        if address is None:
            return  # STARTING, endpoint not published yet
        healthy = self._scrape_ok(address)
        with self._lock:
            if handle.state != state:
                return  # raced with a death/kill; next tick re-decides
            if state == "STARTING":
                if healthy:
                    handle.address = address
                    handle.state = "UP"
                    handle.suspect = 0
                    handle.backoff = 0.0
                    handle.last_scrape_ok = _time.monotonic()
                    handle.scrape_failures = 0
                    self._channel.info(
                        "shard.up", shard=handle.spec.shard_id,
                        host=address[0], port=address[1],
                    )
                return
            # UP: the scrape is the heartbeat.
            if healthy:
                handle.suspect = 0
                handle.last_scrape_ok = _time.monotonic()
                handle.scrape_failures = 0
            else:
                handle.suspect += 1
                handle.scrape_failures += 1
                if handle.suspect == self.suspect_threshold:
                    self._channel.warning(
                        "shard.unresponsive", shard=handle.spec.shard_id,
                    )

    def _on_death_locked(self, handle: ShardHandle, now: float) -> None:
        handle.deaths.append(now)
        recent = [
            death for death in handle.deaths
            if now - death <= self.rapid_window
        ]
        handle.deaths = recent
        self._channel.warning(
            "shard.died", shard=handle.spec.shard_id,
            recent_deaths=len(recent),
        )
        if len(recent) >= self.rapid_deaths:
            handle.state = "FAILED"
            handle.address = None
            self._channel.error(
                "shard.failed", shard=handle.spec.shard_id,
                deaths=len(recent), window=self.rapid_window,
            )
            return
        handle.backoff = min(
            self.backoff_cap,
            self.backoff_base * (2 ** max(0, len(recent) - 1)),
        )
        handle.restart_at = now + handle.backoff
        handle.state = "RESTARTING"
        handle.address = None

    def _scrape_ok(self, address: Tuple[str, int]) -> bool:
        try:
            response = _fetch(
                address, METRICS_PATH, timeout=self.scrape_timeout,
            )
        except (OSError, ValueError):
            return False
        return response.status == 200

    def _set_state_gauges(self) -> None:
        counts = {state: 0 for state in SHARD_STATES}
        for handle in self._handles.values():
            counts[handle.state] += 1
        for state, count in counts.items():
            self.m.shards.labels(state=state).set(count)

    # -- the router's directory interface -----------------------------------------

    def ids(self) -> List[int]:
        with self._lock:
            return sorted(self._handles)

    def address_of(self, shard_id: int) -> Optional[Tuple[str, int]]:
        with self._lock:
            handle = self._handles.get(shard_id)
            if handle is None or handle.state != "UP":
                return None
            if handle.suspect >= self.suspect_threshold:
                return None
            return handle.address

    def report_failure(self, shard_id: int) -> None:
        """A routing attempt failed: distrust the shard until the health
        loop scrapes it successfully again."""
        with self._lock:
            handle = self._handles.get(shard_id)
            if handle is not None and handle.state == "UP":
                handle.suspect = max(
                    handle.suspect, self.suspect_threshold,
                )

    # -- chaos controls ------------------------------------------------------------

    def kill_shard(self, shard_id: int) -> None:
        """SIGKILL one shard process (the KILL_SHARD fault)."""
        with self._lock:
            handle = self._handles[shard_id]
            if handle.alive():
                self._channel.warning("chaos.kill", shard=shard_id)
                handle.process.kill()

    def stall_shard(self, shard_id: int, seconds: float) -> None:
        """SIGSTOP one shard, SIGCONT it after ``seconds`` (the
        STALL_SHARD fault: alive but unresponsive)."""
        with self._lock:
            handle = self._handles[shard_id]
            if not handle.alive():
                return
            pid = handle.process.pid
        self._channel.warning(
            "chaos.stall", shard=shard_id, seconds=seconds,
        )
        os.kill(pid, signal.SIGSTOP)

        def resume() -> None:
            try:
                os.kill(pid, signal.SIGCONT)
            except ProcessLookupError:  # pragma: no cover - died stopped
                pass

        timer = threading.Timer(seconds, resume)
        timer.daemon = True
        timer.start()

    # -- reporting -----------------------------------------------------------------

    def restarts_total(self) -> int:
        with self._lock:
            return sum(h.restarts for h in self._handles.values())

    def status(self) -> dict:
        """The JSON document served at ``/fleet/status``.

        Each shard carries a ``telemetry`` freshness block so a *stale*
        shard (process up, scrapes failing) is distinguishable from a
        *dead* one (state not UP): last successful scrape age plus the
        consecutive-failure count.
        """
        with self._lock:
            now = _time.monotonic()
            shards = [
                {
                    "id": handle.spec.shard_id,
                    "state": handle.state,
                    "address": (
                        list(handle.address) if handle.address else None
                    ),
                    "restarts": handle.restarts,
                    "suspect": handle.suspect >= self.suspect_threshold,
                    "telemetry": {
                        "last_scrape_age_s": (
                            round(now - handle.last_scrape_ok, 3)
                            if handle.last_scrape_ok is not None else None
                        ),
                        "consecutive_scrape_failures":
                            handle.scrape_failures,
                        "stale": (
                            handle.state == "UP"
                            and handle.scrape_failures
                            >= self.suspect_threshold
                        ),
                    },
                }
                for _, handle in sorted(self._handles.items())
            ]
        return {
            "shards": shards,
            "up": sum(1 for s in shards if s["state"] == "UP"),
            "restarts": sum(s["restarts"] for s in shards),
        }

    def scrape_gauge(self, shard_id: int, name: str) -> Optional[float]:
        """Read one unlabelled metric value off a shard's exposition."""
        address = self.address_of(shard_id)
        if address is None:
            return None
        try:
            response = _fetch(
                address, METRICS_PATH, timeout=self.scrape_timeout,
            )
            return _metric_value(response.body.decode("utf-8"), name)
        except (OSError, ValueError):
            return None


def _metric_value(exposition: str, name: str) -> Optional[float]:
    for sample_name, labels, value in parse_prometheus_text(exposition):
        if sample_name == name and not labels:
            return value
    return None


# -- the seeded chaos harness --------------------------------------------------------


class _SlowOrigin(OriginServer):
    """An origin with a fixed per-request service time, so "capacity"
    is a real number the load generator can exceed."""

    def __init__(self, service_time: float = 0.0, **kwargs) -> None:
        super().__init__(**kwargs)
        self.service_time = service_time

    def respond(self, request):  # noqa: D102 - see OriginServer
        if self.service_time > 0:
            _time.sleep(self.service_time)
        return super().respond(request)


@dataclass
class FleetReport:
    """One chaos run's outcome, split for byte-reproducibility.

    ``deterministic`` holds everything two same-seed runs must agree
    on byte-for-byte: the configuration, the fault plan, the offered
    schedule's checksum, and the pass/fail invariants.  ``measured``
    holds quantities that legitimately vary run to run (latencies,
    exact shed counts, wall time) — the acceptance test strips it
    before comparing.
    """

    deterministic: dict
    measured: dict

    def as_dict(self) -> dict:
        return {
            "deterministic": self.deterministic,
            "measured": self.measured,
        }

    def write(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @property
    def ok(self) -> bool:
        return all(self.deterministic["invariants"].values())

    def render(self) -> str:
        """One human line: the fleet summary."""
        det, meas = self.deterministic, self.measured
        shed_pct = (
            100.0 * meas["counts"].get("shed", 0) / det["requests"]
            if det["requests"] else 0.0
        )
        verdict = "PASS" if self.ok else "FAIL"
        return (
            f"fleet: {det['shards']} shard(s), "
            f"{meas['restarts']} restart(s), "
            f"shed {shed_pct:.1f}%, "
            f"availability {meas['availability_pct']:.2f}% "
            f"[{verdict}]"
        )


def default_fleet_plan(
    seed: int, requests: int, shards: int,
) -> FaultPlan:
    """The canonical seeded scenario: one KILL_SHARD somewhere in the
    middle third of the schedule, shard chosen by the seed."""
    import random

    rng = random.Random(seed * 9_176_867 + 11)
    index = rng.randrange(requests // 3, max(requests // 3 + 1,
                                             2 * requests // 3))
    shard = rng.randrange(shards)
    return FaultPlan(
        rules=(FaultRule(
            kind=FaultKind.KILL_SHARD, at=(index,), shard=shard,
        ),),
        seed=seed,
    )


def run_fleet_chaos(
    state_root: Union[str, Path],
    shards: int = 4,
    requests: int = 240,
    rate: float = 80.0,
    seed: int = 0,
    profile: str = "U",
    scale: float = 0.05,
    plan: Optional[FaultPlan] = None,
    capacity: int = 4 << 20,
    policy: str = "SIZE",
    shard_max_inflight: int = 12,
    shard_max_clients: int = 4,
    service_time: float = 0.01,
    client_timeout: float = 20.0,
    deadline_ms: int = 15_000,
    availability_floor: float = 99.0,
    obs: Optional[Obs] = None,
    telemetry_out: Optional[Union[str, Path]] = None,
    dashboard_out: Optional[Union[str, Path]] = None,
    timeseries_out: Optional[Union[str, Path]] = None,
) -> FleetReport:
    """Run the seeded shard-kill + overload scenario end to end.

    Spawns a slow origin, ``shards`` journaled shard processes, the
    rendezvous router, then offers ``requests`` URLs at ``rate``/s while
    firing the plan's faults at their request indices.  A
    :class:`~repro.obs.telemetry.TelemetryAggregator` rides along on the
    health cadence, so the run produces fleet rollups and SLO burn-rate
    evaluations (``telemetry_out`` / ``dashboard_out`` /
    ``timeseries_out`` write them out).  Returns the
    :class:`FleetReport`; the caller decides what to do with ``.ok``.
    """
    state_root = Path(state_root)
    if plan is None:
        plan = default_fleet_plan(seed, requests, shards)
    kills = plan.shard_kill_points()
    stalls = plan.shard_stall_points()
    slow = plan.slow_client_indices(requests)
    urls = build_schedule(
        profile=profile, seed=seed, scale=scale, requests=requests,
    )
    checksum = schedule_checksum(urls, rate, seed)
    obs = obs if obs is not None else Obs()

    origin = _SlowOrigin(
        service_time=service_time, site=SyntheticSite(),
    ).start()
    origin_address = f"{origin.address[0]}:{origin.address[1]}"
    specs = [
        ShardSpec(
            shard_id=index,
            state_dir=state_root / f"shard-{index}",
            capacity=capacity,
            policy=policy,
            origin=origin_address,
            max_inflight=shard_max_inflight,
            max_clients=shard_max_clients,
        )
        for index in range(shards)
    ]
    supervisor = FleetSupervisor(specs, obs=obs)
    aggregator = TelemetryAggregator(supervisor, obs=obs)
    killed_ids = sorted({s for sids in kills.values() for s in sids})
    try:
        supervisor.start()
        router = FleetRouter(
            supervisor,
            shard_timeout=client_timeout / 2,
            default_budget=deadline_ms / 1000.0,
            obs=obs,
            status=supervisor.status,
            telemetry=aggregator.telemetry,
            dashboard=lambda: render_dashboard_html(
                aggregator.telemetry(),
            ),
        ).start()
        aggregator.start()
        try:
            fired: set = set()
            fire_lock = threading.Lock()

            def on_index(i: int) -> None:
                with fire_lock:
                    if i in fired:
                        return
                    fired.add(i)
                for sid in kills.get(i, ()):
                    supervisor.kill_shard(sid)
                for sid, seconds in stalls.get(i, ()):
                    supervisor.stall_shard(sid, seconds)

            generator = LoadGenerator(
                router.address,
                urls,
                rate=rate,
                timeout=client_timeout,
                slow_indices=slow,
                deadline_ms=deadline_ms,
                on_index=on_index,
            )
            load = generator.run()

            # The killed shard must warm-restart from its journal.
            warm_restart_ok = True
            for sid in killed_ids:
                if not supervisor.wait_until_up(sid, timeout=15.0):
                    warm_restart_ok = False
                    continue
                recovered = supervisor.scrape_gauge(
                    sid, "repro_proxy_store_recovered_documents",
                )
                if recovered is None or recovered <= 0:
                    warm_restart_ok = False

            # One final aggregation round while every shard is still up,
            # so the telemetry document reflects the whole run.
            aggregator.scrape_once()
            final_status = supervisor.status()
        finally:
            aggregator.stop()
            router.stop()
    finally:
        supervisor.stop()
        origin.stop()
    telemetry_doc = aggregator.telemetry()

    counts = load.counts
    availability = load.availability_pct
    invariants = {
        "availability_floor_met": availability >= availability_floor,
        "no_client_hangs": counts.get("hang", 0) == 0,
        # Any response we received parsed and honoured the contract
        # (503s carried Retry-After); resets are tolerated only up to
        # the killed shards' possible in-flight requests.
        "all_well_formed": (
            counts.get("malformed", 0) == 0
            and counts.get("client_error", 0)
            <= max(1, len(killed_ids)) * shard_max_inflight
        ),
        "warm_restart_ok": warm_restart_ok,
        "telemetry_collected": telemetry_doc["rounds"] >= 1,
    }
    # The SLO configuration and the rollup family set are pure data —
    # byte-identical across same-seed runs; the rollup *values* (rounds,
    # burn rates, latencies) are measured and live in ``measured``.
    rollup_registry = Registry()
    telemetry_metrics(rollup_registry)
    deterministic_telemetry = {
        "cadence_s": supervisor.health_interval,
        "slo": slo_config(aggregator.slo.specs, aggregator.slo.windows),
        "rollup_families": sorted(rollup_registry.snapshot()),
    }
    deterministic = {
        "seed": seed,
        "shards": shards,
        "requests": requests,
        "rate": rate,
        "profile": profile,
        "scale": scale,
        "capacity": capacity,
        "policy": policy,
        "shard_max_inflight": shard_max_inflight,
        "shard_max_clients": shard_max_clients,
        "deadline_ms": deadline_ms,
        "availability_floor": availability_floor,
        "plan": plan.to_dict(),
        "schedule_checksum": checksum,
        "telemetry": deterministic_telemetry,
        "invariants": invariants,
    }
    fleet_m = router.m
    measured = {
        "availability_pct": round(availability, 4),
        "counts": counts,
        "restarts": supervisor.restarts_total(),
        "failovers": int(fleet_m.failover.value),
        "latency_p50_s": round(load.percentile(0.50), 6),
        "latency_p95_s": round(load.percentile(0.95), 6),
        "wall_seconds": round(load.wall_seconds, 3),
        "telemetry": telemetry_doc,
        "status": final_status,
    }
    if telemetry_out is not None:
        Path(telemetry_out).write_text(
            json.dumps(telemetry_doc, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if dashboard_out is not None:
        Path(dashboard_out).write_text(
            render_dashboard_html(telemetry_doc), encoding="utf-8",
        )
    if timeseries_out is not None:
        write_timeseries(
            merge_samples([("fleet", aggregator.recorder)]),
            timeseries_out,
        )
    return FleetReport(deterministic=deterministic, measured=measured)


# -- the shard process entrypoint ----------------------------------------------------


def shard_main(args) -> int:
    """``repro fleet shard``: run one shard until SIGTERM.

    Binds port 0, publishes ``endpoint.json`` into the state dir, then
    serves until terminated; SIGTERM drains (stop accepting, close the
    store so the journal is sealed) and exits 0.
    """
    from repro.cli import parse_policy
    from repro.proxy.overload import OverloadPolicy
    from repro.proxy.server import CachingProxy
    from repro.proxy.store import ProxyStore

    state_dir = Path(args.state_dir)
    store = ProxyStore(
        capacity=args.capacity,
        policy=parse_policy(args.policy),
        state_dir=state_dir,
    )
    resolver = None
    if args.origin:
        host, _, port = args.origin.partition(":")
        address = (host, int(port or 80))
        resolver = lambda _host: address  # noqa: E731 - tiny closure
    proxy = CachingProxy(
        store,
        resolver=resolver,
        timeout=args.timeout,
        overload=OverloadPolicy(max_inflight=args.max_inflight),
        max_clients=args.max_clients,
        read_deadline=args.read_deadline,
    ).start()
    atomic_write_text(
        state_dir / ENDPOINT_FILE,
        json.dumps({
            "pid": os.getpid(),
            "host": proxy.address[0],
            "port": proxy.address[1],
            "shard_id": args.shard_id,
        }, sort_keys=True),
    )
    stop_event = threading.Event()

    def _drain(signum, frame) -> None:
        stop_event.set()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    try:
        while not stop_event.wait(0.2):
            pass
    finally:
        proxy.stop()
        store.close()
    return 0
