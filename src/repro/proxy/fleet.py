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
import subprocess
import sys
import threading
import time as _time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import repro
from repro.durability import atomic_write_text
from repro.faults import FaultKind, FaultPlan, FaultRule
from repro.httpnet.client import fetch as _fetch
from repro.obs import Obs
from repro.obs.catalog import fleet_metrics, telemetry_metrics
from repro.obs.metrics import Registry
from repro.obs.summarize import fleet_verdict, parse_prometheus_text
from repro.obs.telemetry import TelemetryAggregator, slo_config
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
    "SPEC_FILE",
    "ShardSpec",
    "shard_specs",
    "ShardHandle",
    "FleetSupervisor",
    "Fleet",
    "FleetReport",
    "run_fleet_chaos",
]

#: File a shard atomically publishes into its state dir once listening.
ENDPOINT_FILE = "endpoint.json"

#: File the supervisor writes a shard's :class:`ShardSpec` into.
SPEC_FILE = "shard.json"

#: Shard lifecycle states (DESIGN.md §12).
SHARD_STATES = ("STARTING", "UP", "RESTARTING", "FAILED", "STOPPED")


@dataclass(frozen=True)
class ShardSpec:
    """Everything needed to (re)spawn one shard process.

    Declared here and nowhere else: the supervisor writes the spec into
    the shard's state dir (:data:`SPEC_FILE`) and spawns ``repro fleet
    shard --state-dir DIR``, which reads it back.
    """

    shard_id: int
    state_dir: Path
    capacity: int = 4 << 20
    policy: str = "SIZE"
    origin: str = ""          # "host:port" all origin hosts resolve to
    timeout: float = 5.0
    max_inflight: int = 12
    max_clients: int = 4
    read_deadline: float = 2.0

    def write(self) -> None:
        fields = asdict(self)
        del fields["state_dir"]
        atomic_write_text(
            self.state_dir / SPEC_FILE, json.dumps(fields, sort_keys=True),
        )

    @classmethod
    def read(cls, state_dir: Union[str, Path]) -> "ShardSpec":
        state_dir = Path(state_dir)
        fields = json.loads((state_dir / SPEC_FILE).read_text(encoding="utf-8"))
        return cls(state_dir=state_dir, **fields)

    def publish(self, address: Tuple[str, int]) -> None:
        """Announce this (listening) process at ``address``: atomically
        write :data:`ENDPOINT_FILE`, which the supervisor accepts only
        from the pid it spawned."""
        endpoint = {"pid": os.getpid(), "host": address[0],
                    "port": address[1], "shard_id": self.shard_id}
        atomic_write_text(
            self.state_dir / ENDPOINT_FILE, json.dumps(endpoint, sort_keys=True),
        )


def shard_specs(
    state_root: Union[str, Path], shards: int, **fields,
) -> List[ShardSpec]:
    """``shards`` specs sharing ``fields``, shard ``i`` under
    ``state_root/shard-<i>``."""
    root = Path(state_root)
    return [ShardSpec(i, root / f"shard-{i}", **fields) for i in range(shards)]


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
        self.obs = obs if obs is not None else Obs.private()
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
        seconds pass, which raises); a failed start stops what it
        spawned."""
        self._running = True
        try:
            with self._lock:
                for handle in self._handles.values():
                    self._spawn_locked(handle)
            deadline = _time.monotonic() + wait
            for shard_id in list(self._handles):
                remaining = deadline - _time.monotonic()
                if not self.wait_until_up(
                    shard_id, timeout=max(0.1, remaining),
                ):
                    raise RuntimeError(f"shard {shard_id} failed to come up")
        except BaseException:
            self.stop()
            raise
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

    # -- spawning ----------------------------------------------------------------

    def _spawn_locked(self, handle: ShardHandle) -> None:
        spec = handle.spec
        spec.state_dir.mkdir(parents=True, exist_ok=True)
        spec.write()
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
            [self.python, "-m", "repro", "fleet", "shard",
             "--state-dir", str(spec.state_dir)],
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


class Fleet:
    """The supervisor, a telemetry aggregator on its health cadence and
    the router in front of them, wired to each other once: what ``repro
    fleet serve`` runs and :func:`run_fleet_chaos` drives.

    ``router_options`` go to :class:`~repro.proxy.router.FleetRouter`
    (listen address, shard timeout, deadline budget).  :meth:`stop`
    stops each part that started exactly once, however often it is
    called — also after a failed :meth:`start`.
    """

    def __init__(
        self, specs: Sequence[ShardSpec], obs: Optional[Obs] = None,
        **router_options,
    ) -> None:
        self.obs = obs if obs is not None else Obs.private()
        self.supervisor = FleetSupervisor(specs, obs=self.obs)
        self.aggregator = TelemetryAggregator(self.supervisor, obs=self.obs)
        self._router_options = router_options
        self._router: Optional[FleetRouter] = None
        self._stops: List[Callable[[], None]] = []

    @property
    def address(self) -> Tuple[str, int]:
        """Where the started fleet's router listens."""
        return self._router.address

    def status(self) -> dict:
        """The ``/fleet/status`` document."""
        return self.supervisor.status()

    def start(self) -> "Fleet":
        """Bring every shard UP, then the router, then the aggregator;
        on any failure stop what started and re-raise."""
        try:
            self.supervisor.start()  # stops its own shards if it fails
            self._stops.append(self.supervisor.stop)
            self._router = FleetRouter(
                self.supervisor,
                obs=self.obs,
                telemetry=self.aggregator.telemetry,
                **self._router_options,
            )
            self._stops.append(self._router.stop)
            self._router.start()
            self._stops.append(self.aggregator.stop)
            self.aggregator.start()
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        """Stop what :meth:`start` started, newest first, each once."""
        while self._stops:
            self._stops.pop()()


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
        """The fleet's one verdict line."""
        return fleet_verdict(self.as_dict())


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
    capacity: int = ShardSpec.capacity,
    policy: str = ShardSpec.policy,
    shard_max_inflight: int = ShardSpec.max_inflight,
    shard_max_clients: int = ShardSpec.max_clients,
    service_time: float = 0.01,
    client_timeout: float = 20.0,
    deadline_ms: int = 15_000,
    availability_floor: float = 99.0,
    obs: Optional[Obs] = None,
    telemetry_out: Optional[Union[str, Path]] = None,
    timeseries_out: Optional[Union[str, Path]] = None,
) -> FleetReport:
    """Run the seeded shard-kill + overload scenario end to end.

    Spawns a slow origin, ``shards`` journaled shard processes, the
    rendezvous router, then offers ``requests`` URLs at ``rate``/s while
    firing the plan's faults at their request indices.  A
    :class:`~repro.obs.telemetry.TelemetryAggregator` rides along on the
    health cadence, so the run produces fleet rollups and SLO burn-rate
    evaluations (``telemetry_out`` / ``timeseries_out`` write them
    out).  Returns the :class:`FleetReport`; the caller decides what to
    do with ``.ok``.  Every shard shares ``capacity``, ``policy``,
    ``shard_max_inflight`` and ``shard_max_clients`` (defaults:
    :class:`ShardSpec`'s); the origin is the harness's own.
    """
    if plan is None:
        plan = default_fleet_plan(seed, requests, shards)
    kills = plan.shard_kill_points()
    stalls = plan.shard_stall_points()
    slow = plan.slow_client_indices(requests)
    urls = build_schedule(
        profile=profile, seed=seed, scale=scale, requests=requests,
    )
    checksum = schedule_checksum(urls, rate, seed)
    obs = obs if obs is not None else Obs.private()

    origin = _SlowOrigin(
        service_time=service_time, site=SyntheticSite(),
    ).start()
    fleet = Fleet(
        shard_specs(
            state_root, shards,
            capacity=capacity, policy=policy,
            max_inflight=shard_max_inflight, max_clients=shard_max_clients,
            origin=f"{origin.address[0]}:{origin.address[1]}",
        ),
        obs=obs,
        shard_timeout=client_timeout / 2,
        default_budget=deadline_ms / 1000.0,
    )
    supervisor, aggregator = fleet.supervisor, fleet.aggregator
    killed_ids = sorted({s for sids in kills.values() for s in sids})
    try:
        fleet.start()
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
            fleet.address,
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
        fleet.stop()
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
    measured = {
        "availability_pct": round(availability, 4),
        "counts": counts,
        "restarts": supervisor.restarts_total(),
        "failovers": int(obs.registry.value("repro_fleet_failover_total")),
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
    if timeseries_out is not None:
        write_timeseries(
            merge_samples([("fleet", aggregator.recorder)]),
            timeseries_out,
        )
    return FleetReport(deterministic=deterministic, measured=measured)
