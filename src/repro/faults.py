"""Deterministic fault injection for the proxy and the sweep engine.

A :class:`FaultPlan` is a seeded, serialisable schedule of failures:
dropped connections, delayed responses, truncated bodies, 5xx errors
(origin-side faults consumed by :class:`FaultyOriginServer`), and
worker kills (consumed by :func:`repro.core.sweep.run_sweep`).  Every
decision is a pure function of ``(plan seed, event index, rule index)``,
so a chaos run replays bit-identically: the same plan against the same
trace injects the same faults in the same places.

Fault *events* are origin contacts: the injector assigns each incoming
origin request the next event index and asks every rule whether it
fires.  Rules select events by probability (a seeded coin), explicit
indices, an ``every``-nth stride, or URL substring, and can be limited
to conditional (``If-Modified-Since``) requests — the revalidation
traffic whose failure exercises the proxy's stale-if-error path.

``KILL_WORKER`` rules are different: their ``at`` indices name *sweep
job indices*, and the sweep engine arranges for the worker process that
picks up such a job to die mid-grid (see ``run_sweep``'s fault_plan
argument).  ``KILL_COORDINATOR`` rules likewise name sweep job indices,
but kill the *coordinator* process itself right after that job's result
is journaled — the crash the checkpoint/resume machinery must survive.

Disk faults (``TORN_WRITE``, ``ENOSPC``, ``FSYNC_FAIL``) are consumed
by :mod:`repro.durability`: each write to an atomic file or journal is
one event of a kind-filtered injector (see :meth:`FaultPlan.
disk_injector`), so chaos tests can tear a journal tail or fill the
disk at a seeded, reproducible point.

Fleet faults are consumed by the sharded proxy fleet
(:mod:`repro.proxy.fleet`): ``KILL_SHARD`` and ``STALL_SHARD`` rules
name *load-generator request indices* in ``at`` and a target shard in
``shard`` — when the seeded load reaches that request, the supervisor
SIGKILLs (or SIGSTOPs for ``delay_seconds``) that shard process, forcing
a failover and, for kills, a journal warm-restart.  ``SLOW_CLIENT``
rules select load-generator requests whose client trickles its request
bytes and then stalls — the slowloris traffic the proxy's
read-deadline guard must shed.
"""

from __future__ import annotations

import enum
import json
import socket
import threading
import time as _time
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from repro.httpnet.message import HttpRequest, HttpResponse
from repro.proxy.origin import OriginServer, SyntheticSite

__all__ = [
    "DISK_FAULT_KINDS",
    "FLEET_FAULT_KINDS",
    "ORIGIN_FAULT_KINDS",
    "FaultKind",
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "FaultyOriginServer",
]


class FaultKind(str, enum.Enum):
    """The failure modes a plan can schedule."""

    DROP = "drop"                # close the connection without responding
    DELAY = "delay"              # sleep before responding normally
    TRUNCATE = "truncate"        # send a prefix of the response body
    ERROR = "error"              # respond with a 5xx status
    KILL_WORKER = "kill_worker"  # a sweep worker exits mid-job
    KILL_COORDINATOR = "kill_coordinator"  # the sweep coordinator dies
    TORN_WRITE = "torn_write"    # a disk write persists only a prefix
    ENOSPC = "enospc"            # a disk write fails: device full
    FSYNC_FAIL = "fsync_fail"    # data written but the flush fails
    KILL_SHARD = "kill_shard"    # SIGKILL a proxy shard process
    STALL_SHARD = "stall_shard"  # SIGSTOP a shard, SIGCONT after a delay
    SLOW_CLIENT = "slow_client"  # a client trickles bytes, then stalls

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Kinds an origin-side injector consults (the pre-durability default).
ORIGIN_FAULT_KINDS = frozenset({
    FaultKind.DROP, FaultKind.DELAY, FaultKind.TRUNCATE, FaultKind.ERROR,
})

#: Kinds a disk-side injector (``repro.durability``) consults.
DISK_FAULT_KINDS = frozenset({
    FaultKind.TORN_WRITE, FaultKind.ENOSPC, FaultKind.FSYNC_FAIL,
})

#: Kinds the proxy-fleet chaos harness (``repro.proxy.fleet``) consults.
FLEET_FAULT_KINDS = frozenset({
    FaultKind.KILL_SHARD, FaultKind.STALL_SHARD, FaultKind.SLOW_CLIENT,
})


@dataclass(frozen=True)
class FaultRule:
    """One line of a fault plan: which events fail, and how.

    Selection fields compose with AND: an event fires the rule when it
    matches ``at``/``every``/``after``, the URL filter, the
    conditional-only filter, the remaining ``limit`` budget, and the
    seeded coin all at once.

    Args:
        kind: the failure mode.
        probability: chance an eligible event fires (seeded coin; 1.0
            fires every eligible event).
        at: explicit 0-based event indices (job indices for
            ``KILL_WORKER`` rules); empty = any index.
        every: fire only every Nth event (1-based stride; 0 = any).
        after: ignore events before this index.
        limit: total fires allowed (0 = unlimited).
        url_substring: only URLs containing this substring.
        conditional_only: only conditional (If-Modified-Since) requests
            — i.e. the proxy's revalidation traffic.
        delay_seconds: sleep for ``DELAY`` rules; stall duration for
            ``STALL_SHARD`` rules.
        truncate_to: body bytes kept for ``TRUNCATE`` rules.
        status: response code for ``ERROR`` rules.
        shard: target shard index for ``KILL_SHARD``/``STALL_SHARD``
            rules (their ``at`` indices name load-generator requests).
    """

    kind: FaultKind
    probability: float = 1.0
    at: Tuple[int, ...] = ()
    every: int = 0
    after: int = 0
    limit: int = 0
    url_substring: str = ""
    conditional_only: bool = False
    delay_seconds: float = 0.1
    truncate_to: int = 32
    status: int = 503
    shard: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", FaultKind(self.kind))
        object.__setattr__(self, "at", tuple(self.at))
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.every < 0 or self.after < 0 or self.limit < 0:
            raise ValueError("every/after/limit must be >= 0")
        if not 500 <= self.status <= 599:
            raise ValueError("ERROR rules must use a 5xx status")
        if self.shard < 0:
            raise ValueError("shard must be >= 0")

    def matches(self, index: int, url: str, conditional: bool) -> bool:
        """Deterministic (coin-free) eligibility of event ``index``."""
        if self.at and index not in self.at:
            return False
        if self.every and (index + 1) % self.every != 0:
            return False
        if index < self.after:
            return False
        if self.url_substring and self.url_substring not in url:
            return False
        if self.conditional_only and not conditional:
            return False
        return True

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {"kind": self.kind.value}
        for spec in fields(self):
            if spec.name == "kind":
                continue
            value = getattr(self, spec.name)
            if value != spec.default:
                record[spec.name] = list(value) if spec.name == "at" else value
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "FaultRule":
        known = {spec.name for spec in fields(cls)}
        unknown = set(record) - known
        if unknown:
            raise ValueError(f"unknown fault rule fields {sorted(unknown)}")
        kwargs = dict(record)
        if "at" in kwargs:
            kwargs["at"] = tuple(kwargs["at"])  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serialisable set of fault rules."""

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    @classmethod
    def basic(
        cls,
        drop: float = 0.0,
        error: float = 0.0,
        delay: float = 0.0,
        truncate: float = 0.0,
        seed: int = 0,
        delay_seconds: float = 0.1,
    ) -> "FaultPlan":
        """The common chaos mix: independent per-event probabilities for
        each origin-side failure mode."""
        rules = []
        if drop:
            rules.append(FaultRule(FaultKind.DROP, probability=drop))
        if error:
            rules.append(FaultRule(FaultKind.ERROR, probability=error))
        if delay:
            rules.append(FaultRule(
                FaultKind.DELAY, probability=delay,
                delay_seconds=delay_seconds,
            ))
        if truncate:
            rules.append(FaultRule(FaultKind.TRUNCATE, probability=truncate))
        return cls(rules=tuple(rules), seed=seed)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "FaultPlan":
        rules = tuple(
            FaultRule.from_dict(entry)
            for entry in record.get("rules", ())  # type: ignore[union-attr]
        )
        return cls(rules=rules, seed=int(record.get("seed", 0)))  # type: ignore[arg-type]

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        """Read a plan from a JSON file (the CLI's ``--fault-plan``)."""
        record = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(record, dict):
            raise ValueError(f"{path}: fault plan must be a JSON object")
        return cls.from_dict(record)

    def dump(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8",
        )

    def kill_indices(self) -> frozenset:
        """Sweep job indices at which a worker should die."""
        indices = set()
        for rule in self.rules:
            if rule.kind is FaultKind.KILL_WORKER:
                indices.update(rule.at)
        return frozenset(indices)

    def coordinator_kill_indices(self) -> frozenset:
        """Sweep job indices after whose journaled completion the
        coordinator process itself dies."""
        indices = set()
        for rule in self.rules:
            if rule.kind is FaultKind.KILL_COORDINATOR:
                indices.update(rule.at)
        return frozenset(indices)

    def shard_kill_points(self) -> Dict[int, Tuple[int, ...]]:
        """Load-generator request index -> shard indices SIGKILLed there."""
        points: Dict[int, Tuple[int, ...]] = {}
        for rule in self.rules:
            if rule.kind is FaultKind.KILL_SHARD:
                for index in rule.at:
                    points[index] = points.get(index, ()) + (rule.shard,)
        return points

    def shard_stall_points(self) -> Dict[int, Tuple[Tuple[int, float], ...]]:
        """Request index -> ``(shard, stall_seconds)`` pairs fired there."""
        points: Dict[int, Tuple[Tuple[int, float], ...]] = {}
        for rule in self.rules:
            if rule.kind is FaultKind.STALL_SHARD:
                for index in rule.at:
                    points[index] = points.get(index, ()) + (
                        (rule.shard, rule.delay_seconds),
                    )
        return points

    def slow_client_indices(self, requests: int) -> frozenset:
        """Load-generator request indices served by a slowloris client.

        Resolved up front by consulting a ``SLOW_CLIENT``-filtered
        injector once per scheduled request (in index order), so the
        selection is a pure function of the plan — concurrency in the
        load generator cannot perturb it.
        """
        if not any(
            rule.kind is FaultKind.SLOW_CLIENT for rule in self.rules
        ):
            return frozenset()
        injector = FaultInjector(
            self, kinds=frozenset({FaultKind.SLOW_CLIENT}),
        )
        return frozenset(
            index for index in range(requests)
            if injector.next_fault() is not None
        )

    def injector(self) -> "FaultInjector":
        """An origin-side injector (drop/delay/truncate/error rules)."""
        return FaultInjector(self)

    def disk_injector(self) -> Optional["FaultInjector"]:
        """A disk-side injector over the plan's disk-fault rules, or
        ``None`` when the plan schedules no disk faults (so callers can
        skip the per-write consult entirely)."""
        if not any(rule.kind in DISK_FAULT_KINDS for rule in self.rules):
            return None
        return FaultInjector(self, kinds=DISK_FAULT_KINDS)


class FaultInjector:
    """Stateful, thread-safe executor of a :class:`FaultPlan`.

    Each call to :meth:`next_fault` consumes one event index and returns
    the first matching rule (plan order), or ``None``.  The coin for
    ``(event, rule)`` is an independent seeded RNG, so outcomes do not
    depend on how many other rules were consulted.

    ``kinds`` restricts which rules this injector executes (origin-side
    by default); injectors with different kind filters keep independent
    event counters, so disk writes and origin contacts never perturb
    each other's schedules.
    """

    def __init__(
        self,
        plan: FaultPlan,
        kinds: Optional[frozenset] = None,
    ) -> None:
        self.plan = plan
        self.kinds = ORIGIN_FAULT_KINDS if kinds is None else frozenset(kinds)
        self._lock = threading.Lock()
        self._event = 0
        self._fired: Counter = Counter()
        #: Fault counts by kind value, for chaos reports.
        self.counts: Counter = Counter()
        #: Optional ``f(kind_value)`` observability hook, called outside
        #: the injector's lock for every fault that fires (the chaos
        #: harness points it at its metrics registry).
        self.on_fault: Optional[Callable[[str], None]] = None

    @property
    def events(self) -> int:
        """Events (origin contacts) seen so far."""
        return self._event

    def _coin(self, rule_index: int, event_index: int, p: float) -> bool:
        if p >= 1.0:
            return True
        rng = __import__("random").Random(
            (self.plan.seed * 1_000_003 + event_index) * 97 + rule_index
        )
        return rng.random() < p

    def next_fault(
        self, url: str = "", conditional: bool = False,
    ) -> Optional[FaultRule]:
        """Decide the fate of the next origin contact."""
        fired: Optional[FaultRule] = None
        with self._lock:
            index = self._event
            self._event += 1
            for rule_index, rule in enumerate(self.plan.rules):
                if rule.kind not in self.kinds:
                    continue
                if rule.limit and self._fired[rule_index] >= rule.limit:
                    continue
                if not rule.matches(index, url, conditional):
                    continue
                if not self._coin(rule_index, index, rule.probability):
                    continue
                self._fired[rule_index] += 1
                self.counts[rule.kind.value] += 1
                fired = rule
                break
        if fired is not None and self.on_fault is not None:
            self.on_fault(fired.kind.value)
        return fired

    def summary(self) -> Dict[str, int]:
        """Events seen and faults injected, by kind."""
        report = {"events": self._event}
        report.update(sorted(self.counts.items()))
        return report


class FaultyOriginServer(OriginServer):
    """An :class:`OriginServer` that fails on schedule.

    Wraps the normal request handling with a :class:`FaultInjector`
    consult: matched requests are dropped, delayed, truncated, or
    answered with a 5xx instead of (or around) the synthetic document.
    """

    def __init__(
        self,
        injector: FaultInjector,
        site: Optional[SyntheticSite] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 5.0,
        sleep=_time.sleep,
    ) -> None:
        super().__init__(site=site, host=host, port=port, timeout=timeout)
        self.injector = injector
        self._sleep = sleep

    def reply(
        self, connection: socket.socket, request: HttpRequest, peer: str,
    ) -> None:
        """DROP and TRUNCATE act on the socket itself, so the fault is
        applied where the response is written, not where it is built."""
        fault = self.injector.next_fault(
            url=request.url,
            conditional=request.if_modified_since is not None,
        )
        kind = fault.kind if fault is not None else None
        if kind is FaultKind.DROP:
            return  # close without a byte: the client sees EOF
        if kind is FaultKind.ERROR:
            connection.sendall(HttpResponse(
                status=fault.status, headers={"X-Fault": "error"},
            ).serialize())
            return
        if kind is FaultKind.DELAY:
            self._sleep(fault.delay_seconds)
        raw = self.respond(request).serialize()
        if kind is FaultKind.TRUNCATE:
            # Full headers (so Content-Length promises the whole body)
            # but only a prefix of the body itself.
            head, sep, body = raw.partition(b"\r\n\r\n")
            raw = head + sep + body[:max(0, fault.truncate_to)]
        connection.sendall(raw)
