"""Retry and circuit-breaking primitives for the operational substrate.

The paper's proxy sits between unreliable clients and unreliable origins;
a production cache must keep serving when an origin flaps.  This module
provides the two standard mechanisms the proxy composes:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  deterministic (seedable) jitter.  A policy is pure configuration: it
  computes delays but never sleeps, so callers inject their own clock
  and sleep function and tests run instantly.
* :class:`CircuitBreaker` — a per-origin failure gate.  After
  ``failure_threshold`` consecutive terminal failures the breaker
  *opens* and requests fail fast (no connection attempt) until
  ``reset_after`` seconds pass, at which point one probe request is
  allowed through (*half-open*); its outcome closes or re-opens the
  breaker.
* :class:`Deadline` — a total-time budget carried across tiers.  The
  fleet router stamps each forwarded request with its remaining budget
  (``X-Deadline-Ms``); the shard proxy parses it back and clamps every
  origin attempt and backoff wait so retries can never outlive the
  client's overall timeout, no matter how many tiers retried.

Neither class knows anything about HTTP or sockets; the proxy wires them
around its origin fetches (see :mod:`repro.proxy.server`).
"""

from __future__ import annotations

import random
import threading
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional

__all__ = [
    "DEADLINE_HEADER",
    "Deadline",
    "RetryPolicy",
    "CircuitBreaker",
    "BreakerRegistry",
]

#: Header carrying the remaining request budget in integer milliseconds.
#: Parsed case-insensitively (HTTP headers are), emitted in this case.
DEADLINE_HEADER = "X-Deadline-Ms"


@dataclass(frozen=True)
class Deadline:
    """An absolute point on a monotonic clock before which a request's
    whole lifetime — queueing, every retry attempt, every backoff wait —
    must finish.

    Budgets shrink as they cross tiers: the router constructs one from
    the client budget, forwards the *remaining* milliseconds to the
    shard, which forwards its remainder to the origin fetch.  A tier
    that receives an exhausted deadline fails immediately instead of
    doing work whose answer nobody is still waiting for.
    """

    expires_at: float
    clock: Callable[[], float] = field(
        default=_time.monotonic, compare=False, repr=False,
    )

    @classmethod
    def after(
        cls, budget_seconds: float, clock: Callable[[], float] = _time.monotonic,
    ) -> "Deadline":
        """A deadline ``budget_seconds`` from now."""
        if budget_seconds <= 0:
            raise ValueError("budget_seconds must be positive")
        return cls(expires_at=clock() + budget_seconds, clock=clock)

    @classmethod
    def from_header(
        cls, value: Optional[str], clock: Callable[[], float] = _time.monotonic,
    ) -> Optional["Deadline"]:
        """Parse an ``X-Deadline-Ms`` header value; ``None`` when it is
        absent or unusable (a malformed budget must never 500 a request)."""
        if value is None:
            return None
        try:
            millis = int(str(value).strip())
        except (TypeError, ValueError):
            return None
        if millis <= 0:
            # An already-spent budget is still a deadline: now.
            return cls(expires_at=clock(), clock=clock)
        return cls(expires_at=clock() + millis / 1000.0, clock=clock)

    def remaining(self) -> float:
        """Seconds left, floored at zero."""
        return max(0.0, self.expires_at - self.clock())

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def header_value(self) -> str:
        """The remaining budget as the integer-millisecond header value."""
        return str(int(self.remaining() * 1000.0))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry configuration with exponential backoff + jitter.

    Args:
        timeout: per-attempt socket timeout in seconds.
        max_retries: retries *after* the first attempt (0 = no retries).
        backoff_base: delay before the first retry, seconds.
        backoff_factor: multiplier applied per subsequent retry.
        max_backoff: upper bound on any single delay.
        jitter: fraction of each delay randomized away (0 = none,
            0.5 = delay drawn uniformly from [0.5d, d]).  Jitter draws
            come from the caller-supplied RNG, so a seeded
            ``random.Random`` makes the schedule fully deterministic.
    """

    timeout: float = 5.0
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    max_backoff: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    @property
    def attempts(self) -> int:
        """Total attempts including the first."""
        return 1 + self.max_retries

    def delay(self, retry_index: int, rng: random.Random) -> float:
        """Backoff before retry ``retry_index`` (0-based), jittered."""
        if retry_index < 0:
            raise ValueError("retry_index must be >= 0")
        delay = min(
            self.max_backoff,
            self.backoff_base * self.backoff_factor ** retry_index,
        )
        if self.jitter:
            delay *= 1.0 - self.jitter * rng.random()
        return delay

    def delays(self, rng: random.Random) -> Iterator[float]:
        """The full backoff schedule, one delay per permitted retry."""
        for index in range(self.max_retries):
            yield self.delay(index, rng)

    def worst_case_seconds(self) -> float:
        """Upper bound on one fetch: every attempt times out, every
        backoff runs un-jittered.  Callers waiting on the proxy (the
        replay client, tests) use this to size their own timeouts."""
        backoff = sum(
            min(self.max_backoff, self.backoff_base * self.backoff_factor ** i)
            for i in range(self.max_retries)
        )
        return self.attempts * self.timeout + backoff


class CircuitBreaker:
    """A consecutive-failure gate for one origin.

    States: *closed* (requests flow), *open* (requests fail fast),
    *half-open* (one probe allowed).  Thread-safe; time is passed in by
    the caller so the proxy's injectable clock drives it.

    ``on_transition(old_state, new_state)`` — when provided — fires on
    every state change, *outside* the breaker's lock (observability
    hooks must never be able to deadlock the request path).
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_after: float = 30.0,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_after <= 0:
            raise ValueError("reset_after must be positive")
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self.on_transition = on_transition
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        self._opened_at: float = 0.0
        self._state = "closed"
        self._probing = False

    @property
    def state(self) -> str:
        return self._state

    def retry_after(self, now: float) -> float:
        """How long a client should wait before retrying this origin.

        While the breaker is open this is the time until the next
        half-open probe is admitted; otherwise the full reset timeout is
        the honest hint (a failure that just opened the breaker will
        gate requests for that long).  Never less than one second, so
        the value is always a legal ``Retry-After``.
        """
        with self._lock:
            if self._state == "open":
                wait = self.reset_after - (now - self._opened_at)
            else:
                wait = self.reset_after
        return max(1.0, wait)

    def _notify(self, old: str, new: str) -> None:
        if old != new and self.on_transition is not None:
            self.on_transition(old, new)

    def allow(self, now: float) -> bool:
        """May a request proceed at time ``now``?  In the open state one
        probe is let through once ``reset_after`` has elapsed."""
        old = new = ""
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if now - self._opened_at >= self.reset_after:
                    old, self._state = self._state, "half-open"
                    new = self._state
                    self._probing = True
                    allowed = True
                else:
                    allowed = False
            elif self._probing:
                # half-open: exactly one in-flight probe at a time.
                allowed = False
            else:
                self._probing = True
                allowed = True
        self._notify(old, new)
        return allowed

    def record_success(self) -> None:
        with self._lock:
            old = self._state
            self._consecutive_failures = 0
            self._state = "closed"
            self._probing = False
        self._notify(old, "closed")

    def record_failure(self, now: float) -> None:
        old = new = ""
        with self._lock:
            self._consecutive_failures += 1
            self._probing = False
            if (self._state == "half-open"
                    or self._consecutive_failures >= self.failure_threshold):
                old, self._state = self._state, "open"
                new = "open"
                self._opened_at = now
        self._notify(old, new)


class BreakerRegistry:
    """Thread-safe map of origin host -> :class:`CircuitBreaker`.

    :attr:`on_transition` — assignable at any time, including after
    breakers exist — receives ``(host, old_state, new_state)`` for every
    state change of every breaker (the proxy points it at its metrics
    and event log).
    """

    def __init__(
        self, failure_threshold: int = 5, reset_after: float = 30.0,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self.on_transition: Optional[Callable[[str, str, str], None]] = None
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}

    def _fire(self, host: str, old: str, new: str) -> None:
        callback = self.on_transition
        if callback is not None:
            callback(host, old, new)

    def for_host(self, host: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(host)
            if breaker is None:
                breaker = CircuitBreaker(
                    self.failure_threshold,
                    self.reset_after,
                    on_transition=(
                        lambda old, new, _host=host:
                        self._fire(_host, old, new)
                    ),
                )
                self._breakers[host] = breaker
            return breaker

    def open_hosts(self) -> Dict[str, str]:
        """host -> state snapshot for diagnostics."""
        with self._lock:
            return {
                host: breaker.state
                for host, breaker in self._breakers.items()
                if breaker.state != "closed"
            }
