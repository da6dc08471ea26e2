"""Admission control and the saturation ladder for overloaded servers.

A server that accepts every connection under overload fails all of them:
queues grow without bound, every request times out, and the failure is
indistinguishable from a hang.  This module implements the standard
alternative — *bounded* concurrency with explicit load shedding — as a
small, socket-free state machine both tiers of the proxy fleet share
(the shard proxy's handler pool and the front router's forwarding pool).

:class:`AdmissionController` tracks in-flight requests against a hard
bound and recent latency against a p95 budget, and derives the current
**saturation mode**:

* ``full`` — normal service: every admitted request may reach the origin.
* ``hit-only`` — degraded: pressure is high, so only work the cache can
  answer locally (fresh hits, stale copies) is served; misses are shed
  with a well-formed ``503 + Retry-After`` instead of queueing behind an
  origin fetch nobody will wait for.
* ``shed`` — saturated: the in-flight bound is reached and new arrivals
  are refused at the door (also ``503 + Retry-After``), which keeps the
  response to overload *fast* — never a hang, never a reset.

Transitions are driven purely by queue depth and the recorded latency
window, so the ladder is testable without sockets; time spent in each
mode accumulates for the ``*_degraded_seconds_total`` metrics.
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.obs.metrics import sample_quantile

__all__ = ["MODES", "OverloadPolicy", "AdmissionController"]

#: The saturation ladder, least to most degraded.
MODES = ("full", "hit-only", "shed")


@dataclass(frozen=True)
class OverloadPolicy:
    """Configuration for one tier's admission control.

    Args:
        max_inflight: hard bound on admitted-but-unfinished requests
            (the handler pool plus its queue); arrivals beyond it are
            shed.
        hit_only_at: fraction of ``max_inflight`` at or above which the
            tier degrades to hit-only service.
        p95_budget: seconds; when the recent p95 latency exceeds this,
            the tier degrades to hit-only even with queue headroom
            (0 disables the latency driver).
        latency_window: how many recent request latencies feed the p95.
        retry_after: baseline ``Retry-After`` hint in seconds; doubled
            per ladder step so backoff deepens as saturation does.
    """

    max_inflight: int = 64
    hit_only_at: float = 0.75
    p95_budget: float = 0.0
    latency_window: int = 64
    retry_after: float = 1.0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if not 0.0 < self.hit_only_at <= 1.0:
            raise ValueError("hit_only_at must be in (0, 1]")
        if self.p95_budget < 0 or self.retry_after <= 0:
            raise ValueError("p95_budget >= 0 and retry_after > 0 required")
        if self.latency_window < 1:
            raise ValueError("latency_window must be >= 1")


class AdmissionController:
    """Thread-safe bounded admission plus the saturation-mode ladder.

    ``on_transition(old_mode, new_mode)`` — when provided — fires on
    every ladder move, outside the lock (observability hooks must never
    be able to deadlock the request path).
    """

    def __init__(
        self,
        policy: Optional[OverloadPolicy] = None,
        clock: Callable[[], float] = _time.monotonic,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        self.policy = policy if policy is not None else OverloadPolicy()
        self.on_transition = on_transition
        self._clock = clock
        self._lock = threading.Lock()
        self._inflight = 0
        self._shed = 0
        self._latencies: List[float] = []
        self._latency_next = 0
        self._mode = "full"
        self._mode_since = clock()
        self._mode_seconds: Dict[str, float] = {mode: 0.0 for mode in MODES}

    # -- admission ---------------------------------------------------------------

    def try_admit(self) -> bool:
        """Admit one request, or refuse it because the tier is full.

        A refusal is the *shed* outcome: the caller answers with a
        well-formed ``503 + Retry-After`` and closes.
        """
        with self._lock:
            if self._inflight >= self.policy.max_inflight:
                self._shed += 1
                old, new = self._step_locked()
                self._notify(old, new)
                return False
            self._inflight += 1
            old, new = self._step_locked()
        self._notify(old, new)
        return True

    def release(self, latency_seconds: Optional[float] = None) -> None:
        """Finish one admitted request, optionally recording its latency."""
        with self._lock:
            self._inflight = max(0, self._inflight - 1)
            if latency_seconds is not None:
                if len(self._latencies) < self.policy.latency_window:
                    self._latencies.append(latency_seconds)
                else:
                    self._latencies[self._latency_next] = latency_seconds
                self._latency_next = (
                    (self._latency_next + 1) % self.policy.latency_window
                )
            old, new = self._step_locked()
        self._notify(old, new)

    # -- the ladder --------------------------------------------------------------

    def _p95_locked(self) -> float:
        return sample_quantile(sorted(self._latencies), 0.95)

    def _target_mode_locked(self) -> str:
        policy = self.policy
        if self._inflight >= policy.max_inflight:
            return "shed"
        if self._inflight >= policy.hit_only_at * policy.max_inflight:
            return "hit-only"
        if policy.p95_budget and self._p95_locked() > policy.p95_budget:
            return "hit-only"
        return "full"

    def _step_locked(self) -> "tuple[str, str]":
        """Move the ladder if pressure changed; returns (old, new)."""
        target = self._target_mode_locked()
        if target == self._mode:
            return self._mode, self._mode
        now = self._clock()
        self._mode_seconds[self._mode] += now - self._mode_since
        old, self._mode = self._mode, target
        self._mode_since = now
        return old, target

    def _notify(self, old: str, new: str) -> None:
        if old != new and self.on_transition is not None:
            self.on_transition(old, new)

    # -- observation -------------------------------------------------------------

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    @property
    def shed_count(self) -> int:
        """Requests refused at the door since start."""
        with self._lock:
            return self._shed

    @property
    def mode(self) -> str:
        with self._lock:
            old, new = self._step_locked()
        self._notify(old, new)
        return new

    def mode_index(self) -> int:
        """The ladder position (0 = full) for the degraded-mode gauge."""
        return MODES.index(self.mode)

    def retry_after_seconds(self) -> float:
        """The ``Retry-After`` hint, deepening with saturation."""
        return self.policy.retry_after * (2 ** self.mode_index())

    def snapshot(self) -> Dict[str, object]:
        """The controller's current state *without* flushing anything —
        telemetry payloads read this; metrics scrapes (which own the
        degraded-seconds counters) use :meth:`flush_mode_seconds`."""
        with self._lock:
            now = self._clock()
            mode_seconds = dict(self._mode_seconds)
            mode_seconds[self._mode] += now - self._mode_since
            return {
                "mode": self._mode,
                "inflight": self._inflight,
                "shed": self._shed,
                "mode_seconds": {
                    mode: round(seconds, 6)
                    for mode, seconds in mode_seconds.items()
                },
            }

    def flush_mode_seconds(self) -> Dict[str, float]:
        """Seconds accumulated per mode since the last flush (the
        current mode's open interval included).  Metrics scrapes add
        these deltas to the ``*_degraded_seconds_total`` counters."""
        with self._lock:
            now = self._clock()
            self._mode_seconds[self._mode] += now - self._mode_since
            self._mode_since = now
            flushed = dict(self._mode_seconds)
            self._mode_seconds = {mode: 0.0 for mode in MODES}
        return flushed
