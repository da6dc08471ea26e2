"""repro.obs — the unified observability subsystem.

Every layer of the reproduction reports into one of three sinks, bundled
by the :class:`Obs` facade that call sites pass around:

* a **metrics registry** (:mod:`repro.obs.metrics`): Counter / Gauge /
  Histogram families with labels, process-safe snapshots, and
  Prometheus text exposition — served live by the proxy's
  ``GET /metrics`` endpoint and written by every CLI command's
  ``--metrics-out``;
* a **structured event log** (:mod:`repro.obs.events`): levelled,
  per-subsystem channels, JSONL on disk, reproducible for seeded runs;
* **tracing spans** (:mod:`repro.obs.tracing`): nested wall-time spans
  exported as Chrome ``trace_event`` JSON (``--trace-out``, viewable in
  ``about:tracing`` / Perfetto) and aggregated into per-phase
  breakdowns by ``repro obs summarize``.  Spans are recorded only where
  someone reads them: a CLI run given ``--trace-out``, or a caller that
  passes its own :class:`Obs` (see :meth:`Obs.private`).

Metric names are declared once, in :mod:`repro.obs.catalog`; the
``repro obs check`` lint (:mod:`repro.obs.check`) fails on duplicate or
unregistered names.

Instrumentation never perturbs simulation results: nothing here touches
an RNG or policy state, and the serial-vs-parallel differential tests
run instrumented.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from repro.obs.events import LEVELS, Channel, EventLog
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    CardinalityError,
    Counter,
    DuplicateMetricError,
    Gauge,
    Histogram,
    MetricError,
    Registry,
    render_prometheus,
)
from repro.obs.profile import Profiler
from repro.obs.tracing import SpanHandle, Tracer

__all__ = [
    "Obs",
    "Profiler",
    "Registry",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "DuplicateMetricError",
    "CardinalityError",
    "DEFAULT_BUCKETS",
    "render_prometheus",
    "EventLog",
    "Channel",
    "LEVELS",
    "Tracer",
    "SpanHandle",
]


class Obs:
    """One run's observability context: registry + event log + tracer.

    Cheap to construct.  A component that accepts an optional ``obs``
    and is handed none builds :meth:`private`: its metrics registry and
    event log collect as usual (a server's ``GET /metrics`` serves every
    family), but its tracer is disabled, because no caller could ever
    export the spans.  Passing your own ``Obs()`` or :meth:`create`
    records spans too.
    """

    def __init__(
        self,
        registry: Optional[Registry] = None,
        events: Optional[EventLog] = None,
        tracer: Optional[Tracer] = None,
        profiler: Optional[Profiler] = None,
    ) -> None:
        self.registry = registry if registry is not None else Registry()
        self.events = events if events is not None else EventLog()
        self.tracer = tracer if tracer is not None else Tracer()
        #: Optional deterministic profiler (:mod:`repro.obs.profile`).
        #: ``None`` by default: phase timing costs two clock reads per
        #: cache access, so callers opt in.
        self.profiler = profiler

    @classmethod
    def create(
        cls,
        log_level: Union[str, int] = "info",
        clock: Optional[Callable[[], float]] = None,
        spans: bool = True,
    ) -> "Obs":
        """The common construction: a fresh context at one log level,
        recording spans unless ``spans`` is false."""
        return cls(
            events=EventLog(level=log_level, clock=clock),
            tracer=Tracer(enabled=spans),
        )

    @classmethod
    def private(cls) -> "Obs":
        """A component's own context when its caller passed none: metrics
        and events as usual, no spans (nobody can read them)."""
        return cls(tracer=Tracer(enabled=False))

    # -- conveniences mirroring the member APIs ------------------------------

    def span(self, name: str, **args: object):
        return self.tracer.span(name, **args)

    def channel(self, name: str) -> Channel:
        return self.events.channel(name)

    # -- cross-process transport ---------------------------------------------

    def export(self) -> dict:
        """Everything collected, as one picklable payload (worker side)."""
        return {
            "metrics": self.registry.snapshot(),
            "spans": self.tracer.to_dicts(),
            "events": self.events.to_dicts(),
        }

    def absorb(self, payload: dict) -> None:
        """Fold an :meth:`export` from another process in (parent side).

        Callers absorb payloads in a deterministic order (the sweep
        engine uses job order) to keep merged event streams reproducible.
        Other keys (the ``"profile"`` leg older checkpoint journals
        carry) are ignored.
        """
        self.registry.merge(payload.get("metrics", {}))
        self.tracer.absorb(payload.get("spans", ()))
        self.events.absorb(payload.get("events", ()))
