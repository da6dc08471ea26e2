"""Tracing spans with parent/child nesting and Chrome trace export.

A :class:`Tracer` hands out context-managed spans::

    with tracer.span("sweep.job", policy="SIZE", capacity=1 << 20):
        ...

Spans nest through a per-thread stack, so a span opened inside another
records it as its parent.  The collected spans serve two outputs:

* :meth:`Tracer.phase_breakdown` — per-span-name wall-time aggregates
  (count / total / max), the numbers behind ``repro obs summarize``;
* :meth:`Tracer.to_chrome_trace` — Chrome ``trace_event`` JSON
  (``"X"`` complete events) loadable in ``about:tracing`` or Perfetto.
  Spans absorbed from sweep workers keep their own ``pid``, so a
  parallel sweep renders as one row per worker process.

Timing uses ``time.perf_counter`` and therefore does not perturb any
simulation state; a tracer can also be constructed ``enabled=False`` to
make every span a no-op and hold nothing, absorbed spans included.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Deque, Dict, Iterable, List, Optional, Tuple,
    Union,
)

if TYPE_CHECKING:
    from repro.obs import Obs

__all__ = [
    "SpanHandle",
    "Tracer",
    "TRACE_CONTEXT_HEADER",
    "TRACE_ID_HEADER",
    "MAX_HOPS",
    "TraceContext",
    "continue_trace",
    "extract_trace_context",
    "set_trace_header",
]


class SpanHandle:
    """Lets code inside a span attach arguments after the fact."""

    __slots__ = ("record", "_clock")

    def __init__(
        self, record: dict, clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.record = record
        self._clock = clock or time.perf_counter

    def set(self, **args: object) -> None:
        self.record["args"].update(args)

    def event(self, name: str, **fields: object) -> None:
        """Attach a timestamped point event (failover hop, shed
        decision, ...) to the span."""
        record = dict(fields)
        record["name"] = name
        record["ts"] = self._clock()
        self.record.setdefault("events", []).append(record)

    @property
    def name(self) -> str:
        return self.record["name"]


class _Span(SpanHandle):
    """What :meth:`Tracer.span` returns: entering it opens the span and
    hands back this same object as the span's handle."""

    __slots__ = ("_tracer", "_name", "_args", "_stack")

    def __init__(self, tracer: "Tracer", name: str, args: dict) -> None:
        self._tracer = tracer
        self._clock = tracer.clock
        self._name = name
        self._args = args

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        stack = self._stack = tracer._stack()
        self.record = record = {
            "id": 0,
            "parent": stack[-1]["id"] if stack else None,
            "name": self._name,
            "start": self._clock(),
            "end": None,
            "args": self._args,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        with tracer._lock:
            tracer._next_id += 1
            record["id"] = tracer._next_id
            # Appended at open time: parents precede their children.
            tracer._retain_locked((record,))
        stack.append(record)
        return self

    def __exit__(self, *exc) -> None:
        self._stack.pop()
        self.record["end"] = self._clock()


#: What a disabled tracer's ``span()`` returns: enters to ``None``.
_NO_SPAN = nullcontext()


class Tracer:
    """Collects nested spans from any number of threads."""

    #: Span-buffer bound: a long-lived server handed a recording ``Obs``
    #: keeps a span per request, so the buffer is a ring — the oldest
    #: spans are dropped (and counted) once the cap is hit.
    MAX_SPANS = 65536

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        enabled: bool = True,
        max_spans: int = MAX_SPANS,
    ) -> None:
        self.clock = clock
        self.enabled = enabled
        self.max_spans = max_spans
        self.dropped = 0
        self._lock = threading.Lock()
        self._spans: Deque[dict] = deque(maxlen=max_spans)
        self._local = threading.local()
        self._next_id = 0

    def _retain_locked(self, records) -> None:
        """Append to the ring, counting what falls off its old end."""
        spans = self._spans
        overflow = len(spans) + len(records) - self.max_spans
        if overflow > 0:
            self.dropped += overflow
        spans.extend(records)

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **args: object):
        """A context manager that opens a span when entered; nesting is
        tracked per thread."""
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, name, args)

    def absorb(self, spans: Iterable[dict]) -> None:
        """Fold spans exported from another process in, re-keying ids so
        they cannot collide with local ones (parent links are remapped
        within the absorbed batch).  A disabled tracer drops the batch."""
        if not self.enabled:
            return
        batch = [dict(span) for span in spans]
        with self._lock:
            mapping: Dict[int, int] = {}
            for span in batch:
                self._next_id += 1
                mapping[span["id"]] = self._next_id
                span["id"] = self._next_id
            for span in batch:
                if span.get("parent") is not None:
                    span["parent"] = mapping.get(span["parent"])
            self._retain_locked(batch)

    # -- inspection ----------------------------------------------------------

    def spans(self) -> List[dict]:
        with self._lock:
            out = []
            for span in self._spans:
                copy = dict(span)
                if "events" in copy:
                    copy["events"] = [dict(ev) for ev in copy["events"]]
                out.append(copy)
            return out

    def to_dicts(self) -> List[dict]:
        """Alias of :meth:`spans` (the worker export path)."""
        return self.spans()

    def phase_breakdown(self) -> Dict[str, dict]:
        """Per-span-name aggregates: count, total and max seconds."""
        out: Dict[str, dict] = {}
        for span in self.spans():
            if span["end"] is None:
                continue
            seconds = span["end"] - span["start"]
            entry = out.setdefault(
                span["name"],
                {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0},
            )
            entry["count"] += 1
            entry["total_seconds"] += seconds
            entry["max_seconds"] = max(entry["max_seconds"], seconds)
        return out

    # -- Chrome trace_event export -------------------------------------------

    def to_chrome_trace(self) -> dict:
        """The span set as Chrome ``trace_event`` JSON (Perfetto-ready).

        Per-pid timebases are normalised independently (worker clocks
        are process-relative), so every process's first span starts at
        ts 0 on its own row.
        """
        spans = [span for span in self.spans() if span["end"] is not None]
        epoch_by_pid: Dict[int, float] = {}
        for span in spans:
            pid = span["pid"]
            start = span["start"]
            if pid not in epoch_by_pid or start < epoch_by_pid[pid]:
                epoch_by_pid[pid] = start
        events: List[dict] = []
        for pid in sorted(epoch_by_pid):
            events.append({
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {
                    "name": "repro" if pid == os.getpid()
                    else f"repro worker {pid}",
                },
            })
        for span in spans:
            epoch = epoch_by_pid[span["pid"]]
            events.append({
                "name": span["name"],
                "cat": "repro",
                "ph": "X",
                "ts": (span["start"] - epoch) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "pid": span["pid"],
                "tid": span["tid"],
                "args": dict(span["args"], span_id=span["id"]),
            })
            for point in span.get("events", ()):
                args = {
                    key: value for key, value in point.items()
                    if key not in ("name", "ts")
                }
                events.append({
                    "name": f"{span['name']}.{point['name']}",
                    "cat": "repro",
                    "ph": "i",
                    "s": "t",
                    "ts": (point["ts"] - epoch) * 1e6,
                    "pid": span["pid"],
                    "tid": span["tid"],
                    "args": dict(args, span_id=span["id"]),
                })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Union[str, Path]) -> int:
        """Write the Chrome trace JSON; returns the event count."""
        trace = self.to_chrome_trace()
        Path(path).write_text(
            json.dumps(trace, sort_keys=True), encoding="utf-8",
        )
        return len(trace["traceEvents"])


# -- cross-process trace context ----------------------------------------------
#
# The router stamps an ``X-Trace-Context`` header, shards and the origin
# continue it, so spans recorded in each process assemble into one tree
# (:func:`repro.obs.telemetry.assemble_span_tree`).  A malformed or
# missing header always degrades to a fresh root span: propagation can
# never 500 a request.


#: The propagation header: ``00-<32hex trace>-<16hex span>-<2hex hops>``
#: (the W3C ``traceparent`` layout with the flags byte repurposed as a
#: hop counter so a forwarding loop is self-evident in the header).
TRACE_CONTEXT_HEADER = "X-Trace-Context"

#: Response header carrying the request's trace id back to the client.
TRACE_ID_HEADER = "X-Trace-Id"

_HEADER_KEY = TRACE_CONTEXT_HEADER.lower()

_TRACE_RE = re.compile(
    r"^00-(?P<trace>[0-9a-f]{32})-(?P<span>[0-9a-f]{16})"
    r"-(?P<hops>[0-9a-f]{2})$"
)

#: A context whose hop counter reached this is no longer forwarded as a
#: parent — the chain restarts (loop guard, mirroring max forwards).
MAX_HOPS = 255


@dataclass(frozen=True)
class TraceContext:
    """One hop's identity on a request's path through the fleet.

    ``trace_id`` names the whole request journey; ``span_id`` names this
    process's hop; ``hops`` counts forwards so far.  Ids are random
    (uniqueness matters, reproducibility explicitly does not — they are
    measured data and never enter a deterministic report section).
    """

    trace_id: str
    span_id: str
    hops: int = 0

    def header_value(self) -> str:
        return f"00-{self.trace_id}-{self.span_id}-{self.hops:02x}"

    @classmethod
    def parse(cls, value: object) -> Optional["TraceContext"]:
        """Parse a header value; ``None`` on *anything* malformed."""
        if not isinstance(value, str):
            return None
        match = _TRACE_RE.match(value.strip().lower())
        if match is None:
            return None
        return cls(
            trace_id=match.group("trace"),
            span_id=match.group("span"),
            hops=int(match.group("hops"), 16),
        )

    @classmethod
    def root(cls) -> "TraceContext":
        """Mint a fresh context at the edge of the fleet."""
        return cls(
            trace_id=os.urandom(16).hex(),
            span_id=os.urandom(8).hex(),
            hops=0,
        )

    def child(self) -> "TraceContext":
        """The next hop: same trace, fresh span id, hop count up."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=os.urandom(8).hex(),
            hops=min(self.hops + 1, MAX_HOPS),
        )


def extract_trace_context(headers: Dict[str, str]) -> Optional[TraceContext]:
    """The inbound :class:`TraceContext`, or ``None`` when the header is
    absent or malformed (case-insensitive header lookup: a parsed
    request's names are lowercase, a hand-built one's canonical)."""
    value = headers.get(TRACE_CONTEXT_HEADER, headers.get(_HEADER_KEY))
    if value is None:
        value = next((
            v for n, v in headers.items() if n.lower() == _HEADER_KEY
        ), None)
    return TraceContext.parse(value)


def continue_trace(obs: Obs, name: str, request) -> Tuple[TraceContext, object]:
    """This hop's context and its (not yet entered) ``name`` span.

    The hop continues the request's trace when it carries a well-formed
    ``X-Trace-Context`` and is a fresh root otherwise — a malformed
    header parses to ``None``, never to an error response.
    """
    inbound = extract_trace_context(request.headers)
    ctx = inbound.child() if inbound is not None else TraceContext.root()
    return ctx, obs.span(
        name,
        url=request.url,
        trace_id=ctx.trace_id,
        ctx=ctx.span_id,
        parent_ctx=inbound.span_id if inbound is not None else None,
    )


def set_trace_header(headers: Dict[str, str], ctx: TraceContext) -> None:
    """Stamp ``ctx`` onto a header dict in place.

    Any case-variant of the header already present (e.g. the lowercased
    inbound copy a parsed request carries) is removed first, so a
    forwarded request never carries two conflicting contexts.
    """
    for name in [n for n in headers if n.lower() == _HEADER_KEY]:
        del headers[name]
    headers[TRACE_CONTEXT_HEADER] = ctx.header_value()
