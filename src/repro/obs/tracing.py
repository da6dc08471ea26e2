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
make every span a no-op.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Deque, Dict, Iterable, List, Optional, Union

__all__ = ["SpanHandle", "Tracer"]


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

    #: Span-buffer bound: long-lived servers (proxy, router) record a
    #: span per request, so the buffer is a ring — the oldest spans are
    #: dropped (and counted) once the cap is hit.
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
        within the absorbed batch)."""
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
