"""The metrics registry: Counters, Gauges and Histograms with labels.

One :class:`Registry` holds every metric a component exposes.  The
design follows the Prometheus data model — families identified by name,
children identified by label values, text exposition in the 0.0.4
format — but is dependency-free and adds the two capabilities this
codebase needs that the reference client lacks:

* **process-safe snapshots**: :meth:`Registry.snapshot` flattens the
  whole registry into a plain (picklable, JSON-serialisable) dict and
  :meth:`Registry.merge` folds such a snapshot back in, adding counter
  and histogram samples and last-writing gauges.  Sweep workers run
  with their own registry and ship deltas back to the parent through
  the result pipeline.
* **idempotent registration**: asking for a metric that already exists
  with the *same* kind/help/labels returns the existing family, so
  independent subsystems can share one registry without coordination;
  asking with a *different* signature raises
  :class:`DuplicateMetricError` (the condition ``repro obs check``
  lints for).

Naming convention (enforced by ``repro obs check``, documented in
DESIGN.md §8): ``repro_<subsystem>_<name>``, counters suffixed
``_total``, histograms suffixed with their unit (``_seconds``,
``_bytes``).
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "MetricError",
    "DuplicateMetricError",
    "CardinalityError",
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "DEFAULT_BUCKETS",
    "histogram_quantile",
    "sample_quantile",
    "render_prometheus",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bucket upper bounds (the Prometheus client's
#: defaults): latency-shaped, seconds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class MetricError(ValueError):
    """Invalid metric definition or use."""


class DuplicateMetricError(MetricError):
    """Two different metrics tried to claim the same name."""


class CardinalityError(MetricError):
    """A labelled family exceeded the registry's label-set budget."""


def _format_value(value: float) -> str:
    """Exposition-format a sample value (integers without the ``.0``)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '{}="{}"'.format(
            key,
            str(value).replace("\\", r"\\").replace('"', r"\"")
            .replace("\n", r"\n"),
        )
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


class _CounterChild:
    """One (labelled) counter sample."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class _GaugeChild:
    """One (labelled) gauge sample."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class _HistogramChild:
    """One (labelled) histogram sample: per-bucket counts + sum/count."""

    __slots__ = (
        "_lock", "_edges", "counts", "inf_count", "sum", "count", "exemplar",
    )

    def __init__(self, lock: threading.Lock, edges: Tuple[float, ...]) -> None:
        self._lock = lock
        self._edges = edges
        self.counts = [0] * len(edges)
        self.inf_count = 0
        self.sum = 0.0
        self.count = 0
        #: Most recent exemplar (``{"trace_id": ..., "value": ...}``) or
        #: None.  Exemplars ride along in snapshots/merges but are never
        #: rendered (text format 0.0.4 has no exemplar syntax).
        self.exemplar: Optional[Dict[str, object]] = None

    def observe(self, value: float, exemplar: Optional[object] = None) -> None:
        with self._lock:
            # ``le`` is an inclusive upper bound: a value equal to an
            # edge lands in that edge's bucket.
            index = bisect_left(self._edges, value)
            if index < len(self._edges):
                self.counts[index] += 1
            else:
                self.inf_count += 1
            self.sum += value
            self.count += 1
            if exemplar is not None:
                self.exemplar = {
                    "trace_id": str(exemplar), "value": float(value),
                }

    def cumulative(self) -> List[Tuple[float, int]]:
        """(le, cumulative count) pairs, excluding +Inf."""
        out = []
        running = 0
        for edge, count in zip(self._edges, self.counts):
            running += count
            out.append((edge, running))
        return out


class _Family:
    """A named metric with zero or more label dimensions."""

    kind = ""

    def __init__(
        self,
        registry: "Registry",
        name: str,
        help: str,
        labelnames: Tuple[str, ...],
    ) -> None:
        self.registry = registry
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        if not labelnames:
            self._default = self._make_child()
            self._children[()] = self._default
        else:
            self._default = None

    def _make_child(self):
        raise NotImplementedError

    def signature(self) -> Tuple[str, str, Tuple[str, ...]]:
        return (self.kind, self.help, self.labelnames)

    def labels(self, **labels: object) -> object:
        """The child for one label-value combination (created on use)."""
        if set(labels) != set(self.labelnames):
            raise MetricError(
                f"{self.name} takes labels {list(self.labelnames)}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if len(self._children) >= self.registry.max_label_sets:
                    raise CardinalityError(
                        f"{self.name} exceeded "
                        f"{self.registry.max_label_sets} label sets"
                    )
                child = self._make_child()
                self._children[key] = child
            return child

    def samples(self) -> Iterable[Tuple[Dict[str, str], object]]:
        with self._lock:
            items = list(self._children.items())
        for key, child in items:
            yield dict(zip(self.labelnames, key)), child

    # Unlabelled convenience: the family acts as its own child.

    def _require_default(self):
        if self._default is None:
            raise MetricError(
                f"{self.name} is labelled; use .labels(...) first"
            )
        return self._default


class Counter(_Family):
    """A monotonically increasing count."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        self._require_default().inc(amount)

    @property
    def value(self) -> float:
        return self._require_default().value


class Gauge(_Family):
    """A value that can go up and down."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self._require_default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._require_default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._require_default().dec(amount)

    @property
    def value(self) -> float:
        return self._require_default().value


class Histogram(_Family):
    """A distribution over fixed bucket upper bounds."""

    kind = "histogram"

    def __init__(
        self,
        registry: "Registry",
        name: str,
        help: str,
        labelnames: Tuple[str, ...],
        buckets: Sequence[float],
    ) -> None:
        edges = tuple(sorted(float(edge) for edge in buckets))
        if not edges:
            raise MetricError("histogram needs at least one bucket edge")
        if len(set(edges)) != len(edges):
            raise MetricError("histogram bucket edges must be distinct")
        self.buckets = edges
        super().__init__(registry, name, help, labelnames)

    def signature(self) -> Tuple[str, str, Tuple[str, ...]]:
        return (self.kind, self.help, self.labelnames + self.buckets)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self._lock, self.buckets)

    def observe(self, value: float, exemplar: Optional[object] = None) -> None:
        self._require_default().observe(value, exemplar=exemplar)

    @property
    def sum(self) -> float:
        return self._require_default().sum

    @property
    def count(self) -> int:
        return self._require_default().count


def histogram_quantile(
    q: float,
    buckets_le: Sequence[float],
    bucket_counts: Sequence[int],
    inf_count: int = 0,
) -> float:
    """Prometheus-style quantile estimate from cumulative-free buckets.

    Linearly interpolates within the bucket the rank lands in;
    observations in the ``+Inf`` bucket clamp to the highest finite
    edge (the same convention ``histogram_quantile()`` uses in PromQL).
    """
    total = sum(bucket_counts) + inf_count
    if total == 0:
        return 0.0
    rank = q * total
    running = 0.0
    lower = 0.0
    for le, count in zip(buckets_le, bucket_counts):
        if count > 0 and running + count >= rank:
            return lower + (le - lower) * (rank - running) / count
        running += count
        lower = le
    return float(buckets_le[-1]) if buckets_le else 0.0


def sample_quantile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank quantile of an ascending sample (``0.0`` when empty):
    the value at index ``min(n - 1, int(fraction * n))``."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


class Registry:
    """A process-local collection of metric families.

    Args:
        max_label_sets: cardinality budget per family — the cheap guard
            against a label like ``url`` exploding memory.
    """

    def __init__(self, max_label_sets: int = 1024) -> None:
        self.max_label_sets = max_label_sets
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # -- registration --------------------------------------------------------

    def _register(self, family: _Family) -> _Family:
        name = family.name
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        for label in family.labelnames:
            if not _LABEL_RE.match(label):
                raise MetricError(f"invalid label name {label!r}")
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if (existing.signature() == family.signature()
                        and type(existing) is type(family)):
                    return existing
                raise DuplicateMetricError(
                    f"metric {name!r} already registered with a "
                    f"different signature"
                )
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = (),
    ) -> Counter:
        return self._register(  # type: ignore[return-value]
            Counter(self, name, help, tuple(labelnames))
        )

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = (),
    ) -> Gauge:
        return self._register(  # type: ignore[return-value]
            Gauge(self, name, help, tuple(labelnames))
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(  # type: ignore[return-value]
            Histogram(self, name, help, tuple(labelnames), buckets)
        )

    # -- inspection ----------------------------------------------------------

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._families)

    def get(self, name: str) -> _Family:
        with self._lock:
            return self._families[name]

    def value(self, name: str, **labels: object) -> float:
        """Convenience read of one counter/gauge sample (0.0 if the
        family exists but the label set was never touched)."""
        try:
            family = self.get(name)
        except KeyError:
            return 0.0
        if labels or family.labelnames:
            key = tuple(str(labels[n]) for n in family.labelnames)
            child = family._children.get(key)
            return child.value if child is not None else 0.0  # type: ignore[union-attr]
        return family.value  # type: ignore[union-attr,return-value]

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """The whole registry as a plain dict (picklable, JSON-safe)."""
        out: Dict[str, dict] = {}
        with self._lock:
            families = list(self._families.values())
        for family in families:
            entry: Dict[str, object] = {
                "kind": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "samples": [],
            }
            if isinstance(family, Histogram):
                entry["buckets_le"] = list(family.buckets)
            samples: List[dict] = entry["samples"]  # type: ignore[assignment]
            for labels, child in family.samples():
                if isinstance(child, _HistogramChild):
                    sample = {
                        "labels": labels,
                        "bucket_counts": list(child.counts),
                        "inf_count": child.inf_count,
                        "sum": child.sum,
                        "count": child.count,
                    }
                    if child.exemplar is not None:
                        sample["exemplar"] = dict(child.exemplar)
                    samples.append(sample)
                else:
                    samples.append({
                        "labels": labels,
                        "value": child.value,  # type: ignore[union-attr]
                    })
            out[family.name] = entry
        return out

    def merge(self, snapshot: Dict[str, dict]) -> None:
        """Fold a :meth:`snapshot` in: counters and histograms add,
        gauges take the snapshot's value.  Unknown families are
        registered from the snapshot's own metadata."""
        for name, entry in sorted(snapshot.items()):
            kind = entry["kind"]
            labelnames = tuple(entry.get("labelnames", ()))
            if kind == "counter":
                family: _Family = self.counter(
                    name, entry.get("help", ""), labelnames,
                )
            elif kind == "gauge":
                family = self.gauge(name, entry.get("help", ""), labelnames)
            elif kind == "histogram":
                family = self.histogram(
                    name, entry.get("help", ""), labelnames,
                    buckets=entry.get("buckets_le", DEFAULT_BUCKETS),
                )
            else:
                raise MetricError(f"unknown metric kind {kind!r}")
            for sample in entry.get("samples", ()):
                labels = sample.get("labels", {})
                child = family.labels(**labels) if labelnames else (
                    family._require_default()
                )
                if kind == "counter":
                    child.inc(sample["value"])  # type: ignore[union-attr]
                elif kind == "gauge":
                    child.set(sample["value"])  # type: ignore[union-attr]
                else:
                    with family._lock:
                        counts = sample["bucket_counts"]
                        if len(counts) != len(child.counts):  # type: ignore[union-attr]
                            raise MetricError(
                                f"{name}: bucket layout mismatch in merge"
                            )
                        for i, c in enumerate(counts):
                            child.counts[i] += c  # type: ignore[union-attr]
                        child.inf_count += sample["inf_count"]  # type: ignore[union-attr]
                        child.sum += sample["sum"]  # type: ignore[union-attr]
                        child.count += sample["count"]  # type: ignore[union-attr]
                        exemplar = sample.get("exemplar")
                        if exemplar is not None:
                            child.exemplar = dict(exemplar)  # type: ignore[union-attr]

    # -- exposition ----------------------------------------------------------

    def render(self) -> str:
        """Prometheus text exposition (format 0.0.4) of the registry."""
        return render_prometheus(self.snapshot())


def render_prometheus(snapshot: Dict[str, dict]) -> str:
    """Render a :meth:`Registry.snapshot` in Prometheus text format.

    Families and label sets are emitted in sorted order so the output is
    deterministic (and golden-testable).
    """
    lines: List[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry["kind"]
        if entry.get("help"):
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {kind}")
        samples = sorted(
            entry.get("samples", ()),
            key=lambda s: sorted(s.get("labels", {}).items()),
        )
        for sample in samples:
            labels = sample.get("labels", {})
            if kind == "histogram":
                running = 0
                for le, count in zip(
                    entry["buckets_le"], sample["bucket_counts"],
                ):
                    running += count
                    bucket_labels = dict(labels, le=_format_value(le))
                    lines.append(
                        f"{name}_bucket{_format_labels(bucket_labels)} "
                        f"{running}"
                    )
                total = running + sample["inf_count"]
                inf_labels = dict(labels, le="+Inf")
                lines.append(
                    f"{name}_bucket{_format_labels(inf_labels)} {total}"
                )
                lines.append(
                    f"{name}_sum{_format_labels(labels)} "
                    f"{_format_value(sample['sum'])}"
                )
                lines.append(
                    f"{name}_count{_format_labels(labels)} {total}"
                )
            else:
                lines.append(
                    f"{name}{_format_labels(labels)} "
                    f"{_format_value(sample['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")
