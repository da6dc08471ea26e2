"""Streaming readers for common-log-format trace files.

Two ingestion modes:

* **lenient** (``skip_malformed=True``, the default): malformed or
  truncated lines are *quarantined* — counted in an
  :class:`IngestStats`, tallied on the ``repro_trace_rejected_lines``
  metric when an obs context is supplied, and optionally written
  verbatim to a quarantine stream for post-mortems — and the replay
  carries on.  A multi-day trace replay never dies on one corrupt line.
* **strict** (``skip_malformed=False``): the first malformed line
  raises :class:`~repro.trace.clf.CLFError`, the historical behaviour
  (right for validating freshly generated traces).
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Union

from repro.trace.clf import CLFError, parse_clf_line
from repro.trace.record import Request

__all__ = ["IngestStats", "read_clf_lines", "read_clf_file"]


@dataclass
class IngestStats:
    """Line-level accounting of one lenient ingestion pass."""

    #: Candidate lines seen (blank lines and comments excluded).
    lines: int = 0
    #: Lines successfully parsed into requests.
    parsed: int = 0
    #: Malformed/truncated lines quarantined (lenient mode only).
    rejected: int = 0


def read_clf_lines(
    lines: Iterable[str],
    epoch: float = 0.0,
    skip_malformed: bool = True,
    obs=None,
    quarantine: Optional[IO[str]] = None,
    stats: Optional[IngestStats] = None,
) -> Iterator[Request]:
    """Parse an iterable of CLF lines into requests.

    Blank lines and ``#`` comments are ignored.  Malformed lines are
    quarantined when ``skip_malformed`` is true (counted via ``stats``
    and the ``repro_trace_rejected_lines`` metric on ``obs``, echoed to
    the ``quarantine`` stream when given) and raise
    :class:`~repro.trace.clf.CLFError` otherwise.
    """
    metrics = None
    if obs is not None:
        from repro.obs.catalog import trace_metrics

        metrics = trace_metrics(obs.registry)
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stats is not None:
            stats.lines += 1
        try:
            request = parse_clf_line(stripped, epoch)
        except CLFError:
            if not skip_malformed:
                raise
            if stats is not None:
                stats.rejected += 1
            if metrics is not None:
                metrics.rejected_lines.inc()
            if quarantine is not None:
                quarantine.write(stripped + "\n")
            continue
        if stats is not None:
            stats.parsed += 1
        yield request


def read_clf_file(
    path: Union[str, Path],
    epoch: float = 0.0,
    skip_malformed: bool = True,
    obs=None,
    quarantine: Optional[IO[str]] = None,
    stats: Optional[IngestStats] = None,
) -> Iterator[Request]:
    """Stream requests from a CLF file; ``.gz`` files are decompressed."""
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8", errors="replace") as handle:
        yield from read_clf_lines(
            handle, epoch=epoch, skip_malformed=skip_malformed,
            obs=obs, quarantine=quarantine, stats=stats,
        )
