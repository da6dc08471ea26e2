"""Streaming writers for common-log-format trace files."""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Iterable, Union

from repro.trace.clf import format_clf_line
from repro.trace.record import Request

__all__ = ["write_clf_lines", "write_clf_file"]


def write_clf_lines(
    requests: Iterable[Request],
    epoch: float = 0.0,
    augmented: bool = False,
) -> Iterable[str]:
    """Render requests as CLF lines (lazily)."""
    for request in requests:
        yield format_clf_line(request, epoch=epoch, augmented=augmented)


def write_clf_file(
    path: Union[str, Path],
    requests: Iterable[Request],
    epoch: float = 0.0,
    augmented: bool = False,
) -> int:
    """Write requests to a CLF file; ``.gz`` paths are compressed.

    Returns:
        The number of lines written.
    """
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    count = 0
    with opener(path, "wt", encoding="utf-8") as handle:
        write = handle.write
        for request in requests:
            write(format_clf_line(request, epoch, "GET", augmented) + "\n")
            count += 1
    return count
