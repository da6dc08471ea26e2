"""Streaming writers for common-log-format trace files."""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Iterable, Union

from repro.trace.clf import format_clf_fields
from repro.trace.compiled import request_fields
from repro.trace.record import Request

__all__ = ["write_clf_lines", "write_clf_file"]


def write_clf_lines(
    requests: Iterable[Request],
    epoch: float = 0.0,
    augmented: bool = False,
) -> Iterable[str]:
    """Render requests as CLF lines (lazily); a compiled trace's are
    formatted from its columns, with no ``Request`` built."""
    for stamp, url, size, status, client, _, modified in request_fields(requests):
        yield format_clf_fields(
            stamp, url, size, status, client, modified, epoch, "GET", augmented,
        )


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
        for line in write_clf_lines(requests, epoch, augmented):
            write(line + "\n")
            count += 1
    return count
