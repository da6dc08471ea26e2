"""A valid trace compiled once: its rows, their columns, and its days.

The simulator's loop needs four facts per request -- URL, size,
timestamp and media type -- and the day each request falls in.  A
:class:`CompiledTrace` derives them once, where the valid trace is born
(:meth:`~repro.trace.validation.TraceValidator.validate`), and every
replay over it reads the columns a day slice at a time instead of six
attributes of each :class:`~repro.trace.record.Request`.

It is still the ``Sequence[Request]`` it replaces: the same rows, equal
to the list of them, sliced and iterated as that list (yielding the
same ``Request`` objects) and pickled as its rows.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Dict, Iterable, List, Tuple

from repro.trace.record import DocumentType, Request, classify_url

__all__ = ["CompiledTrace", "compile_trace"]


class CompiledTrace(Sequence):
    """The rows of a valid trace plus the columns the simulator reads.

    Attributes:
        rows: the ``Request`` objects, in trace order.
        urls, sizes, stamps: each row's URL, size and timestamp.
        types: each row's media type -- its ``doc_type`` when the row
            carries one, else its URL's category, classified once per
            distinct URL.
        day_slices: ``(day, start, stop)`` for each maximal run of rows
            whose timestamps fall in one day ``[day * 86400, (day + 1) *
            86400)``, in trace order; a day the clock re-enters gets a
            slice of its own.
    """

    __slots__ = ("rows", "urls", "sizes", "stamps", "types", "day_slices")

    def __init__(self, rows: Iterable[Request]) -> None:
        self.rows: List[Request] = list(rows)
        self.urls = [request.url for request in self.rows]
        self.sizes = [request.size for request in self.rows]
        self.stamps = [request.timestamp for request in self.rows]
        kinds: Dict[str, DocumentType] = {}
        types = self.types = []
        for request in self.rows:
            kind = request.doc_type
            if kind is None:
                url = request.url
                kind = kinds.get(url)
                if kind is None:
                    kind = kinds[url] = classify_url(url)
            types.append(kind)
        days: List[int] = []
        starts: List[int] = []
        day_start = day_end = 0.0  # empty, so the first row opens a day
        for index, stamp in enumerate(self.stamps):
            if not day_start <= stamp < day_end:
                day = int(stamp // 86400)
                day_start, day_end = day * 86400.0, (day + 1) * 86400.0
                days.append(day)
                starts.append(index)
        self.day_slices: List[Tuple[int, int, int]] = list(
            zip(days, starts, starts[1:] + [len(self.rows)])
        )

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        return self.rows[index]

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, CompiledTrace):
            return self.rows == other.rows
        if isinstance(other, list):
            return self.rows == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        # A worker rebuilds the columns from the rows it receives.
        return (CompiledTrace, (self.rows,))


def compile_trace(trace: Iterable[Request]) -> CompiledTrace:
    """``trace`` itself when it is compiled already, else its compilation."""
    if isinstance(trace, CompiledTrace):
        return trace
    return CompiledTrace(trace)
