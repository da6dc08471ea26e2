"""A trace as its columns: one typed column per field, and its days.

A :class:`CompiledTrace` keeps each field of its rows as one column and
derives the day slices once, so a replay reads a day slice of columns.
Sizes and stamps are typed arrays; URLs and clients are references into a
table of the trace's distinct strings, so a URL named a thousand times is
stored once.  A row costs ~57 bytes, where a ``Request`` costs ~120.

There are no rows.  It is still the ``Sequence[Request]`` it replaces:
indexing, slicing and iterating build ``Request`` views equal to the
rows that went in, it equals the list of them, and it pickles as its
columns, each but the stamps as its distinct values and an array of
indices into them.  The generator, validation and :func:`compile_trace`
append rows straight into the columns (:meth:`CompiledTrace.appender`).
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from itertools import starmap
from operator import attrgetter
from typing import Callable, Dict, Iterable, Iterator, Optional

from repro.trace.record import DocumentType, Request, classify_url

__all__ = ["CompiledTrace", "compile_trace", "request_fields"]

#: A ``Request``'s fields, in its argument order.
_FIELDS = attrgetter("timestamp", "url", "size", "status", "client", "doc_type", "last_modified")
#: The row columns, which ``sort_from`` permutes and ``==`` compares;
#: the stamps first (they pickle unpacked).
_COLUMNS = ("stamps", "urls", "sizes", "statuses", "clients", "modified", "types", "given")


class CompiledTrace(Sequence):
    """A trace's rows as columns, plus the day slices a replay walks.

    Attributes:
        stamps, sizes, statuses: ``array('d')``, ``array('q')``,
            ``array('i')`` of each row's timestamp, size and status.
        urls, clients: each row's URL and client, one string per value.
        modified: each row's Last-Modified stamp, or ``None``.
        types: each row's media type -- its ``doc_type`` when the row
            carries one, else its URL's category, classified once per
            distinct URL -- and ``given`` 1 where the row carried it.
        day_slices: ``(day, start, stop)`` per maximal run of rows whose stamps
            fall in one day ``[day * 86400, (day + 1) * 86400)``, in trace
            order; a day the clock re-enters gets a slice of its own.
    """

    __slots__ = _COLUMNS + ("day_slices",)

    def __init__(self, rows: Iterable[Request] = ()) -> None:
        self.stamps, self.sizes, self.statuses = array("d"), array("q"), array("i")
        self.urls, self.clients, self.modified, self.types = [], [], [], []
        self.given = bytearray()
        add = self.appender()
        for fields in request_fields(rows):
            add(*fields)
        self.seal()

    def appender(self) -> Callable[..., None]:
        """``add(timestamp, url, size, status, client, doc_type=None,
        last_modified=None)``, a ``Request``'s fields (its ``__init__`` checks
        them when a view is built), appending one row; then call :meth:`seal`."""
        intern = {}.setdefault
        kinds: Dict[str, DocumentType] = {}
        stamps, urls, sizes = self.stamps.append, self.urls.append, self.sizes.append
        statuses, clients = self.statuses.append, self.clients.append
        modified, types, given = self.modified.append, self.types.append, self.given.append

        def add(timestamp, url, size, status, client, doc_type=None, last_modified=None):
            url = intern(url, url)
            stamps(timestamp)
            urls(url)
            sizes(size)
            statuses(status)
            clients(intern(client, client))
            modified(last_modified)
            given(doc_type is not None)
            if doc_type is None:
                doc_type = kinds.get(url)
                if doc_type is None:
                    doc_type = kinds[url] = classify_url(url)
            types(doc_type)

        return add

    def sort_from(self, start: int) -> None:
        """Put the rows from ``start`` on in timestamp order, equal stamps
        in row order: one permutation applied to every column."""
        order = sorted(range(start, len(self)), key=self.stamps.__getitem__)
        for column in map(self.__getattribute__, _COLUMNS):
            stretch = column[:0]
            stretch.extend(map(column.__getitem__, order))
            column[start:] = stretch

    def seal(self) -> None:
        """Derive the day slices from the stamps, after the last row."""
        days, starts = [], []
        day_start = day_end = 0.0  # empty, so the first row opens a day
        for index, stamp in enumerate(self.stamps):
            if not day_start <= stamp < day_end:
                day = int(stamp // 86400)
                day_start, day_end = day * 86400.0, (day + 1) * 86400.0
                days.append(day)
                starts.append(index)
        self.day_slices = list(zip(days, starts, starts[1:] + [len(self)]))

    def doc_types(self) -> Iterator[Optional[DocumentType]]:
        """Each row's ``doc_type`` as given: its type, or ``None``."""
        return (kind if flag else None for kind, flag in zip(self.types, self.given))

    def __len__(self) -> int:
        return len(self.stamps)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return Request(
            self.stamps[index], self.urls[index], self.sizes[index], self.statuses[index],
            self.clients[index], self.types[index] if self.given[index] else None,
            self.modified[index],
        )

    def __iter__(self) -> Iterator[Request]:
        return starmap(Request, request_fields(self))

    def __reduce__(self):
        # The stamps are nearly all distinct, so they ship as they are;
        # every other column repeats a few values (URLs, sizes, statuses,
        # clients, types) and ships them once, with a narrow index a row.
        packed = map(_pack, map(self.__getattribute__, _COLUMNS[1:]))
        return _unpickle, (self.day_slices, self.stamps, *packed)

    def __eq__(self, other) -> bool:
        if isinstance(other, CompiledTrace):
            return all(getattr(self, name) == getattr(other, name) for name in _COLUMNS)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented  # and, defining ``__eq__``, unhashable


def _pack(column) -> tuple:
    """``column`` as an empty column of its kind, its distinct values and
    an array of each row's index into them, the narrowest that fits."""
    index: dict = {}
    ids = [index.setdefault(value, len(index)) for value in column]
    code = "B" if len(index) <= 1 << 8 else "H" if len(index) <= 1 << 16 else "I"
    return column[:0], list(index), array(code, ids)


def _unpickle(day_slices, stamps, *packed) -> CompiledTrace:
    trace = CompiledTrace.__new__(CompiledTrace)
    trace.day_slices, trace.stamps = day_slices, stamps
    for name, (column, values, ids) in zip(_COLUMNS[1:], packed):
        column.extend(map(values.__getitem__, ids))
        setattr(trace, name, column)
    return trace


def request_fields(requests: Iterable[Request]) -> Iterator[tuple]:
    """Each request's fields, in ``Request``'s argument order; a compiled
    trace's are read from its columns."""
    if isinstance(requests, CompiledTrace):
        t = requests
        return zip(t.stamps, t.urls, t.sizes, t.statuses, t.clients, t.doc_types(), t.modified)
    return map(_FIELDS, requests)


def compile_trace(trace: Iterable[Request]) -> CompiledTrace:
    """``trace`` itself when it is compiled already, else its compilation."""
    if isinstance(trace, CompiledTrace):
        return trace
    return CompiledTrace(trace)
