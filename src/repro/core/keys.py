"""Sorting keys: the atoms of the paper's removal-policy taxonomy.

Table 1 of the paper defines six keys, each with a fixed removal order:

=============  =============================================  ===============
Key            Definition                                     Removal order
=============  =============================================  ===============
SIZE           size of the cached document (bytes)            largest first
LOG2SIZE       ``floor(log2(SIZE))``                          largest first
ETIME          time the document entered the cache            oldest first
ATIME          time of last access                            oldest first
DAY(ATIME)     day of last access                             oldest first
NREF           number of references                           fewest first
=============  =============================================  ===============

plus RANDOM, used by the paper as a secondary key and always as the final
tie-break.  Every key is normalised here so that **smaller key values are
removed first**; a removal policy sorts ascending and evicts from the head.

Two extension keys from the paper's open-problems list (Section 5) are also
provided: TYPE_PRIORITY (remove bulky media before text) and LATENCY (remove
cheap-to-refetch documents first), plus TTL (remove expired documents first,
as in the Harvest cache).
"""

from __future__ import annotations

import functools
from math import floor, inf, log2
from typing import Callable, Dict, Tuple

from repro.core.entry import CacheEntry

__all__ = [
    "SortKey",
    "SIZE",
    "LOG2SIZE",
    "ETIME",
    "ATIME",
    "DAY_ATIME",
    "NREF",
    "RANDOM",
    "TYPE_PRIORITY",
    "LATENCY",
    "TTL",
    "TAXONOMY_KEYS",
    "ALL_KEYS",
    "compile_keys",
    "key_by_name",
]


class SortKey:
    """One sorting key: maps a cache entry to a removal-order value.

    Smaller values are removed earlier.  Keys whose Table 1 removal order is
    "largest first" (the size keys) therefore negate the underlying
    attribute.

    Args:
        name: the paper's name for the key (e.g. ``"SIZE"``).
        expression: the removal-order value (smaller = removed sooner) as
            one Python expression over the entry ``e``, e.g. ``"-e.size"``;
            :attr:`value` and :func:`compile_keys` both compile it.
        description: Table 1 definition, for reports.
        mutable: whether the value can change while the entry is cached
            (ATIME-family and NREF change on every hit; SIZE and ETIME are
            fixed at admission).  Contract: a mutable key's value never
            *falls* on a hit while the clock does not run backwards — true
            of ATIME, DAY(ATIME) and NREF — so the heap index ignores hits
            and revalues a record only at its head.  A key a hit lowers
            (MRU-style) would need eager pushes back; none exists.
    """

    def __init__(
        self,
        name: str,
        expression: str,
        description: str,
        mutable: bool,
    ) -> None:
        self.name = name
        self.expression = expression
        self.value: Callable[[CacheEntry], float] = eval(f"lambda e: {expression}")
        self.description = description
        self.mutable = mutable

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SortKey({self.name})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SortKey) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)


@functools.lru_cache(maxsize=None)  # one entry per key sequence in use
def compile_keys(expressions: Tuple[str, ...]) -> Tuple[Callable, Callable]:
    """``(sort_value, record)`` for a sequence of key expressions, each
    inlined: ``sort_value(e)`` is ``(k1, ..., kn)`` and ``record(e, seq,
    nref)`` the flat heap record ``(k1, ..., kn, seq, e, nref)``.  They
    are evaluated here, where ``floor``, ``log2``, ``inf`` and
    ``_TYPE_RANK`` are in scope."""
    values = "".join(f"({expression}), " for expression in expressions)
    return (
        eval(f"lambda e: ({values})"),
        eval(f"lambda e, seq, nref: ({values}seq, e, nref)"),
    )


SIZE = SortKey(
    "SIZE",
    "-e.size",
    "size of a cached document; largest file removed first",
    mutable=False,
)

LOG2SIZE = SortKey(
    "LOG2SIZE",
    "-floor(log2(e.size))",
    "floor of log2 of SIZE; one of the largest files removed first",
    mutable=False,
)

ETIME = SortKey(
    "ETIME",
    "e.etime",
    "time document entered the cache; oldest removed first (FIFO)",
    mutable=False,
)

ATIME = SortKey(
    "ATIME",
    "e.atime",
    "time of last access; least recently used removed first (LRU)",
    mutable=True,
)

DAY_ATIME = SortKey(
    "DAY(ATIME)",
    "e.atime // 86400",
    "day of last access; last accessed the most days ago removed first",
    mutable=True,
)

NREF = SortKey(
    "NREF",
    "e.nref",
    "number of references; least referenced removed first (LFU)",
    mutable=True,
)

RANDOM = SortKey(
    "RANDOM",
    "e.random_stamp",
    "uniform random order (stable per cached copy)",
    mutable=False,
)

#: Default removal precedence for the TYPE_PRIORITY extension key: bulky
#: media leave first, text last, so text stays cached (Section 5, open
#: problem 1).  Lower rank = removed sooner.
_TYPE_RANK: Dict[str, float] = {
    "video": 0.0,
    "audio": 1.0,
    "unknown": 2.0,
    "cgi": 3.0,
    "graphics": 4.0,
    "text": 5.0,
}

TYPE_PRIORITY = SortKey(
    "TYPE",
    "_TYPE_RANK.get(e.doc_type.value, 2.0)",
    "media-type priority; bulky media removed before text (extension)",
    mutable=False,
)

LATENCY = SortKey(
    "LATENCY",
    "e.latency",
    "estimated refetch latency; cheapest-to-refetch removed first (extension)",
    mutable=False,
)

TTL = SortKey(
    "TTL",
    "e.expires_at if e.expires_at is not None else inf",
    "expiry time; expired/soonest-to-expire removed first (Harvest-style)",
    mutable=False,
)

#: The six Table 1 keys, in the paper's order.
TAXONOMY_KEYS = (SIZE, LOG2SIZE, ETIME, ATIME, DAY_ATIME, NREF)

#: Every key this library defines, including RANDOM and the extensions.
ALL_KEYS = TAXONOMY_KEYS + (RANDOM, TYPE_PRIORITY, LATENCY, TTL)

_KEYS_BY_NAME = {key.name: key for key in ALL_KEYS}


def key_by_name(name: str) -> SortKey:
    """Look a key up by its paper name (``"SIZE"``, ``"DAY(ATIME)"``, ...)."""
    try:
        return _KEYS_BY_NAME[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown sort key {name!r}; expected one of {sorted(_KEYS_BY_NAME)}"
        ) from None
