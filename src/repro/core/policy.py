"""Removal policies viewed as sorting procedures (Section 1.2).

The paper's central methodological idea: a removal policy (1) sorts the
cached documents by a primary key, breaking ties with a secondary key and
finally a random tertiary key, then (2) removes documents from the head of
the sorted list until the free space covers the incoming document.

:class:`KeyPolicy` implements exactly that family.  The paper's experiment
design crosses the six Table 1 keys as primary with the five other keys plus
RANDOM as secondary — 36 policies — enumerated by
:func:`taxonomy_policies`.

Policies whose eviction choice cannot be captured by a static per-entry sort
value (LRU-MIN, whose grouping depends on the *incoming* document's size,
and Pitkow/Recker, whose key switches on a global property of the cache)
implement :class:`DynamicPolicy` instead; see
:mod:`repro.core.literature`.
"""

from __future__ import annotations

import abc
import itertools
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.entry import CacheEntry
from repro.core.keys import (
    RANDOM,
    TAXONOMY_KEYS,
    SortKey,
    compile_keys,
    key_by_name,
)

__all__ = [
    "RemovalPolicy",
    "KeyPolicy",
    "DynamicPolicy",
    "taxonomy_policies",
    "policy_from_names",
]


class RemovalPolicy(abc.ABC):
    """Common interface for all removal policies.

    The cache notifies policies of entry lifecycle events through
    :meth:`on_admit` / :meth:`on_hit` / :meth:`on_remove`; stateless key
    policies ignore them, stateful policies (GreedyDual-Size) maintain
    their per-entry values there.
    """

    name: str = "policy"

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable description for reports."""

    def on_admit(self, entry: CacheEntry) -> None:
        """Called after an entry is admitted to the cache."""

    def on_hit(self, entry: CacheEntry) -> None:
        """Called after an entry is hit (its atime/nref just changed)."""

    def on_remove(self, entry: CacheEntry) -> None:
        """Called after an entry leaves the cache for any reason."""


class KeyPolicy(RemovalPolicy):
    """A removal policy defined by a sequence of sorting keys.

    Args:
        keys: the key sequence, most significant first.  A terminal RANDOM
            tie-break is appended automatically when absent (the paper
            always uses random as the tertiary key).
        name: display name; defaults to ``"PRIMARY/SECONDARY"``.
    """

    def __init__(
        self,
        keys: Sequence[SortKey],
        name: Optional[str] = None,
    ) -> None:
        if not keys:
            raise ValueError("a key policy needs at least one sort key")
        seen = set()
        for key in keys:
            if key.name in seen:
                raise ValueError(
                    f"duplicate sort key {key.name}; an equal primary and "
                    f"secondary key is useless (Section 1.2)"
                )
            seen.add(key.name)
        keys = list(keys)
        if RANDOM not in keys:
            keys.append(RANDOM)
        self.keys: Tuple[SortKey, ...] = tuple(keys)
        self.name = name or "/".join(k.name for k in self.keys[:2])
        #: True when any key's value can change while an entry is cached
        #: (the sorted index must then tolerate stale records).
        self.mutable = any(key.mutable for key in self.keys)
        #: ``sort_value(entry)`` is the entry's full sort tuple (ascending
        #: order = removal order); ``record(entry, seq, nref)`` is the flat
        #: heap record ``(k1, ..., kn, seq, entry, nref)`` of
        #: :class:`~repro.core.cache.HeapIndex`.  Both inline the keys'
        #: expressions and are compiled once per key sequence.
        self.sort_value, self.record = compile_keys(
            tuple(key.expression for key in self.keys)
        )

    @property
    def primary(self) -> SortKey:
        return self.keys[0]

    def order(self, entries: Iterable[CacheEntry]) -> List[CacheEntry]:
        """Entries sorted into removal order (head is removed first)."""
        return sorted(entries, key=self.sort_value)

    def describe(self) -> str:
        parts = " then ".join(k.name for k in self.keys)
        return f"sort by {parts}; remove from head until the document fits"


class DynamicPolicy(RemovalPolicy):
    """A policy that picks victims with full knowledge of the cache state
    and the incoming document (LRU-MIN, Pitkow/Recker)."""

    @abc.abstractmethod
    def choose_victim(
        self,
        entries: Sequence[CacheEntry],
        incoming_size: int,
        now: float,
    ) -> CacheEntry:
        """Pick the next entry to remove.

        Called repeatedly (with the victim removed between calls) until the
        incoming document fits.  ``entries`` is never empty.
        """


def taxonomy_policies(
    primaries: Sequence[SortKey] = TAXONOMY_KEYS,
    secondaries: Optional[Sequence[SortKey]] = None,
) -> List[KeyPolicy]:
    """The paper's 36-policy experiment grid.

    Every Table 1 key as primary, crossed with every *different* Table 1 key
    plus RANDOM as secondary: ``6 * (5 + 1) = 36`` policies.
    """
    if secondaries is None:
        secondaries = tuple(TAXONOMY_KEYS) + (RANDOM,)
    policies = []
    for primary, secondary in itertools.product(primaries, secondaries):
        if primary == secondary:
            continue
        policies.append(KeyPolicy([primary, secondary]))
    return policies


def policy_from_names(*names: str) -> KeyPolicy:
    """Build a key policy from key names, e.g. ``policy_from_names("SIZE",
    "ATIME")``."""
    return KeyPolicy([key_by_name(name) for name in names])
