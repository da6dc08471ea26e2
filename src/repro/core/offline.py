"""Clairvoyant (offline) eviction baselines.

The paper bounds removal policies from above with the infinite cache; a
sharper bound for a *finite* cache is a clairvoyant policy that knows the
future.  For unit-size pages Belady's MIN (evict the page whose next use
is furthest away) is optimal; with variable document sizes the optimal
schedule is NP-hard, so this module provides the standard clairvoyant
heuristics used as references in the web-caching literature:

* **MIN** — evict the cached document whose next reference is furthest in
  the future (never-referenced-again documents first);
* **size-aware MIN** — among documents never referenced again evict the
  largest; otherwise order by next reference, ties by size.

Both consume a *preprocessed* trace (next-reference indexes are computed
in one backward pass) and run through the same Section 1.1 hit semantics
as the online simulator, so their HR/WHR are directly comparable.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cache import AccessOutcome
from repro.core.metrics import MetricsCollector
from repro.trace.record import Request

__all__ = ["next_reference_indexes", "simulate_clairvoyant"]


def next_reference_indexes(trace: Sequence[Request]) -> List[float]:
    """For each request position, the index of the URL's next occurrence
    (``inf`` when it never recurs)."""
    next_index: List[float] = [math.inf] * len(trace)
    last_seen: Dict[str, int] = {}
    for position in range(len(trace) - 1, -1, -1):
        url = trace[position].url
        if url in last_seen:
            next_index[position] = float(last_seen[url])
        last_seen[url] = position
    return next_index


def simulate_clairvoyant(
    trace: Sequence[Request],
    capacity: int,
    size_aware: bool = True,
    name: str = "",
):
    """Drive a clairvoyant cache over a valid trace.

    Args:
        trace: the validated request sequence.
        capacity: cache size in bytes.
        size_aware: break "never used again" and distance ties by evicting
            the largest document (the stronger baseline for variable-size
            caching); plain Belady order otherwise.
        name: label for the result.

    Returns:
        A :class:`~repro.core.simulator.SimulationResult`-compatible
        object (``metrics``, ``hit_rate``, ``weighted_hit_rate``).
    """
    from repro.core.simulator import SimulationResult
    from repro.core.cache import SimCache

    if capacity <= 0:
        raise ValueError("capacity must be positive")

    next_ref = next_reference_indexes(trace)
    metrics = MetricsCollector()
    # contents: url -> (size, next_reference_index)
    contents: Dict[str, Tuple[int, float]] = {}
    used = 0
    max_used = 0
    evictions = 0
    outcomes = Counter()

    def eviction_key(item: Tuple[str, Tuple[int, float]]):
        url, (size, upcoming) = item
        # max() evicts the entry whose next use is furthest away
        # (never-again = inf wins); size_aware breaks ties toward the
        # largest document.
        return (upcoming, size if size_aware else 0)

    for position, request in enumerate(trace):
        upcoming = next_ref[position]
        held = contents.get(request.url)
        if held is not None and held[0] == request.size:
            contents[request.url] = (request.size, upcoming)
            metrics.record(request, True)
            outcomes[AccessOutcome.HIT] += 1
            continue
        metrics.record(request, False)
        # One outcome a request: a modified copy stays MISS_MODIFIED.
        if held is not None:
            used -= held[0]
            del contents[request.url]
            outcomes[AccessOutcome.MISS_MODIFIED] += 1
        elif request.size > capacity:
            outcomes[AccessOutcome.MISS_TOO_LARGE] += 1
        else:
            outcomes[AccessOutcome.MISS] += 1
        if request.size > capacity:
            continue
        # A clairvoyant cache refuses documents never used again — caching
        # them cannot produce a future hit.
        if math.isinf(upcoming):
            continue
        while used + request.size > capacity:
            victim_url, (victim_size, _) = max(
                contents.items(), key=eviction_key,
            )
            del contents[victim_url]
            used -= victim_size
            evictions += 1
        contents[request.url] = (request.size, upcoming)
        used += request.size
        max_used = max(max_used, used)

    # Package as a SimulationResult for uniform reporting: a throwaway
    # cache carries the counters.
    shell = SimCache(capacity=capacity)
    shell.max_used_bytes = max_used
    shell.eviction_count = evictions
    label = name or ("MIN+size" if size_aware else "MIN")
    shell.policy.name = label
    return SimulationResult(
        name=label,
        policy_name=label,
        capacity=capacity,
        metrics=metrics,
        cache=shell,
        outcomes=outcomes,
    )
