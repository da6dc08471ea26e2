"""Zipf-distributed rank sampling.

The paper observes (Section 2.2, Figures 1 and 2) that both the number of
requests per server and the bytes transferred per URL follow Zipf
distributions.  Reference [4, 9] of the paper report the same for requested
URLs.  The synthetic workload generator therefore draws URL popularity from a
Zipf law: the probability of referencing the rank-``r`` item is proportional
to ``1 / r**exponent``.

:class:`ZipfSampler` precomputes the cumulative distribution once (O(n)) and
samples by binary search (O(log n)), which is fast enough to draw the
hundreds of thousands of references the full-size workloads need.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate
from typing import List, Optional

__all__ = ["ZipfSampler", "zipf_weights"]


def zipf_weights(n: int, exponent: float = 1.0) -> List[float]:
    """Unnormalised Zipf weights ``1/r**exponent`` for ranks ``1..n``."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    return [1.0 / (rank ** exponent) for rank in range(1, n + 1)]


class ZipfSampler:
    """Samples 0-based indices with Zipf-decaying popularity.

    Args:
        n: number of items; index 0 is the most popular.
        exponent: Zipf exponent ``s``; ``1.0`` is the classic Zipf law,
            ``0.0`` degenerates to the uniform distribution.
        rng: source of randomness; a fresh seeded :class:`random.Random` is
            created when omitted.

    ``cumulative`` and ``total`` are the unnormalised CDF :meth:`sample` bisects.
    """

    def __init__(
        self,
        n: int,
        exponent: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.n = n
        self.exponent = exponent
        self._rng = rng if rng is not None else random.Random(0)
        self.cumulative = list(accumulate(zipf_weights(n, exponent)))
        self.total = self.cumulative[-1]

    def sample(self, rng: Optional[random.Random] = None) -> int:
        """Draw one index in ``[0, n)``; smaller indices are more likely."""
        source = rng if rng is not None else self._rng
        return bisect_left(self.cumulative, source.random() * self.total)

    def probability(self, index: int) -> float:
        """Exact probability of drawing ``index``."""
        if not 0 <= index < self.n:
            raise IndexError(f"index {index} out of range [0, {self.n})")
        previous = self.cumulative[index - 1] if index else 0.0
        return (self.cumulative[index] - previous) / self.total
