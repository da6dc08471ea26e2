"""Document-size models per media type.

Mid-1990s web measurement studies (including reference [2] of the paper,
whose Figures 1-4 the paper cites for its size histograms) consistently find
document sizes to be heavy-tailed: a lognormal body with a Pareto upper tail.
Figure 13 of the paper shows the request mass concentrated below ~1 kB with a
long tail; Figure 14 shows individual documents up to the multi-megabyte
range (audio/video).

:class:`SizeModel` implements a hybrid lognormal/Pareto sampler whose *mean*
can be calibrated exactly.  Calibration matters because the workload profiles
(Table 4 of the paper) pin down, per media type, both the percentage of
references and the percentage of bytes transferred; their ratio dictates the
mean transfer size per type (see :mod:`repro.workloads.profiles`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List

__all__ = ["SizeModel", "DEFAULT_SHAPES", "model_for_mean"]


@dataclass(frozen=True)
class SizeModel:
    """Hybrid lognormal-body / Pareto-tail document-size distribution.

    With probability ``1 - tail_probability`` a size is drawn from
    ``Lognormal(mu, sigma)``; otherwise from a Pareto distribution with shape
    ``tail_alpha`` starting at ``tail_scale``.  All draws are clamped to
    ``[min_size, max_size]`` and rounded to whole bytes.

    The analytic mean (before clamping) is::

        (1 - p) * exp(mu + sigma^2 / 2) + p * alpha * x_m / (alpha - 1)

    which :func:`model_for_mean` inverts to hit a calibration target.
    """

    mu: float
    sigma: float
    tail_probability: float = 0.0
    tail_alpha: float = 1.5
    tail_scale: float = 50_000.0
    min_size: int = 32
    max_size: int = 16 * 2**20

    def __post_init__(self) -> None:
        if not 0.0 <= self.tail_probability <= 1.0:
            raise ValueError("tail_probability must be in [0, 1]")
        if self.tail_alpha <= 1.0:
            raise ValueError("tail_alpha must exceed 1 for a finite mean")
        if self.min_size < 1 or self.max_size < self.min_size:
            raise ValueError("require 1 <= min_size <= max_size")

    @property
    def mean(self) -> float:
        """Analytic mean of the unclamped distribution."""
        body = math.exp(self.mu + self.sigma ** 2 / 2.0)
        tail = self.tail_alpha * self.tail_scale / (self.tail_alpha - 1.0)
        p = self.tail_probability
        return (1.0 - p) * body + p * tail

    def sample(self, rng: random.Random) -> int:
        """Draw one document size in bytes."""
        return self.draw(rng, 1)[0]

    def draw(self, rng: random.Random, count: int) -> List[int]:
        """Draw ``count`` document sizes in bytes, in order: an inverse-CDF
        Pareto draw with probability ``tail_probability``, otherwise a
        lognormal one (``exp(normalvariate)`` is ``lognormvariate``)."""
        uniform, normal, exp = rng.random, rng.normalvariate, math.exp
        p, scale, power = self.tail_probability, self.tail_scale, 1.0 / self.tail_alpha
        mu, sigma, low, high = self.mu, self.sigma, self.min_size, self.max_size
        return [low if (size := round(
            scale / ((1.0 - uniform()) ** power) if p and uniform() < p
            else exp(normal(mu, sigma))
        )) < low else high if size > high else size for _ in range(count)]

    def scaled_to_mean(self, target_mean: float) -> "SizeModel":
        """Return a copy whose analytic mean equals ``target_mean``.

        Scaling multiplies both the lognormal median and the Pareto scale by
        the same factor, preserving the distribution's *shape* (sigma, tail
        weight, tail index) while moving its mean.
        """
        if target_mean <= 0:
            raise ValueError("target_mean must be positive")
        factor = target_mean / self.mean
        return SizeModel(
            mu=self.mu + math.log(factor),
            sigma=self.sigma,
            tail_probability=self.tail_probability,
            tail_alpha=self.tail_alpha,
            tail_scale=self.tail_scale * factor,
            min_size=self.min_size,
            max_size=self.max_size,
        )


#: Shape templates per media-type family.  Means here are placeholders; the
#: profiles scale each template to the mean Table 4 implies for the workload.
DEFAULT_SHAPES = {
    # Small iconic images dominate graphics traffic.
    "graphics": SizeModel(mu=math.log(2_000), sigma=1.1,
                          tail_probability=0.02, tail_alpha=1.6,
                          tail_scale=30_000, min_size=64),
    # HTML pages: small, moderately variable.
    "text": SizeModel(mu=math.log(2_500), sigma=1.0,
                      tail_probability=0.015, tail_alpha=1.7,
                      tail_scale=25_000, min_size=64),
    # Song-length audio clips: large, tight distribution.
    "audio": SizeModel(mu=math.log(900_000), sigma=0.8,
                       tail_probability=0.05, tail_alpha=1.9,
                       tail_scale=2_000_000, min_size=4_096),
    # Video clips: the largest documents in the traces.
    "video": SizeModel(mu=math.log(1_500_000), sigma=0.9,
                       tail_probability=0.05, tail_alpha=1.8,
                       tail_scale=3_000_000, min_size=8_192),
    # Script output: small text-like responses.
    "cgi": SizeModel(mu=math.log(1_200), sigma=0.9,
                     tail_probability=0.0, min_size=32),
    # Everything else: archives, binaries -- wide spread.
    "unknown": SizeModel(mu=math.log(8_000), sigma=1.5,
                         tail_probability=0.03, tail_alpha=1.5,
                         tail_scale=100_000, min_size=64),
}


def model_for_mean(family: str, target_mean: float) -> SizeModel:
    """A family's shape template scaled so its analytic mean is ``target_mean``."""
    try:
        template = DEFAULT_SHAPES[family]
    except KeyError:
        raise KeyError(
            f"unknown size family {family!r}; expected one of "
            f"{sorted(DEFAULT_SHAPES)}"
        ) from None
    return template.scaled_to_mean(target_mean)
