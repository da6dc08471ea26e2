"""Single-pass miss-ratio curves with error bars.

The exact grid in :mod:`repro.analysis.sweeps` pays one full-trace
simulation per (policy, cache size) cell — 48 replays for the default
8-fraction x 6-key curve set.  This module estimates the whole set in
**one** pass over the trace: every request is hashed once per salt
(:func:`repro.trace.sampling.url_sample_rate_hash`) into that salt's
per-rate samples, which a bank of *shadow caches*, one per (sort key,
capacity fraction), each scaled by its sampling rate, then replays one
cache at a time (Waldspurger et al.'s SHARDS, extended to all six of
the paper's primary keys at once).

Estimator construction
----------------------
Three corrections make the raw shadow-cache ratios track the exact grid
on traces of this suite's size:

* **Per-salt control variate.**  Each salt also tallies an *infinite*
  cache at the same rate.  Its hit ratio measures how hot that
  salt's URL sample happens to be; scaling each shadow estimate by
  ``full-trace infinite HR / sample infinite HR`` cancels the
  URL-selection noise shared by every cell of the salt.
* **Small-fraction rate floor.**  A cache at fraction ``f`` of MaxNeeded
  holds few documents once scaled by the base rate; each fraction's rate
  is floored at ``small_fraction_floor / f`` so tiny caches keep enough
  sampled documents to behave like caches.
* **Largest-document rate floor.**  A scaled shadow cache smaller than
  the trace's largest document rejects it outright while the exact cache
  holds it — a systematic bias, worst for byte hit ratios.  Each
  fraction's rate is floored so its shadow capacity is at least
  ``size_floor`` times the largest request size.

Error model
-----------
Replicates re-run the bank under different salts; the reported value is
the across-salt mean and the error bars are mean +/- t-based confidence
intervals (Student t on ``replicates - 1`` degrees of freedom).  The
bars capture sampling noise only: with ``replicates=1`` no bars are
reported, and the floors above are what keeps the residual *bias* small.
Trust the estimate when the bars are tight and the floors were not
clamped to 1.0 (a clamp means that point effectively ran exact); distrust
any point whose shadow cache held fewer than a handful of documents —
``repro mrc --single-pass`` prints the effective rate per fraction so
both conditions are visible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.cache import HIT, SimCache
from repro.core.keys import TAXONOMY_KEYS, SortKey, key_by_name
from repro.core.policy import KeyPolicy
from repro.durability import read_checksummed_jsonl, write_checksummed_jsonl
from repro.trace.compiled import compile_trace
from repro.trace.record import Request
from repro.trace.sampling import url_sample_rate_hash

__all__ = [
    "MRCPoint",
    "MRCResult",
    "MRCCurvesError",
    "single_pass_mrc",
    "write_curves",
    "read_curves",
    "CURVES_CHECKSUM_KIND",
]

#: Default capacity grid, mirroring :data:`repro.analysis.sweeps.DEFAULT_FRACTIONS`.
DEFAULT_FRACTIONS = (0.02, 0.05, 0.10, 0.20, 0.35, 0.50, 0.75, 1.0)

#: JSONL trailer record kind carrying the curves checksum (PR-4 envelope
#: style, same trailer shape as :mod:`repro.obs.timeseries`).
CURVES_CHECKSUM_KIND = "mrc.curves.checksum"

#: Two-sided Student-t critical values by confidence level, indexed by
#: degrees of freedom 1..30; beyond 30 the normal limit (last entry) is
#: close enough for error bars.  Hardcoded so the estimator stays
#: dependency-free.
_T_TABLE: Dict[float, Tuple[float, ...]] = {
    0.90: (
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833,
        1.812, 1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734,
        1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703,
        1.701, 1.699, 1.697, 1.645,
    ),
    0.95: (
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
        2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
        2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
        2.048, 2.045, 2.042, 1.960,
    ),
    0.99: (
        63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250,
        3.169, 3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878,
        2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771,
        2.763, 2.756, 2.750, 2.576,
    ),
}


def _t_critical(confidence: float, df: int) -> float:
    try:
        column = _T_TABLE[confidence]
    except KeyError:
        raise ValueError(
            f"confidence must be one of {sorted(_T_TABLE)}, got {confidence}"
        ) from None
    return column[min(df, len(column)) - 1]


@dataclass(frozen=True)
class MRCPoint:
    """One estimated curve point: hit ratios in percent, plus t-based
    confidence half-widths (``None`` when ``replicates == 1``)."""

    key: str
    fraction: float
    hr: float
    whr: float
    hr_ci: Optional[float]
    whr_ci: Optional[float]
    rate: float
    replicates: int

    def record(self) -> dict:
        """The point as the JSONL export's plain dict."""
        return {
            "key": self.key,
            "fraction": self.fraction,
            "hr": round(self.hr, 6),
            "whr": round(self.whr, 6),
            "hr_ci": None if self.hr_ci is None else round(self.hr_ci, 6),
            "whr_ci": None if self.whr_ci is None else round(self.whr_ci, 6),
            "rate": round(self.rate, 6),
            "replicates": self.replicates,
        }


@dataclass
class MRCResult:
    """Every key's estimated HR/WHR curve from one single-pass run."""

    points: List[MRCPoint]
    rate: float
    replicates: int
    confidence: float
    requests: int
    seconds: float

    def keys(self) -> List[str]:
        seen: List[str] = []
        for point in self.points:
            if point.key not in seen:
                seen.append(point.key)
        return seen

    def curve(
        self, key: str, weighted: bool = False,
    ) -> List[Tuple[float, float, Optional[float]]]:
        """One key's ``(fraction, hit%, ci half-width)`` points, in the
        run's fraction order."""
        out = []
        for point in self.points:
            if point.key == key:
                if weighted:
                    out.append((point.fraction, point.whr, point.whr_ci))
                else:
                    out.append((point.fraction, point.hr, point.hr_ci))
        if not out:
            raise KeyError(f"no curve for key {key!r}")
        return out

    def miss_curve(
        self, key: str, weighted: bool = False,
    ) -> List[Tuple[float, float]]:
        """The sweeps-convention view: ``(fraction, miss%)`` pairs."""
        return [
            (fraction, 100.0 - rate)
            for fraction, rate, _ in self.curve(key, weighted=weighted)
        ]

    def records(self) -> List[dict]:
        """The JSONL export's content, in point order."""
        return [point.record() for point in self.points]


class _Tally:
    """Requests and hits (and their bytes) seen at one sampling rate."""

    __slots__ = ("rate", "requests", "hits", "bytes", "hit_bytes")

    def __init__(self, rate: float) -> None:
        self.rate = rate
        self.requests = 0
        self.hits = 0
        self.bytes = 0
        self.hit_bytes = 0

    def count(self, size: int, hit: bool) -> None:
        self.requests += 1
        self.bytes += size
        if hit:
            self.hits += 1
            self.hit_bytes += size

    @property
    def hr(self) -> float:
        return 100.0 * self.hits / self.requests if self.requests else 0.0

    @property
    def whr(self) -> float:
        return 100.0 * self.hit_bytes / self.bytes if self.bytes else 0.0


class _ShadowCell(_Tally):
    """One (key, fraction) shadow cache plus its tallies."""

    __slots__ = ("cache",)

    def __init__(self, capacity: int, key: SortKey, rate: float,
                 seed: int) -> None:
        super().__init__(rate)
        self.cache = SimCache(
            capacity=capacity, policy=KeyPolicy([key]), seed=seed,
        )

    def replay(self, urls, sizes, stamps, types) -> None:
        """Answer the whole sample, given as columns, as one run."""
        codes = bytearray()
        self.cache.access_run(urls, sizes, stamps, types, codes)
        size_sum = sum(sizes)
        self.requests += len(codes)
        self.bytes += size_sum
        self.hits += codes.count(HIT)
        self.hit_bytes += size_sum - sum(compress(sizes, codes))


def _mean_ci(
    values: Sequence[float], confidence: float,
) -> Tuple[float, Optional[float]]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, None
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    half = _t_critical(confidence, n - 1) * (variance / n) ** 0.5
    return mean, half


def single_pass_mrc(
    trace: Sequence[Request],
    max_needed: int,
    rate: float = 0.10,
    replicates: int = 4,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    keys: Optional[Sequence[Union[str, SortKey]]] = None,
    seed: int = 0,
    salts: Optional[Sequence[int]] = None,
    confidence: float = 0.90,
    small_fraction_floor: float = 0.01,
    size_floor: float = 1.0,
    obs=None,
) -> MRCResult:
    """Estimate every key's HR/WHR curve in one pass over the trace.

    Args:
        trace: the (valid) request stream.
        max_needed: the infinite cache's high-water mark in bytes; curve
            capacities are ``fraction * max_needed``.
        rate: base fraction of the URL space each replicate keeps, in
            (0, 1] (per-fraction floors may raise it — see module docs).
        replicates: independent salted replicates; >= 2 yields error bars.
        fractions: capacity grid, in caller order (the output axis).
        keys: sort keys (names or :class:`~repro.core.keys.SortKey`);
            defaults to the paper's six primary keys.
        seed: tie-break seed shared by every shadow cache.
        salts: explicit replicate salts (defaults to ``0..replicates-1``).
        confidence: CI level for the error bars (0.90, 0.95 or 0.99).
        small_fraction_floor: floor ``rate >= this / fraction``.
        size_floor: floor shadow capacity at this multiple of the largest
            request size (0 disables).
        obs: optional :class:`repro.obs.Obs`; records ``repro_mrc_*``
            counters and phase timers.

    Raises:
        ValueError: bad rate/replicates/fractions/confidence, or a salt
            whose URL sample is empty.
    """
    if max_needed <= 0:
        raise ValueError("max_needed must be positive")
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    fractions = [float(f) for f in fractions]
    if not fractions:
        raise ValueError("fractions must be non-empty")
    for fraction in fractions:
        if fraction <= 0:
            raise ValueError("fractions must be positive")
    _t_critical(confidence, 1)  # validate the level up front
    if salts is None:
        salts = tuple(range(replicates))
    elif len(salts) != replicates:
        raise ValueError("salts, when given, must match replicates")
    sort_keys = [
        key_by_name(k) if isinstance(k, str) else k
        for k in (keys if keys is not None else TAXONOMY_KEYS)
    ]
    if not sort_keys:
        raise ValueError("keys must be non-empty")

    metrics = None
    if obs is not None:
        from repro.obs.catalog import mrc_metrics

        metrics = mrc_metrics(obs.registry)

    started = time.perf_counter()

    # The per-fraction rate floors need the largest request size before
    # any shadow cache exists; this scan of one column is not a
    # simulation pass.
    trace = compile_trace(trace)
    largest = max(trace.sizes, default=0)
    scan_seconds = time.perf_counter() - started

    rates: Dict[float, float] = {}
    for fraction in fractions:
        floored = max(
            rate,
            small_fraction_floor / fraction,
            (size_floor * largest) / (fraction * max_needed),
        )
        rates[fraction] = min(1.0, floored)

    # Shadow bank: per salt, one cell per (key, fraction) plus one
    # infinite control-variate tally per distinct effective rate.
    banks: List[Dict[Tuple[str, float], _ShadowCell]] = []
    controls: List[Dict[float, _Tally]] = []
    for salt in salts:
        banks.append({
            (key.name, fraction): _ShadowCell(
                max(1, int(fraction * max_needed * rates[fraction])),
                key, rates[fraction], seed,
            )
            for key in sort_keys for fraction in fractions
        })
        controls.append({
            cell_rate: _Tally(cell_rate) for cell_rate in set(rates.values())
        })

    # The single pass: every request is hashed once per salt into that
    # salt's per-rate samples (rates descend, so the first rate a URL's
    # position misses ends the scan) and counted into the full-trace
    # infinite reference (the control variate's numerator) and the
    # sampled controls.  An infinite cache hits iff the URL's previous
    # copy had this size, which depends on that URL's requests alone —
    # so one URL -> size map answers for the reference and for every
    # URL-sampled control at once.
    reference = _Tally(1.0)
    last_size: Dict[str, int] = {}
    strata = [
        [(cell_rate, control[cell_rate], [])
         for cell_rate in sorted(control, reverse=True)]
        for control in controls
    ]
    bank_started = time.perf_counter()
    for index, (url, size) in enumerate(zip(trace.urls, trace.sizes)):
        hit = last_size.get(url) == size
        if not hit:
            last_size[url] = size
        reference.count(size, hit)
        for salt, salt_strata in zip(salts, strata):
            position = url_sample_rate_hash(url, salt)
            for cell_rate, control_tally, sample in salt_strata:
                if position >= cell_rate:
                    break
                control_tally.count(size, hit)
                sample.append(index)
    # Each shadow cache then replays its rate's sample on its own, so
    # one cache's dict and heap stay hot at a time.
    shadow_accesses = 0
    for bank, salt_strata in zip(banks, strata):
        columns = (trace.urls, trace.sizes, trace.stamps, trace.types)
        samples = {
            cell_rate: [[column[i] for i in sample] for column in columns]
            for cell_rate, _, sample in salt_strata
        }
        for cell in bank.values():
            cell.replay(*samples[cell.rate])
            shadow_accesses += len(samples[cell.rate][0])
    bank_seconds = time.perf_counter() - bank_started
    if not reference.requests:
        raise ValueError("trace is empty")
    inf_hr, inf_whr = reference.hr, reference.whr

    estimate_started = time.perf_counter()
    for salt, control in zip(salts, controls):
        for cell in control.values():
            if not cell.requests:
                raise ValueError(
                    f"salt {salt} sampled no requests; raise rate"
                )
    points: List[MRCPoint] = []
    for key in sort_keys:
        for fraction in fractions:
            hr_values, whr_values = [], []
            for bank, control in zip(banks, controls):
                cell = bank[(key.name, fraction)]
                cv = control[rates[fraction]]
                hr_scale = inf_hr / cv.hr if cv.hr else 1.0
                whr_scale = inf_whr / cv.whr if cv.whr else 1.0
                hr_values.append(cell.hr * hr_scale)
                whr_values.append(cell.whr * whr_scale)
            hr, hr_ci = _mean_ci(hr_values, confidence)
            whr, whr_ci = _mean_ci(whr_values, confidence)
            points.append(MRCPoint(
                key=key.name, fraction=fraction,
                hr=hr, whr=whr, hr_ci=hr_ci, whr_ci=whr_ci,
                rate=rates[fraction], replicates=replicates,
            ))
    estimate_seconds = time.perf_counter() - estimate_started
    total_seconds = time.perf_counter() - started

    if metrics is not None:
        metrics.requests.inc(reference.requests)
        metrics.shadow_accesses.inc(shadow_accesses)
        metrics.replicates.inc(replicates)
        metrics.points.inc(len(points))
        for phase, seconds in (
            ("scan", scan_seconds),
            ("shadow_bank", bank_seconds),
            ("estimate", estimate_seconds),
        ):
            metrics.phase_seconds.labels(phase=phase).observe(seconds)
            if obs.profiler is not None:
                obs.profiler.record(("mrc", phase), seconds)

    return MRCResult(
        points=points, rate=rate, replicates=replicates,
        confidence=confidence, requests=reference.requests,
        seconds=total_seconds,
    )


# -- checksummed JSONL export --------------------------------------------------


class MRCCurvesError(ValueError):
    """A curves export is missing, truncated, or corrupt."""


def write_curves(result: MRCResult, path: Union[str, Path]) -> int:
    """Write a result's points as JSONL with a trailing checksum record
    (the same envelope the time-series export uses); returns the point
    count (excluding the trailer line)."""
    return write_checksummed_jsonl(
        result.records(), path, CURVES_CHECKSUM_KIND,
    )


def read_curves(path: Union[str, Path]) -> List[dict]:
    """Parse and verify a checksummed curves export.

    Raises :class:`MRCCurvesError` when the file is missing, empty,
    truncated, or fails its checksum.
    """
    return read_checksummed_jsonl(path, CURVES_CHECKSUM_KIND, MRCCurvesError)
