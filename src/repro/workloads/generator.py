"""Synthetic trace generation calibrated to the paper's workload profiles.

The generator reproduces, per workload, every published characteristic the
cache simulation is sensitive to:

* headline volume: valid request count, duration, bytes transferred;
* Table 4 media-type mix by references *and* bytes (via per-type calibrated
  size models);
* Zipf URL/server popularity (Figures 1-2) and the size skew of Figure 13;
* the unique-document footprint (≈ MaxNeeded of Experiment 1);
* temporal structure: activity calendars, within-day locality, end-of-term
  review behaviour, workload U's fall-semester user-population shift;
* document modifications (URL re-referenced with a different size) at the
  paper's measured 0.5%-4.1% rate, and the Section 1.1 log artifacts
  (non-200 lines, size-0 lines) so validation is exercised end to end.

Generation is fully deterministic given ``(profile, seed, scale)``.
"""

from __future__ import annotations

import random
import zlib
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.trace.record import DocumentType, TraceMetadata
from repro.trace.compiled import CompiledTrace
from repro.trace.validation import TraceValidator
from repro.workloads.calendars import diurnal_offset
from repro.workloads.catalog import Catalog, Column, build_catalog
from repro.workloads.profiles import PROFILES, WorkloadProfile, profile as lookup_profile
from repro.workloads.sizes import SizeModel, model_for_mean
from repro.workloads.zipf import ZipfSampler

__all__ = ["GeneratedTrace", "WorkloadGenerator", "generate", "generate_valid"]


@dataclass
class GeneratedTrace:
    """A synthesised workload: the raw log, as columns, plus provenance."""

    profile: WorkloadProfile
    seed: int
    scale: float
    raw: CompiledTrace
    #: Every document the generator could reference, all generations.
    catalog: Catalog
    metadata: TraceMetadata

    def valid(self) -> CompiledTrace:
        """The validated trace (Section 1.1 rules applied)."""
        return TraceValidator().validate(self.raw)


class WorkloadGenerator:
    """Synthesises a trace for one workload profile.

    Args:
        profile: the workload to synthesise (see
            :mod:`repro.workloads.profiles`).
        seed: randomness seed; identical ``(profile, seed, scale)`` triples
            produce identical traces.
        scale: multiplies the request count and the document universe
            (hence MaxNeeded) while preserving per-URL concentration;
            tests and benchmarks use small scales for speed.
    """

    def __init__(
        self,
        profile: Union[WorkloadProfile, str],
        seed: int = 0,
        scale: float = 1.0,
    ) -> None:
        if isinstance(profile, str):
            profile = lookup_profile(profile)
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.profile = profile
        self.seed = seed
        self.scale = scale
        # zlib.crc32 is stable across processes (str hash() is salted, which
        # would make traces irreproducible run to run).
        key_hash = zlib.crc32(profile.key.encode("utf-8"))
        self._rng = random.Random((key_hash ^ seed) & 0xFFFFFFFF)

    # -- catalog construction ------------------------------------------------

    def _size_models(self) -> Dict[DocumentType, SizeModel]:
        models = {}
        for target in self.profile.type_mix:
            if target.pct_refs > 0:
                mean = target.mean_size(self.profile.mean_request_size)
                models[target.doc_type] = model_for_mean(
                    target.doc_type.value, mean
                )
        return models

    def _type_counts(self, budget_bytes: float) -> Dict[DocumentType, int]:
        """Document counts per type so that the unique-document footprint
        approximates ``budget_bytes`` split by the Table 4 byte shares."""
        counts = {}
        for target in self.profile.type_mix:
            if target.pct_refs <= 0:
                continue
            mean = target.mean_size(self.profile.mean_request_size)
            share = budget_bytes * target.pct_bytes / 100.0
            counts[target.doc_type] = max(1, round(share / mean))
        return counts

    def _build_catalogs(
        self, models: Dict[DocumentType, SizeModel]
    ) -> List[Catalog]:
        """One catalog per generation, generation 0 first."""
        prof = self.profile
        budget = prof.max_needed_bytes * self.scale * prof.catalog_inflation
        shares = [1.0]
        if prof.new_generation_day is not None:
            shares.append(prof.new_generation_scale)
        return [
            build_catalog(
                self._type_counts(budget * share),
                models,
                rng=self._rng,
                server_count=prof.server_count,
                server_zipf_exponent=prof.server_zipf_exponent,
                domain=prof.domain,
                generation=generation,
                # Namespace URLs by workload so distinct workloads never
                # emit the same URL with different sizes (which would fake
                # cross-workload document sharing in multi-cache
                # experiments), and generations by a path component.
                url_prefix=f"{prof.key.lower()}/{'fall/' * generation}",
                size_rank_correlation=prof.size_rank_correlation,
            )
            for generation, share in enumerate(shares)
        ]

    # -- request synthesis ---------------------------------------------------

    def generate(self) -> GeneratedTrace:
        """Synthesise the full raw trace (including invalid log lines).

        The order in which random numbers are drawn is part of the output:
        the loop below hoists what does not change from one request to the
        next, and draws exactly what a request has always drawn.  Each row
        goes straight into the raw log's columns; each day's stretch is
        then put in timestamp order.
        """
        rng = self._rng
        prof = self.profile
        models = self._size_models()
        catalogs = self._build_catalogs(models)
        request_target = max(1, round(prof.requests * self.scale))
        calendar = prof.calendar_factory(prof.duration_days, rng)
        per_day = calendar.allocate(request_target)

        mix = [t for t in prof.type_mix if t.pct_refs > 0]
        type_population = [t.doc_type for t in mix]
        # What ``rng.choices(weights=...)`` would accumulate on every call.
        cum_weights = list(accumulate(t.pct_refs for t in mix))
        # One Zipf CDF serves every column: a shorter column's CDF is its
        # prefix, and ``random() * total`` never passes the column's total.
        rank_cdf = ZipfSampler(
            max(len(c.sizes) for catalog in catalogs for c in catalog.columns),
            prof.zipf_exponent, rng=rng,
        ).cumulative
        picks = [
            self._type_picks(catalog, type_population, rank_cdf)
            for catalog in catalogs
        ]

        review_start_day: Optional[int] = None
        if prof.review_start_frac is not None:
            review_start_day = int(prof.review_start_frac * prof.duration_days)
        # A second catalog exists exactly when the profile names this day.
        fall_start_day = prof.new_generation_day

        # A document gets a dense id on its first reference (``ids[rank]``
        # of its pick; id 0 names none) and from then on is one row of
        # these id-indexed columns: its URL (the string the raw log
        # interns), current size, type, and home column and rank.  A
        # document referenced before has logged a non-zero size (a first
        # reference logs its size, and every size is positive), so the
        # log-zero draw, like the modification draw, asks only "seen?".
        urls: List[str] = [""]
        sizes = array("q", [0])
        types: List[Optional[DocumentType]] = [None]
        homes: List[Optional[Column]] = [None]
        ranks = array("i", [0])
        history = array("i")
        raw = CompiledTrace()
        add = raw.appender()
        clients = self._client_pool()

        draw, choice, choices = rng.random, rng.choice, rng.choices
        same_day_locality = prof.same_day_locality
        review_boost = prof.review_boost
        new_generation_share = prof.new_generation_share
        modification_rate = prof.modification_rate
        zero_size_rate = prof.zero_size_rate
        invalid_status_rate = prof.invalid_status_rate

        for day, count in enumerate(per_day):
            day_start = day * 86400.0
            first = len(raw)
            today_refs = array("i")
            in_review = review_start_day is not None and day >= review_start_day
            in_fall = fall_start_day is not None and day >= fall_start_day
            for _ in range(count):
                seen = True
                if today_refs and draw() < same_day_locality:
                    doc = choice(today_refs)
                elif in_review and history and draw() < review_boost:
                    # Uniform over past *references* weights documents by
                    # their historical reference count -- the
                    # NREF-correlated review behaviour the paper observed
                    # for workloads C and G.
                    doc = choice(history)
                else:
                    generation = (
                        1 if in_fall and draw() < new_generation_share else 0
                    )
                    total, column, ids = choices(
                        picks[generation], cum_weights=cum_weights
                    )[0]
                    rank = bisect_left(rank_cdf, draw() * total)
                    doc = ids[rank]
                    if not doc:
                        seen = False
                        doc = ids[rank] = len(urls)
                        urls.append(column.url(rank))
                        sizes.append(column.sizes[rank])
                        types.append(column.doc_type)
                        homes.append(column)
                        ranks.append(rank)
                doc_type = types[doc]
                if seen and draw() < modification_rate:
                    sizes[doc] = models[doc_type].sample(rng)
                    homes[doc].modify(ranks[doc], sizes[doc])
                today_refs.append(doc)
                history.append(doc)
                timestamp = day_start + diurnal_offset(rng)
                url = urls[doc]
                size = 0 if seen and draw() < zero_size_rate else sizes[doc]
                add(timestamp, url, size, 200, choice(clients), doc_type)
                if draw() < invalid_status_rate:
                    # A raw log line validation must discard.
                    status = choice((304, 403, 404, 500))
                    add(
                        day_start + diurnal_offset(rng), url,
                        0 if status == 304 else sizes[doc], status,
                        choice(clients), doc_type,
                    )
            raw.sort_from(first)
        raw.seal()

        metadata = TraceMetadata(
            name=prof.key,
            description=prof.description,
            duration_days=prof.duration_days,
            extra={"seed": self.seed, "scale": self.scale},
        )
        return GeneratedTrace(
            profile=prof,
            seed=self.seed,
            scale=self.scale,
            raw=raw,
            catalog=Catalog(
                [column for catalog in catalogs for column in catalog.columns],
                catalogs[0].servers,
            ),
            metadata=metadata,
        )

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _type_picks(
        catalog: Catalog,
        type_population: Sequence[DocumentType],
        rank_cdf: List[float],
    ) -> List[Tuple[float, Column, array]]:
        """For each media type of the mix, in order: the total of
        ``rank_cdf`` over the catalog's column of that type, the column,
        and its rank -> document id map (all 0, shared by the column's
        picks).  A type the catalog lacks stands in the catalog's first."""
        columns = {
            column.doc_type: (column, array("i", [0]) * len(column.sizes))
            for column in catalog.columns
        }
        fallback = columns[catalog.columns[0].doc_type]
        return [
            (rank_cdf[len(column.sizes) - 1], column, ids)
            for column, ids in (columns.get(t, fallback) for t in type_population)
        ]

    def _client_pool(self) -> List[str]:
        prof = self.profile
        if prof.key == "BR":
            return [f"remote{i}.client{i % 211}.net"
                    for i in range(prof.client_count)]
        return [f"client{i}.{prof.domain}" for i in range(prof.client_count)]


def generate(
    profile: Union[WorkloadProfile, str],
    seed: int = 0,
    scale: float = 1.0,
) -> GeneratedTrace:
    """Synthesise one workload's raw trace."""
    return WorkloadGenerator(profile, seed=seed, scale=scale).generate()


def generate_valid(
    profile: Union[WorkloadProfile, str],
    seed: int = 0,
    scale: float = 1.0,
) -> CompiledTrace:
    """Synthesise one workload and return the validated trace the
    simulator consumes."""
    return generate(profile, seed=seed, scale=scale).valid()
