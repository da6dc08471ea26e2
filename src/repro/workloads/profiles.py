"""Published characteristics of the five Virginia Tech workloads.

The real traces are unavailable (they were distributed from a long-dead FTP
server), so each profile records every number the paper publishes about its
workload and the generator synthesises a trace matching them:

===========  ======  ========  =========  ==========  =========
Workload     Days    Requests  GB moved   MaxNeeded   Collected
===========  ======  ========  =========  ==========  =========
U            190     173,384   2.19       1400 MB     CERN proxy, UG lab
C            ~100     30,316   0.396      221 MB      CERN proxy, classroom
G            ~80      46,834   0.597      413 MB      CERN proxy, grad host
BR           38      180,132   9.61       198 MB      tcpdump, remote clients
BL           37       53,881   0.629      408 MB      tcpdump, local clients
===========  ======  ========  =========  ==========  =========

Type mixes come from Table 4.  Note: the revised paper's Table 4 column for
workload U sums to 128.2% of bytes (a typo in the source); we renormalise the
six values to 100%, recorded here so EXPERIMENTS.md can flag the discrepancy.

Every profile also encodes the qualitative temporal structure the paper
describes: U's summer break and fall-semester surge of new users, C's
four-meetings-a-week classroom calendar and final-exam review, G's
end-of-semester review jump, the backbone workloads' weekday rhythm, and
BR's audio-dominated single web site.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.trace.record import DocumentType
from repro.workloads.calendars import (
    ActivityCalendar,
    classroom_calendar,
    semester_calendar,
    weekday_calendar,
)

__all__ = ["TypeShareTarget", "WorkloadProfile", "PROFILES", "profile"]


@dataclass(frozen=True)
class TypeShareTarget:
    """Target share of references and bytes for one media type (Table 4)."""

    doc_type: DocumentType
    pct_refs: float
    pct_bytes: float

    def mean_size(self, overall_mean: float) -> float:
        """Mean transfer size this row implies, given the workload's overall
        mean request size: ``overall_mean * pct_bytes / pct_refs``.

        Floored at 128 bytes: Table 4 prints shares to two decimals, so a
        type with references but "0.00" percent of bytes (BR's CGI row)
        would otherwise imply an impossible zero-byte mean document.
        """
        if self.pct_refs <= 0:
            raise ValueError(
                f"{self.doc_type} has no references; mean size undefined"
            )
        return max(128.0, overall_mean * self.pct_bytes / self.pct_refs)


CalendarFactory = Callable[[int, random.Random], ActivityCalendar]


@dataclass(frozen=True)
class WorkloadProfile:
    """Everything the generator needs to synthesise one workload."""

    key: str
    name: str
    description: str
    duration_days: int
    requests: int
    total_bytes: int
    max_needed_bytes: int
    type_mix: Tuple[TypeShareTarget, ...]
    calendar_factory: CalendarFactory
    zipf_exponent: float = 1.0
    server_count: int = 400
    server_zipf_exponent: float = 1.0
    domain: str = "cs.vt.edu"
    client_count: int = 30
    #: Probability a request re-references a URL already seen *today*
    #: (within-day locality; high for the instructor-driven classroom).
    same_day_locality: float = 0.12
    #: Fraction of the trace after which "review" behaviour begins (students
    #: revisiting previously-referenced documents before the final exam).
    review_start_frac: Optional[float] = None
    #: Probability a request during the review period re-references a
    #: historical URL (weighted by past reference count).
    review_boost: float = 0.0
    #: Day at which a new user population arrives (workload U's fall term).
    new_generation_day: Optional[int] = None
    #: Share of post-arrival fresh draws that go to the new URL partition.
    new_generation_share: float = 0.0
    #: Relative size of the new partition's catalog vs. the original.
    new_generation_scale: float = 0.6
    #: Multiplier on the catalog's unique-byte budget.  Under Zipf sampling
    #: a sizeable fraction of the universe is never referenced; inflating
    #: the universe raises the *referenced* footprint (measured MaxNeeded)
    #: and brings cumulative hit rates down to the paper's observed levels.
    #: It does not make MaxNeeded land on ``max_needed_bytes``: at scale
    #: 1.0, seed 1996, MaxNeeded reads 0.40x the published value for U,
    #: 0.41x for C, 0.42x for G, 0.52x for BL and 1.14x for BR.
    catalog_inflation: float = 2.5
    #: Correlation between a document's popularity rank and its (small)
    #: size — Figure 14's re-reference mass sits at small sizes, which is
    #: what makes remove-largest-first nearly optimal for HR.
    size_rank_correlation: float = 0.6
    #: Probability that a re-referenced document has been modified (its size
    #: changes); the paper measured 0.5%-4.1% across traces.
    modification_rate: float = 0.02
    #: Rate of injected non-200 raw log lines (exercises validation).
    invalid_status_rate: float = 0.05
    #: Probability a valid request is logged with size 0 (validator inherits
    #: the last known size, per Section 1.1).
    zero_size_rate: float = 0.01
    notes: str = ""

    @property
    def mean_request_size(self) -> float:
        """Mean bytes per valid request implied by the headline numbers."""
        return self.total_bytes / self.requests

    def mean_size_for(self, doc_type: DocumentType) -> float:
        """Mean transfer size for one media type (Table 4 calibration)."""
        for target in self.type_mix:
            if target.doc_type == doc_type:
                return target.mean_size(self.mean_request_size)
        raise KeyError(f"{doc_type} not in profile {self.key}")


def _mix(*rows: Tuple[DocumentType, float, float]) -> Tuple[TypeShareTarget, ...]:
    return tuple(TypeShareTarget(t, refs, bytes_) for t, refs, bytes_ in rows)


def _renormalise(mix: Tuple[TypeShareTarget, ...]) -> Tuple[TypeShareTarget, ...]:
    """Scale byte percentages to sum to 100 (fixes the Table 4 typo for U)."""
    total = sum(row.pct_bytes for row in mix)
    return tuple(
        TypeShareTarget(row.doc_type, row.pct_refs, row.pct_bytes * 100.0 / total)
        for row in mix
    )


MB = 2**20
GB = 2**30

_T = DocumentType

#: Table 4, workload U — bytes column renormalised (sums to 128.23% as
#: printed in the revised paper; flagged in DESIGN.md / EXPERIMENTS.md).
_U_MIX = _renormalise(_mix(
    (_T.GRAPHICS, 53.00, 47.43),
    (_T.TEXT, 41.46, 31.05),
    (_T.AUDIO, 0.09, 3.15),
    (_T.VIDEO, 0.19, 18.29),
    (_T.CGI, 0.13, 0.08),
    (_T.UNKNOWN, 5.12, 28.23),
))

_G_MIX = _mix(
    (_T.GRAPHICS, 51.45, 35.39),
    (_T.TEXT, 45.23, 26.56),
    (_T.AUDIO, 0.07, 1.47),
    (_T.VIDEO, 0.35, 25.77),
    (_T.CGI, 0.15, 0.12),
    (_T.UNKNOWN, 2.76, 10.58),
)

_C_MIX = _mix(
    (_T.GRAPHICS, 40.78, 35.42),
    (_T.TEXT, 56.06, 19.63),
    (_T.AUDIO, 0.21, 2.93),
    (_T.VIDEO, 0.34, 39.15),
    (_T.CGI, 0.12, 0.03),
    (_T.UNKNOWN, 2.49, 2.84),
)

#: BR: video shows 0.00% of references (and is omitted from generation).
_BR_MIX = _mix(
    (_T.GRAPHICS, 61.66, 8.09),
    (_T.TEXT, 34.11, 4.01),
    (_T.AUDIO, 2.57, 87.78),
    (_T.VIDEO, 0.00, 0.04),
    (_T.CGI, 0.22, 0.00),
    (_T.UNKNOWN, 1.44, 0.07),
)

_BL_MIX = _mix(
    (_T.GRAPHICS, 51.13, 46.26),
    (_T.TEXT, 43.38, 29.30),
    (_T.AUDIO, 0.25, 17.91),
    (_T.VIDEO, 0.04, 3.58),
    (_T.CGI, 0.95, 0.05),
    (_T.UNKNOWN, 4.25, 2.89),
)


def _u_calendar(days: int, rng: random.Random) -> ActivityCalendar:
    # 190 days from April to October 1995: spring term, ~6-week summer
    # trough starting near day 60, fall surge near day 155.
    return semester_calendar(
        days,
        break_start=min(60, days),
        break_end=min(105, days),
        surge_start=min(155, days),
        break_factor=0.18,
        surge_factor=2.6,
        rng=rng,
    )


def _c_calendar(days: int, rng: random.Random) -> ActivityCalendar:
    # Four class meetings a week (Mon-Thu); a couple of field-trip days.
    skipped = tuple(d for d in (38, 59) if d < days)
    return classroom_calendar(
        days, meeting_weekdays=(0, 1, 2, 3), skipped_meetings=skipped,
    )


def _g_calendar(days: int, rng: random.Random) -> ActivityCalendar:
    return weekday_calendar(days, weekend_factor=0.55, rng=rng)


def _backbone_calendar(days: int, rng: random.Random) -> ActivityCalendar:
    return weekday_calendar(days, weekend_factor=0.5, rng=rng)


PROFILES: Dict[str, WorkloadProfile] = {
    "U": WorkloadProfile(
        key="U",
        name="Undergrad",
        description=(
            "~30 workstations in an undergraduate CS lab, 190 days "
            "(April-October 1995) behind a CERN proxy firewall."
        ),
        duration_days=190,
        requests=173_384,
        total_bytes=int(2.19 * GB),
        max_needed_bytes=1400 * MB,
        type_mix=_U_MIX,
        calendar_factory=_u_calendar,
        zipf_exponent=0.9,
        catalog_inflation=4.0,
        server_count=2000,
        client_count=30,
        same_day_locality=0.15,
        new_generation_day=155,
        new_generation_share=0.55,
        new_generation_scale=0.7,
        modification_rate=0.02,
        notes=(
            "Table 4 bytes column renormalised from a 128.23% printed total. "
            "Fall-semester arrival of new users modelled as a second URL "
            "generation receiving 55% of fresh draws from day 155."
        ),
    ),
    "C": WorkloadProfile(
        key="C",
        name="Classroom",
        description=(
            "26 classroom workstations, four multimedia class sessions per "
            "week, spring 1995."
        ),
        duration_days=100,
        requests=30_316,
        total_bytes=int(405.7 * MB),
        max_needed_bytes=221 * MB,
        type_mix=_C_MIX,
        calendar_factory=_c_calendar,
        zipf_exponent=0.85,
        catalog_inflation=6.0,
        server_count=300,
        client_count=26,
        same_day_locality=0.4,
        review_start_frac=0.85,
        review_boost=0.45,
        modification_rate=0.015,
        notes=(
            "Instructor-driven sessions give high within-day locality; "
            "final-exam review re-references earlier material."
        ),
    ),
    "G": WorkloadProfile(
        key="G",
        name="Graduate",
        description=(
            "A popular time-shared client used by >=25 graduate students, "
            "spring 1995."
        ),
        duration_days=80,
        requests=46_834,
        total_bytes=int(610.92 * MB),
        max_needed_bytes=413 * MB,
        type_mix=_G_MIX,
        calendar_factory=_g_calendar,
        zipf_exponent=0.8,
        catalog_inflation=4.0,
        server_count=600,
        client_count=1,
        same_day_locality=0.18,
        review_start_frac=0.88,
        review_boost=0.5,
        modification_rate=0.02,
        notes="End-of-semester review causes the hit-rate jump of Figure 4.",
    ),
    "BR": WorkloadProfile(
        key="BR",
        name="Remote Backbone",
        description=(
            "Worldwide clients requesting documents from servers inside "
            ".cs.vt.edu, 38 days (Sept-Oct 1995), tcpdump-collected."
        ),
        duration_days=38,
        requests=180_132,
        total_bytes=int(9.61 * GB),
        max_needed_bytes=198 * MB,
        type_mix=_BR_MIX,
        calendar_factory=_backbone_calendar,
        zipf_exponent=0.85,
        server_count=12,
        server_zipf_exponent=1.3,
        client_count=4000,
        catalog_inflation=1.0,
        same_day_locality=0.08,
        modification_rate=0.013,
        notes=(
            "A single popular audio web site (the 'British recording "
            "artist' archive) dominates: ~90 audio documents draw 88% of "
            "bytes. All URLs name one of ~12 departmental servers."
        ),
    ),
    "BL": WorkloadProfile(
        key="BL",
        name="Local Backbone",
        description=(
            "Department clients requesting documents from servers anywhere, "
            "37 days (Sept-Oct 1995), tcpdump-collected."
        ),
        duration_days=37,
        requests=53_881,
        total_bytes=int(644.55 * MB),
        max_needed_bytes=408 * MB,
        type_mix=_BL_MIX,
        calendar_factory=_backbone_calendar,
        zipf_exponent=0.8,
        catalog_inflation=4.0,
        server_count=2543,
        client_count=185,
        same_day_locality=0.12,
        modification_rate=0.013,
        notes="2543 unique servers and 36,771 unique URLs in the real trace.",
    ),
}


def profile(key: str) -> WorkloadProfile:
    """Look up a workload profile by its paper name (U, C, G, BR, BL)."""
    try:
        return PROFILES[key.upper()]
    except KeyError:
        raise KeyError(
            f"unknown workload {key!r}; expected one of {sorted(PROFILES)}"
        ) from None
