"""Synthetic workload substrate.

The paper's five traces (U, C, G, BR, BL) are no longer distributable; this
subpackage synthesises statistically faithful stand-ins.  See
:mod:`repro.workloads.profiles` for the published numbers each profile
encodes and DESIGN.md for the substitution argument.

Typical use::

    from repro.workloads import generate_valid
    trace = generate_valid("BL", seed=42, scale=0.1)
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "zipf": "ZipfSampler zipf_weights",
    "sizes": "DEFAULT_SHAPES SizeModel model_for_mean",
    "calendars": (
        "ActivityCalendar classroom_calendar diurnal_offset flat_calendar "
        "semester_calendar weekday_calendar"
    ),
    "catalog": "Catalog Document build_catalog",
    "profiles": "PROFILES TypeShareTarget WorkloadProfile profile",
    "generator": "GeneratedTrace WorkloadGenerator generate generate_valid",
    "custom": "make_profile",
    "calibrate": "measure_same_day_locality profile_from_trace",
    "fidelity": "FidelityReport check_fidelity",
})
