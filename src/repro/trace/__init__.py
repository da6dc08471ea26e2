"""Trace substrate: request records, common log format IO, validation, stats.

The paper's simulator consumes traces of World-Wide Web document requests
collected either from CERN proxy logs or from a tcpdump-based backbone
monitor, both normalised to the NCSA/CERN "common log format" (CLF),
optionally augmented with extra HTTP header fields (Last-Modified,
Content-Type).  This subpackage provides:

* :mod:`repro.trace.record` -- the in-memory request/record types every other
  subsystem consumes.
* :mod:`repro.trace.clf` -- parsing and emission of (augmented) common log
  format lines.
* :mod:`repro.trace.validation` -- the paper's Section 1.1 rules deciding
  which raw requests form the *valid* trace driving the simulation.
* :mod:`repro.trace.compiled` -- the valid trace compiled once: its rows,
  the columns and day slices every replay reads.
* :mod:`repro.trace.reader` / :mod:`repro.trace.writer` -- streaming file IO.
* :mod:`repro.trace.stats` -- workload characterisation used by the paper's
  Section 2.2 (Table 4, Figures 1, 2, 13 and 14).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "record": (
        "DocumentType Request TraceMetadata classify_extension classify_url"
    ),
    "clf": "CLFError format_clf_line parse_clf_line parse_clf_time",
    "compiled": "CompiledTrace compile_trace",
    "validation": "TraceValidator ValidationStats",
    "reader": "read_clf_file read_clf_lines",
    "writer": "write_clf_file write_clf_lines",
    "stats": (
        "WorkloadSummary interreference_scatter server_rank_series "
        "size_histogram summarize type_distribution url_bytes_rank_series"
    ),
    "sampling": "sample_by_url url_sample_rate_hash",
    "tools": (
        "anonymize_clients filter_clients filter_days filter_servers "
        "filter_types merge_traces rebase_timestamps split_by_day "
        "split_by_type"
    ),
})
