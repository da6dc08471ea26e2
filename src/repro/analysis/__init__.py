"""Analysis and reporting: regenerate the paper's tables and figures.

* :mod:`repro.analysis.figures` -- builders producing the data series
  behind every figure (1-20) of the paper.
* :mod:`repro.analysis.tables` -- Table 4, the MaxNeeded table, and
  experiment summary tables.
* :mod:`repro.analysis.report` -- plain-text rendering used by the
  benchmark harness and examples.
* :mod:`repro.analysis.compare` -- the paper's qualitative claims as
  machine-checkable expectations, for EXPERIMENTS.md.
* :mod:`repro.analysis.mrc` -- single-pass miss-ratio-curve estimation
  with error bars (all six primary keys in one trace pass).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "figures": "FigureSeries",
    "report": "render_series_summary render_table",
    "compare": "Claim ClaimCheck check_claims",
    "gnuplot": "export_figure write_dat write_script",
    "statistics": "PairedComparison bootstrap_ci paired_daily_difference",
    "sweeps": "capacity_sweep miss_ratio_curve sampled_miss_ratio_curve",
    "mrc": "MRCPoint MRCResult single_pass_mrc",
})
