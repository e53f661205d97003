"""Result formatting and paper-reference comparison.

- :mod:`repro.analysis.tables` — renders the paper's tables from
  simulation results and carries the paper's published values for
  side-by-side comparison;
- :mod:`repro.analysis.figures` — extracts the series behind the
  paper's figures (CSV rows / ASCII plots for terminals).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.tables": ("PAPER_REFERENCE", "Table", "format_table",
                              "paper_speedup_pct"),
    "repro.analysis.figures": ("FigureSeries", "ascii_chart"),
    "repro.analysis.validation": ("ReproductionCheck", "Verdict",
                                  "run_reproduction_checks", "summarize"),
})

__all__ = [
    "PAPER_REFERENCE",
    "Table",
    "format_table",
    "paper_speedup_pct",
    "FigureSeries",
    "ascii_chart",
    "ReproductionCheck",
    "Verdict",
    "run_reproduction_checks",
    "summarize",
]
