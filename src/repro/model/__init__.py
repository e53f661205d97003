"""The paper's performance model and decision framework.

- :mod:`repro.model.speedup` — the potential-speedup estimators
  (eqns 3-4) with their device-level caps.
- :mod:`repro.model.thresholds` — extraction of the cache-usage
  thresholds and recommendation zones from micro-benchmark-2 sweeps.
- :mod:`repro.model.decision` — the Fig-2 decision flow.
- :mod:`repro.model.framework` — the user-facing façade combining
  device characterization, profiling, and recommendation.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.model.decision": ("Recommendation", "RecommendedModel", "Zone",
                             "decide"),
    "repro.model.framework": ("Framework", "TuningReport"),
    "repro.model.speedup": ("sc_to_zc_speedup", "zc_to_sc_speedup"),
    "repro.model.thresholds": ("SweepPoint", "ThresholdAnalysis",
                               "analyze_sweep"),
    "repro.model.whatif": ("SweepResult", "zc_bandwidth_sweep"),
})

__all__ = [
    "SweepResult",
    "zc_bandwidth_sweep",
    "Recommendation",
    "RecommendedModel",
    "Zone",
    "decide",
    "Framework",
    "TuningReport",
    "sc_to_zc_speedup",
    "zc_to_sc_speedup",
    "SweepPoint",
    "ThresholdAnalysis",
    "analyze_sweep",
]
