"""Robustness subsystem: fault injection, invariant guards, degraded mode.

Real unified-memory platforms do not produce lab-clean inputs: profiler
counters are noisy or missing, cache flushes get dropped by buggy
drivers, copy engines stall under contention, and coherence assumptions
vary run to run (Wahlgren et al., 2025; Ali & Yun, 2017).  This package
makes the framework *survive* such inputs:

- :mod:`repro.robustness.faults` — a deterministic, seeded
  :class:`FaultPlan` describing which faults to inject where;
- :mod:`repro.robustness.inject` — the harness applying a plan to live
  simulations via context-managed patches around :class:`~repro.soc.soc.SoC`
  primitives and :class:`~repro.profiling.counters.AppProfile`
  construction;
- :mod:`repro.robustness.guards` — runtime invariant guards (coherence
  at handoffs, monotonic phase clock, energy/time non-negativity,
  region/buffer containment) raising structured errors, plus the
  ``validate`` suite behind ``repro validate``.

Every injected fault is either *caught* by a guard (a structured
:class:`~repro.errors.ReproError` with a machine-readable code) or
*absorbed* by degraded mode (``KEEP_CURRENT`` + confidence + caveats,
see :mod:`repro.model.decision`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.robustness.faults": ("FaultKind", "FaultPlan", "FaultSpec"),
    "repro.robustness.guards": ("SoCGuards", "ValidationReport", "validate"),
    "repro.robustness.inject": ("FaultInjector", "InjectionEvent",
                                "inject_faults", "injection_active"),
})

__all__ = [
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "InjectionEvent",
    "inject_faults",
    "injection_active",
    "SoCGuards",
    "ValidationReport",
    "validate",
]
