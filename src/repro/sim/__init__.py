"""Event-driven memory-hierarchy simulation backend.

``repro.sim`` is the second timing backend behind the
:class:`~repro.sim.backend.TimingBackend` seam: where the analytic
backend answers with closed forms, this package replays synthesized
access streams through bit-PLRU set-associative caches
(:mod:`repro.sim.engine`), a DDR row-buffer model
(:mod:`repro.sim.dramsim`) and a shared-interconnect contention queue
(:mod:`repro.sim.contention`).  :mod:`repro.sim.crosscheck` runs both
backends over the paper workloads and reports per-timing relative
errors and per-decision agreement (``repro crosscheck``).

The crosscheck module is imported lazily (it pulls in the framework);
everything else here is dependency-light.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.backend": ("ANALYTIC", "AnalyticBackend", "SimulatedBackend",
                          "TimingBackend", "get_backend"),
    "repro.sim.config": ("SimConfig",),
})

__all__ = [
    "ANALYTIC",
    "AnalyticBackend",
    "SimConfig",
    "SimulatedBackend",
    "TimingBackend",
    "get_backend",
]
