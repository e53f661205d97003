"""Profiling: the "standard profiler" stage of the framework (Fig. 2).

On hardware the paper uses nvprof-class counters; here the profiler
extracts the same counters from simulator runs:

- CPU L1 and LLC miss rates,
- GPU L1 hit rate, transaction count and size,
- kernel runtime, CPU-only time, copy time.

:mod:`repro.profiling.metrics` turns the counters into the paper's
cache-usage metrics (eqns 1-2).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.profiling.counters": ("AppProfile",),
    "repro.profiling.metrics": ("cpu_cache_usage", "gpu_cache_usage"),
    "repro.profiling.profiler": ("Profiler",),
    "repro.profiling.trace": ("RecordedTrace", "TracePattern",
                              "workload_from_trace"),
})

__all__ = [
    "AppProfile",
    "Profiler",
    "cpu_cache_usage",
    "gpu_cache_usage",
    "RecordedTrace",
    "TracePattern",
    "workload_from_trace",
]
