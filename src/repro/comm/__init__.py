"""Communication-model executors.

Each executor runs a :class:`~repro.kernels.workload.Workload` on a
:class:`~repro.soc.soc.SoC` under one of the paper's three CPU-iGPU
communication models and returns an :class:`ExecutionReport` with the
timing/energy breakdown the profiler and the performance model consume:

- :class:`StandardCopyModel` (SC) — explicit copies, caches on,
  software flushes around kernels, serialized tasks.
- :class:`UnifiedMemoryModel` (UM) — on-demand page migration instead
  of copies; performance within a small driver delta of SC.
- :class:`ZeroCopyModel` (ZC) — pinned concurrent access, caches
  disabled or I/O-coherent per board, optional overlapped execution via
  the Fig-4 tiled pattern in :mod:`repro.comm.tiling`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.comm.base": ("CommModel", "get_model"),
    "repro.comm.report": ("ExecutionReport", "IterationBreakdown"),
    "repro.comm.standard_copy": ("StandardCopyModel",),
    "repro.comm.tiling": ("TiledZeroCopyPattern", "TilingPlan"),
    "repro.comm.tiling2d": ("Checkerboard2DPattern", "TilingPlan2D"),
    "repro.comm.unified_memory": ("UnifiedMemoryModel",),
    "repro.comm.zero_copy": ("ZeroCopyModel",),
})

__all__ = [
    "CommModel",
    "get_model",
    "ExecutionReport",
    "IterationBreakdown",
    "StandardCopyModel",
    "UnifiedMemoryModel",
    "ZeroCopyModel",
    "TiledZeroCopyPattern",
    "TilingPlan",
    "TilingPlan2D",
    "Checkerboard2DPattern",
]
