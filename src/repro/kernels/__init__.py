"""Workload intermediate representation.

The paper's micro-benchmarks and applications are defined by their
*operation mixes* (``fma.rn``, ``sqrt``, ``div`` …) and *memory access
shapes* (``ld.global``/``st.global`` over linear, fractional, or sparse
index spaces).  This subpackage expresses both, independent of any
communication model or board:

- :mod:`repro.kernels.ops` — operation cost table and :class:`OpMix`.
- :mod:`repro.kernels.patterns` — declarative access-pattern specs that
  materialize into :class:`repro.soc.stream.AccessStream` once buffers
  are placed.
- :mod:`repro.kernels.task` — :class:`CpuTask` and :class:`GpuKernel`.
- :mod:`repro.kernels.workload` — :class:`Workload`, the unit the
  communication models execute and the profiler profiles.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.kernels.builders": ("gpu_offload", "ping_pong",
                               "producer_consumer", "streaming_reduction"),
    "repro.kernels.ops": ("OpMix", "OpSpec", "op_table"),
    "repro.kernels.patterns": ("FractionPattern", "LinearPattern",
                               "PatternSpec", "SingleAddressPattern",
                               "SparsePattern", "StridedPattern",
                               "TiledPattern", "VirtualLinearPattern",
                               "VirtualSparsePattern"),
    "repro.kernels.task": ("CpuTask", "GpuKernel"),
    "repro.kernels.workload": ("BufferSpec", "Workload"),
})

__all__ = [
    "producer_consumer",
    "ping_pong",
    "gpu_offload",
    "streaming_reduction",
    "OpMix",
    "OpSpec",
    "op_table",
    "PatternSpec",
    "LinearPattern",
    "SingleAddressPattern",
    "FractionPattern",
    "SparsePattern",
    "StridedPattern",
    "TiledPattern",
    "VirtualLinearPattern",
    "VirtualSparsePattern",
    "CpuTask",
    "GpuKernel",
    "BufferSpec",
    "Workload",
]
