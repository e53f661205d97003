"""Simulated embedded SoC substrate.

This subpackage models the hardware the paper measures on real Jetson
boards: a CPU complex and an integrated GPU sharing one DRAM through a
coherent interconnect, each with private caches.  The communication
models in :mod:`repro.comm` and the micro-benchmarks in
:mod:`repro.microbench` execute against this substrate.

Public entry points:

- :class:`repro.soc.board.BoardConfig` and the Jetson presets
  (:func:`repro.soc.board.jetson_nano`, ``jetson_tx2``, ``jetson_xavier``)
- :class:`repro.soc.soc.SoC` — an instantiated board ready to run tasks
- :class:`repro.soc.stream.AccessStream` — memory access traces
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.soc.address": ("AddressSpace", "Buffer", "MemoryRegion",
                          "RegionKind"),
    "repro.soc.board": ("BoardConfig", "available_boards", "get_board",
                        "jetson_nano", "jetson_tx2", "jetson_xavier"),
    "repro.soc.cache": ("CacheConfig", "CacheStats", "SetAssociativeCache"),
    "repro.soc.coherence": ("CoherenceMode", "ZeroCopyBehavior"),
    "repro.soc.soc": ("SoC",),
    "repro.soc.stream": ("AccessStream",),
})

__all__ = [
    "AddressSpace",
    "Buffer",
    "MemoryRegion",
    "RegionKind",
    "BoardConfig",
    "available_boards",
    "get_board",
    "jetson_nano",
    "jetson_tx2",
    "jetson_xavier",
    "CacheConfig",
    "CacheStats",
    "SetAssociativeCache",
    "CoherenceMode",
    "ZeroCopyBehavior",
    "SoC",
    "AccessStream",
]
