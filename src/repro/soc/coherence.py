"""Coherence behaviour of the three communication models.

The paper (Fig. 1) distinguishes four hardware situations:

a) **Zero-copy, caches disabled** — concurrent pinned accesses are kept
   coherent by turning the last-level caches off.  On the TX2 (and
   Nano) the CPU LLC is disabled too; the GPU then reads DRAM through a
   slow uncached path.
b) **Zero-copy with HW I/O coherence** (Xavier) — the iGPU snoops the
   CPU cache directly; the GPU LLC stays disabled but CPU caches stay
   on, and the GPU's uncached path is much faster.
c) **Standard copy** — all caches enabled; software flushes them before
   and after each GPU kernel invocation.
d) **Unified memory** — all caches enabled; the runtime migrates pages
   on demand and flushes like SC at kernel boundaries.

:class:`ZeroCopyBehavior` captures what a given board does for (a)/(b);
the SC/UM costs are modelled by the executors in :mod:`repro.comm`
using the flush primitives of the cache model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Communication-model identifiers used across the package.
MODEL_SC = "SC"
MODEL_UM = "UM"
MODEL_ZC = "ZC"
ALL_MODELS = (MODEL_SC, MODEL_UM, MODEL_ZC)


class CoherenceMode(enum.Enum):
    """How coherence is maintained for a given communication model."""

    SW_FLUSH = "sw_flush"  # standard copy: flush around kernels
    PAGE_MIGRATION = "page_migration"  # unified memory runtime
    ZC_CACHES_DISABLED = "zc_caches_disabled"  # Nano / TX2 zero-copy
    ZC_IO_COHERENT = "zc_io_coherent"  # Xavier zero-copy


@dataclass(frozen=True)
class ZeroCopyBehavior:
    """What adopting zero-copy does on a specific board.

    Attributes:
        mode: disabled caches vs. hardware I/O coherence.
        gpu_llc_disabled: the GPU LLC is always off under ZC (both
            variants in the paper).
        cpu_llc_disabled: True on Nano/TX2, False on Xavier.
        gpu_zc_bandwidth: bytes/s the GPU sustains on the uncached /
            I/O-coherent path (the paper's Table I "Zero Copy" column).
        cpu_zc_bandwidth: bytes/s the CPU sustains to pinned memory
            when its LLC is disabled (irrelevant on Xavier).
        snoop_latency_s: extra latency per GPU transaction for the
            I/O-coherent snoop (zero for the disabled-cache variant).
        cpu_uncached_latency_s: per-transaction latency the CPU pays on
            the uncached path for *dependent* (same-address) access
            chains, which cannot be pipelined; independent streaming
            accesses are governed by ``cpu_zc_bandwidth`` instead.
    """

    mode: CoherenceMode
    gpu_zc_bandwidth: float
    cpu_zc_bandwidth: float
    gpu_llc_disabled: bool = True
    cpu_llc_disabled: bool = True
    snoop_latency_s: float = 0.0
    cpu_uncached_latency_s: float = 5.0e-9

    def __post_init__(self) -> None:
        if self.mode not in (
            CoherenceMode.ZC_CACHES_DISABLED,
            CoherenceMode.ZC_IO_COHERENT,
        ):
            raise ConfigurationError(
                f"ZeroCopyBehavior mode must be a zero-copy mode, got {self.mode}"
            )
        if self.gpu_zc_bandwidth <= 0 or self.cpu_zc_bandwidth <= 0:
            raise ConfigurationError("zero-copy path bandwidths must be positive")
        if self.mode is CoherenceMode.ZC_IO_COHERENT and self.cpu_llc_disabled:
            raise ConfigurationError(
                "I/O-coherent zero-copy keeps the CPU cache enabled"
            )
        if self.snoop_latency_s < 0:
            raise ConfigurationError("snoop latency cannot be negative")

    @property
    def io_coherent(self) -> bool:
        """True for the Xavier-style hardware I/O coherence variant."""
        return self.mode is CoherenceMode.ZC_IO_COHERENT


@dataclass(frozen=True)
class FlushCostModel:
    """Cost of the software flushes the SC/UM models perform.

    A flush writes back every dirty line and invalidates the rest.  The
    cost has a fixed driver overhead plus a per-line component; dirty
    lines additionally pay the DRAM write.
    """

    fixed_overhead_s: float = 2.0e-6
    per_line_s: float = 1.2e-9

    def __post_init__(self) -> None:
        if self.fixed_overhead_s < 0 or self.per_line_s < 0:
            raise ConfigurationError("flush costs cannot be negative")

    def flush_time(self, resident_lines: int, dirty_lines: int,
                   line_size: int, dram_bandwidth: float) -> float:
        """Seconds to flush a cache with the given occupancy."""
        if resident_lines < dirty_lines:
            raise ConfigurationError(
                f"resident lines ({resident_lines}) < dirty lines ({dirty_lines})"
            )
        walk = self.fixed_overhead_s + resident_lines * self.per_line_s
        writeback = (dirty_lines * line_size) / dram_bandwidth if dram_bandwidth else 0.0
        return walk + writeback


@dataclass(frozen=True)
class PageMigrationModel:
    """Cost model for the unified-memory on-demand page migration.

    The UM runtime faults on first touch of a page by the "other"
    processor and migrates the page.  The paper observes UM within
    ±8 % of SC on all devices; the driver delta is this fault machinery.
    """

    page_size: int = 4096
    #: Per-page driver cost.  The UM runtime batches and prefetches
    #: migrations, so the effective per-page overhead is far below a
    #: raw fault — calibrated to keep UM within the paper's ±8 %
    #: envelope of SC on every workload size.
    fault_overhead_s: float = 0.025e-6
    migration_bandwidth: float = 0.0  # 0 → use the board copy engine

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise ConfigurationError("page size must be positive")
        if self.fault_overhead_s < 0:
            raise ConfigurationError("fault overhead cannot be negative")

    def pages_for(self, num_bytes: int) -> int:
        """Number of pages spanning ``num_bytes``."""
        if num_bytes <= 0:
            return 0
        return -(-num_bytes // self.page_size)

    def migration_time(self, num_bytes: int, copy_bandwidth: float,
                       faulted_fraction: float = 1.0) -> float:
        """Seconds to migrate ``num_bytes`` with the given fraction of
        pages actually faulting (warm data does not migrate again)."""
        if not 0.0 <= faulted_fraction <= 1.0:
            raise ConfigurationError(
                f"faulted_fraction must be in [0, 1], got {faulted_fraction}"
            )
        pages = self.pages_for(num_bytes) * faulted_fraction
        bandwidth = self.migration_bandwidth or copy_bandwidth
        moved = pages * self.page_size
        return pages * self.fault_overhead_s + (moved / bandwidth if bandwidth else 0.0)
