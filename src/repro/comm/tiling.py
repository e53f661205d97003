"""The zero-copy tiled communication pattern (paper Fig. 4, §III-C).

Concurrent CPU/iGPU access to pinned memory needs data consistency and
race freedom without per-access synchronization.  The paper's pattern:

- an n-dimensional data structure is partitioned into tiles whose size
  ``B_size`` is the smaller of the CPU and GPU LLC *block* (line)
  sizes, so each tile access is one coalesced transaction;
- execution proceeds in pipelined phases: in phase *i* the CPU reads
  then writes the even tiles while the iGPU reads and writes the odd
  tiles; in phase *i+1* the parities swap.

Within a phase the two processors touch disjoint tiles — that is the
race-freedom invariant :func:`check_race_free` verifies, and the
property-based tests attack.  Between phases a lightweight barrier
synchronizes the swap.

:class:`TiledZeroCopyPattern` also computes the *timing* of an
overlapped execution: each phase runs the two processors' half-demands
concurrently through the shared fabric, and the iteration pays one
barrier per phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError, RaceConditionError
from repro.kernels.patterns import TiledPattern
from repro.kernels.workload import BufferSpec
from repro.soc.board import BoardConfig
from repro.soc.events import OverlapJob, OverlapResult, run_overlapped
from repro.soc.interconnect import InterconnectConfig
from repro.soc.stream import AccessStream

#: Default cost of the inter-phase barrier (host-side lightweight sync).
DEFAULT_BARRIER_OVERHEAD_S = 2.0e-6


@dataclass(frozen=True)
class TilingPlan:
    """Geometry of the Fig-4 pattern for one shared buffer."""

    buffer_name: str
    buffer_bytes: int
    element_size: int
    tile_bytes: int
    num_tiles: int
    num_phases: int = 2
    barrier_overhead_s: float = DEFAULT_BARRIER_OVERHEAD_S
    #: Coalescing granularity (the larger LLC line size): tiles smaller
    #: than this split memory transactions and waste bandwidth.
    coalescing_block: int = 64

    def __post_init__(self) -> None:
        if self.tile_bytes <= 0:
            raise ConfigurationError("tile size must be positive")
        if self.num_tiles < 2:
            raise ConfigurationError(
                f"the alternating pattern needs at least 2 tiles, got {self.num_tiles}"
            )
        if self.num_phases < 2:
            raise ConfigurationError("the pattern needs at least 2 phases")
        if self.barrier_overhead_s < 0:
            raise ConfigurationError("barrier overhead cannot be negative")

    @classmethod
    def for_buffer(
        cls,
        spec: BufferSpec,
        board: BoardConfig,
        num_phases: int = 2,
        barrier_overhead_s: float = DEFAULT_BARRIER_OVERHEAD_S,
        tile_bytes: int = 0,
    ) -> "TilingPlan":
        """Build the plan the paper prescribes for ``spec`` on ``board``.

        The tile size defaults to the smaller of the CPU and GPU LLC
        line sizes so every tile access coalesces into one transaction;
        pass ``tile_bytes`` to override (ablation studies).
        """
        if tile_bytes <= 0:
            tile_bytes = min(
                board.cpu.llc.line_size, board.gpu.llc.line_size
            )
        num_tiles = spec.size_bytes // tile_bytes
        if num_tiles < 2:
            raise ConfigurationError(
                f"buffer {spec.name!r} ({spec.size_bytes} B) too small for "
                f"{tile_bytes}-byte tiles"
            )
        return cls(
            buffer_name=spec.name,
            buffer_bytes=spec.size_bytes,
            element_size=spec.element_size,
            tile_bytes=tile_bytes,
            num_tiles=num_tiles,
            num_phases=num_phases,
            barrier_overhead_s=barrier_overhead_s,
            coalescing_block=max(
                board.cpu.llc.line_size, board.gpu.llc.line_size
            ),
        )

    @property
    def coalescing_efficiency(self) -> float:
        """Fraction of transaction bandwidth a tile access utilizes.

        Tiles at least one coalescing block wide move full transactions
        (the paper sizes tiles so "each access to a tile [is] performed
        by a coalesced memory transaction"); smaller tiles waste the
        remainder of every block.
        """
        if self.tile_bytes >= self.coalescing_block:
            return 1.0
        return self.tile_bytes / self.coalescing_block

    def cpu_parity(self, phase: int) -> int:
        """Tile parity the CPU owns in ``phase`` (evens first)."""
        return phase % 2

    def gpu_parity(self, phase: int) -> int:
        """Tile parity the iGPU owns in ``phase`` (odds first)."""
        return (phase + 1) % 2

    def phase_patterns(self, phase: int) -> Tuple[TiledPattern, TiledPattern]:
        """(CPU pattern, GPU pattern) for one phase."""
        return (
            TiledPattern(
                buffer=self.buffer_name,
                num_tiles=self.num_tiles,
                parity=self.cpu_parity(phase),
            ),
            TiledPattern(
                buffer=self.buffer_name,
                num_tiles=self.num_tiles,
                parity=self.gpu_parity(phase),
            ),
        )


def check_race_free(cpu_stream: AccessStream, gpu_stream: AccessStream,
                    granularity: int) -> None:
    """Verify two concurrent streams never touch the same block.

    ``granularity`` is the coherence block size (the tile size): two
    accesses conflict when they land in the same block, even at
    different byte offsets.  Raises :class:`RaceConditionError` on any
    conflict.
    """
    if granularity <= 0:
        raise ConfigurationError("granularity must be positive")
    if not len(cpu_stream.addresses) or not len(gpu_stream.addresses):
        return
    cpu_blocks = np.unique(cpu_stream.addresses // granularity)
    gpu_blocks = np.unique(gpu_stream.addresses // granularity)
    conflicts = np.intersect1d(cpu_blocks, gpu_blocks)
    if len(conflicts):
        raise RaceConditionError(
            f"CPU and iGPU touch {len(conflicts)} common block(s) in one "
            f"phase (first at {int(conflicts[0]) * granularity:#x}); the "
            f"tiled pattern requires disjoint tile sets per phase"
        )


class TiledZeroCopyPattern:
    """Executable form of the Fig-4 pattern: geometry + overlap timing."""

    def __init__(self, plan: TilingPlan) -> None:
        self.plan = plan

    def overlapped_execution(
        self,
        cpu_job: OverlapJob,
        gpu_job: OverlapJob,
        interconnect: InterconnectConfig,
    ) -> "TiledExecution":
        """Timing of one full iteration under the pattern.

        ``cpu_job``/``gpu_job`` carry the *whole-iteration* demands;
        each of the plan's phases runs 1/num_phases of each demand
        concurrently, then pays one barrier.
        """
        phases = self.plan.num_phases
        efficiency = self.plan.coalescing_efficiency
        jobs = [
            _scaled_job(cpu_job, 1.0 / phases, efficiency),
            _scaled_job(gpu_job, 1.0 / phases, efficiency),
        ]
        # All phases run identical job sets through a stateless arbiter:
        # simulate one and replay it.  The total is still accumulated
        # term by term, matching a per-phase loop's floating-point
        # rounding exactly.
        result = run_overlapped(jobs, interconnect)
        phase_results = [result] * phases
        total = 0.0
        for _ in range(phases):
            total += result.makespan_s + self.plan.barrier_overhead_s
        return TiledExecution(
            plan=self.plan,
            phase_results=phase_results,
            total_time_s=total,
            sync_overhead_s=phases * self.plan.barrier_overhead_s,
        )


def _scaled_job(job: OverlapJob, factor: float,
                bandwidth_efficiency: float = 1.0) -> OverlapJob:
    """A copy of ``job`` with demands scaled to one phase and its port
    derated by the tile-coalescing efficiency."""
    return OverlapJob(
        name=job.name,
        compute_time_s=job.compute_time_s * factor,
        memory_bytes=job.memory_bytes * factor,
        solo_bandwidth=job.solo_bandwidth * bandwidth_efficiency,
        overlap_compute_memory=job.overlap_compute_memory,
    )


@dataclass(frozen=True)
class TiledExecution:
    """Timing of one iteration under the tiled pattern."""

    plan: TilingPlan
    phase_results: List[OverlapResult]
    total_time_s: float
    sync_overhead_s: float

    @property
    def overlapped_time_s(self) -> float:
        """Concurrent execution time excluding barriers."""
        return self.total_time_s - self.sync_overhead_s
