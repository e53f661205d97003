"""CPU complex timing model.

The CPU executes *routines*: a number of compute cycles plus one or
more memory access streams served by its private L1 and the shared LLC.
Unlike the GPU, a CPU core hides only part of its memory time behind
computation (out-of-order window, hardware prefetch), so the phase time
is

``max(compute, memory) + (1 - hide) * min(compute, memory)``

with a high ``hide`` factor for streaming accesses and none at all for
dependent single-address chains.

On the zero-copy uncached path (boards that disable the CPU caches),
sequential streams remain bandwidth-bound but non-prefetchable patterns
pay a per-transaction latency — see :meth:`CPUModel.run`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.soc.address import RegionKind
from repro.soc.analytic import SummaryBatch
from repro.soc.cache import CacheConfig
from repro.soc.dram import DRAMModel
from repro.soc.hierarchy import CacheHierarchy, LevelSpec, merge_memory_results
from repro.soc.phase import (
    BatchPhaseResult,
    PhaseResult,
    combine_compute_memory,
    combine_compute_memory_array,
)
from repro.soc.stream import AccessStream, PatternKind


def _stream_is_pinned(stream: AccessStream) -> bool:
    """Whether zero-copy treats the stream's pages as uncacheable.

    Untagged streams are treated conservatively as pinned — under the
    zero-copy executor every shared allocation lives in the pinned
    region, so this default only errs toward the paper's measured
    worst case.
    """
    return stream.region_kind is None or stream.region_kind is RegionKind.PINNED


@dataclass(frozen=True)
class CPUConfig:
    """Datasheet-level CPU complex description."""

    name: str
    frequency_hz: float
    l1: CacheConfig
    llc: CacheConfig
    l1_bandwidth: float
    llc_bandwidth: float
    mlp: float = 4.0
    #: Fraction of *streaming* memory time hidden behind computation
    #: (out-of-order window + hardware prefetch).  Dependent
    #: single-address chains hide nothing regardless of this value.
    memory_hide_factor: float = 0.85
    flops_per_cycle: float = 8.0
    #: Sustained instructions per cycle of one core on scalar FP code.
    #: Differentiates microarchitectures at equal frequency (Cortex-A57
    #: vs. Denver2 vs. Carmel).
    ipc: float = 1.0

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ConfigurationError(f"{self.name}: frequency must be positive")
        if self.l1_bandwidth <= 0 or self.llc_bandwidth <= 0:
            raise ConfigurationError(f"{self.name}: cache bandwidths must be positive")
        if self.mlp < 1:
            raise ConfigurationError(f"{self.name}: MLP must be >= 1")
        if not 0.0 <= self.memory_hide_factor <= 1.0:
            raise ConfigurationError(
                f"{self.name}: memory_hide_factor must be in [0, 1]"
            )
        if self.flops_per_cycle <= 0:
            raise ConfigurationError(f"{self.name}: flops_per_cycle must be positive")
        if self.ipc <= 0:
            raise ConfigurationError(f"{self.name}: ipc must be positive")


class CPUModel:
    """A CPU complex bound to a DRAM through its cache hierarchy."""

    def __init__(
        self,
        config: CPUConfig,
        dram: DRAMModel,
        memory_port_bandwidth: float = float("inf"),
        backend=None,
    ) -> None:
        self.config = config
        self.hierarchy = CacheHierarchy(
            specs=[
                LevelSpec(config=config.l1, bandwidth=config.l1_bandwidth),
                LevelSpec(config=config.llc, bandwidth=config.llc_bandwidth),
            ],
            dram=dram,
            memory_port_bandwidth=memory_port_bandwidth,
            name=f"{config.name}-hierarchy",
            backend=backend,
        )

    def compute_time(self, compute_cycles: float) -> float:
        """Seconds of pure computation for ``compute_cycles`` cycles."""
        if compute_cycles < 0:
            raise ConfigurationError("compute cycles cannot be negative")
        return compute_cycles / (self.config.frequency_hz * self.config.ipc)

    def run(
        self,
        name: str,
        compute_cycles: float,
        stream: Union[AccessStream, Sequence[AccessStream]],
        mode: str = "auto",
        uncached_bandwidth: float = 0.0,
        uncached_latency_s: float = 0.0,
    ) -> PhaseResult:
        """Execute one CPU routine standalone.

        Args:
            name: phase label.
            compute_cycles: cycles of pure computation.
            stream: the routine's memory accesses — one stream or a
                sequence served back to back.
            mode: hierarchy processing mode.
            uncached_bandwidth: when positive, the hierarchy's DRAM port
                is capped at this rate for the phase — the zero-copy
                uncached path on boards that disable the CPU caches.
            uncached_latency_s: per-transaction latency of the uncached
                path, charged to non-prefetchable patterns (see
                :meth:`_uncached_latency_penalty`).
        """
        streams: List[AccessStream] = (
            [stream] if isinstance(stream, AccessStream) else list(stream)
        )
        if not streams:
            raise ConfigurationError("a CPU routine needs at least one stream")
        saved_port = self.hierarchy.memory_port_bandwidth
        results = []
        serial_memory_s = 0.0
        hidable_memory_s = 0.0
        try:
            for s in streams:
                uncached = uncached_bandwidth > 0 and _stream_is_pinned(s)
                if uncached:
                    # Pinned pages are uncacheable on this board's
                    # zero-copy path; private buffers stay cached.
                    self.hierarchy.set_all_enabled(False)
                    self.hierarchy.memory_port_bandwidth = uncached_bandwidth
                try:
                    memory = self.hierarchy.process(s, mode=mode)
                finally:
                    if uncached:
                        self.hierarchy.set_all_enabled(True)
                        self.hierarchy.memory_port_bandwidth = saved_port
                results.append(memory)
                piece = memory.streaming_time_s + memory.exposed_latency_s
                if uncached:
                    piece += self._uncached_latency_penalty(
                        s.pattern, s.total_transactions, uncached_latency_s
                    )
                if s.pattern is PatternKind.SINGLE_ADDRESS:
                    # A read-modify-write chain on one address is fully
                    # serial: nothing hides behind compute.
                    serial_memory_s += piece
                else:
                    hidable_memory_s += piece
        finally:
            self.hierarchy.memory_port_bandwidth = saved_port
        merged = merge_memory_results(results)
        compute_s = self.compute_time(compute_cycles)
        memory_s = serial_memory_s + hidable_memory_s
        total = (
            combine_compute_memory(
                compute_s, hidable_memory_s, self.config.memory_hide_factor
            )
            + serial_memory_s
        )
        return PhaseResult(
            name=name,
            processor="cpu",
            compute_time_s=compute_s,
            memory_time_s=memory_s,
            time_s=total,
            memory=merged,
        )

    def run_batch(
        self,
        compute_cycles: np.ndarray,
        batch: SummaryBatch,
        uncached_bandwidth: float = 0.0,
        uncached_latency_s: float = 0.0,
        pinned: bool = True,
    ) -> BatchPhaseResult:
        """Execute N single-stream routines at once on the analytic path.

        Mirrors :meth:`run` for the sweep case (one stream per routine):
        the uncached zero-copy treatment, the pattern-dependent latency
        penalty and the serial handling of dependent single-address
        chains are all applied per row.
        """
        compute_cycles = np.asarray(compute_cycles, dtype=np.float64)
        uncached = uncached_bandwidth > 0 and pinned
        saved_port = self.hierarchy.memory_port_bandwidth
        if uncached:
            self.hierarchy.set_all_enabled(False)
            self.hierarchy.memory_port_bandwidth = uncached_bandwidth
        try:
            memory = self.hierarchy.process_summaries(batch)
        finally:
            if uncached:
                self.hierarchy.set_all_enabled(True)
            self.hierarchy.memory_port_bandwidth = saved_port
        piece = memory.streaming_time_s + memory.exposed_latency_s
        if uncached:
            piece = piece + self._uncached_latency_penalty(
                batch.pattern, batch.total.astype(np.float64),
                uncached_latency_s,
            )
        compute_s = compute_cycles / (self.config.frequency_hz * self.config.ipc)
        if batch.pattern is PatternKind.SINGLE_ADDRESS:
            serial = piece
            hidable = np.zeros_like(piece)
        else:
            serial = np.zeros_like(piece)
            hidable = piece
        total = (
            combine_compute_memory_array(
                compute_s, hidable, self.config.memory_hide_factor
            )
            + serial
        )
        return BatchPhaseResult(
            processor="cpu",
            compute_time_s=compute_s,
            memory_time_s=piece,
            time_s=total,
            memory=memory,
        )

    def _uncached_latency_penalty(
        self,
        pattern: PatternKind,
        transactions,
        uncached_latency_s: float,
    ):
        """Latency cost of the uncached (caches-disabled) path.

        Sequential patterns (LINEAR / FRACTION) stream through write
        combining and are bandwidth-bound — the port cap covers them.
        Non-sequential patterns cannot be prefetched on an uncached
        path: each transaction pays the round trip, overlapped only by
        the core's MLP.  A same-address read-modify-write chain is a
        true dependency chain and overlaps nothing.

        ``transactions`` is one stream's count or a batch's array of
        counts; a penalty-free pattern returns a scalar ``0.0``.
        """
        if uncached_latency_s <= 0:
            return 0.0
        if pattern is PatternKind.SINGLE_ADDRESS:
            return transactions * uncached_latency_s
        if pattern in (
            PatternKind.STRIDED,
            PatternKind.SPARSE,
            PatternKind.TILED,
            PatternKind.CUSTOM,
        ):
            return transactions * uncached_latency_s / self.config.mlp
        return 0.0
