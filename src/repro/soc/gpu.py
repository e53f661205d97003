"""Integrated GPU timing model.

The iGPU executes *kernels*: a compute demand spread over many threads
plus a memory access stream.  Two GPU-specific behaviours matter for
the paper's measurements:

- **Coalescing**: accesses of a warp that fall in the same cache line
  merge into one transaction.  The paper's linear-access kernels
  coalesce perfectly; MB3's sparse kernel is built not to coalesce.
- **Latency hiding**: thousands of resident threads hide memory time
  behind compute, so a kernel phase costs ``max(compute, memory)``.

Under zero-copy the GPU LLC (and L1 for shared data) is disabled and
every transaction streams over the uncached / I/O-coherent path, whose
bandwidth is the board's Table-I "Zero Copy" figure.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.soc.address import RegionKind
from repro.soc.analytic import SummaryBatch
from repro.soc.config import GPUConfig
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
    """Whether zero-copy treats the stream's pages as uncacheable
    (untagged streams default to pinned — the worst case)."""
    return stream.region_kind is None or stream.region_kind is RegionKind.PINNED


#: Patterns whose consecutive accesses coalesce perfectly.
_COALESCING_PATTERNS = (
    PatternKind.LINEAR,
    PatternKind.FRACTION,
    PatternKind.TILED,
)


def coalesce_stream(stream: AccessStream, line_size: int, warp_size: int) -> AccessStream:
    """Merge same-warp same-line accesses into line transactions.

    For materialized streams this is exact: consecutive groups of
    ``warp_size`` accesses are scanned and one transaction per distinct
    (line, direction) pair survives.  For virtual streams the perfectly
    coalescing patterns reduce analytically; non-coalescing patterns
    pass through unchanged.
    """
    if stream.transaction_size >= line_size:
        return stream
    if stream.is_virtual:
        if stream.pattern not in _COALESCING_PATTERNS:
            return stream
        footprint = stream.footprint_bytes or 0
        lines = max(1, -(-footprint // line_size))
        directions = 2 if 0.0 < stream.write_fraction < 1.0 else 1
        per_pass = lines * directions
        coalesced = AccessStream.virtual_stream(
            pattern=stream.pattern,
            per_pass=per_pass,
            footprint_bytes=footprint,
            transaction_size=line_size,
            repeats=stream.repeats,
            write_fraction=stream.write_fraction if directions == 2 else (
                1.0 if stream.write_fraction > 0 else 0.0
            ),
        )
        coalesced.region_kind = stream.region_kind
        return coalesced
    n = len(stream.addresses)
    if n == 0:
        return stream
    shift = line_size.bit_length() - 1
    lines = stream.addresses >> shift
    warp_ids = np.arange(n, dtype=np.int64) // warp_size
    keys = (warp_ids << 40) | (lines << 1) | stream.is_write.astype(np.int64)
    _, first_index = np.unique(keys, return_index=True)
    keep = np.sort(first_index)
    return AccessStream(
        addresses=(lines[keep] << shift),
        is_write=stream.is_write[keep],
        transaction_size=line_size,
        repeats=stream.repeats,
        pattern=stream.pattern,
        footprint_bytes=-(-(stream.footprint_bytes or 0) // line_size) * line_size,
        region_kind=stream.region_kind,
    )


class GPUModel:
    """An iGPU bound to the shared DRAM through its cache hierarchy."""

    def __init__(
        self,
        config: GPUConfig,
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

    @property
    def peak_flops(self) -> float:
        """Peak single-precision FLOP/s across all SMs."""
        return (
            self.config.frequency_hz
            * self.config.num_sms
            * self.config.flops_per_cycle_per_sm
        )

    def compute_time(self, total_flops: float) -> float:
        """Seconds of pure computation for ``total_flops`` operations."""
        if total_flops < 0:
            raise ConfigurationError("flops cannot be negative")
        return total_flops / self.peak_flops

    def run(
        self,
        name: str,
        total_flops: float,
        stream: Union[AccessStream, Sequence[AccessStream]],
        mode: str = "auto",
        uncached_bandwidth: float = 0.0,
        extra_latency_s: float = 0.0,
        coalesce: bool = True,
    ) -> PhaseResult:
        """Execute one GPU kernel standalone.

        Args:
            name: kernel label.
            total_flops: computation demand.
            stream: the kernel's memory accesses (pre-coalescing) — one
                stream or a sequence served back to back.
            mode: hierarchy processing mode.
            uncached_bandwidth: when positive, the DRAM port is capped
                at this rate — the zero-copy uncached / I/O-coherent
                path (Table I "Zero Copy" column).
            extra_latency_s: additional fixed latency (e.g. the snoop
                cost of hardware I/O coherence).
            coalesce: apply warp coalescing before the hierarchy.
        """
        streams: List[AccessStream] = (
            [stream] if isinstance(stream, AccessStream) else list(stream)
        )
        if not streams:
            raise ConfigurationError("a GPU kernel needs at least one stream")
        line = self.config.l1.line_size
        if coalesce:
            streams = [
                coalesce_stream(s, line, self.config.warp_size) for s in streams
            ]
        saved_port = self.hierarchy.memory_port_bandwidth
        results = []
        snoop_penalty_s = 0.0
        try:
            for s in streams:
                uncached = uncached_bandwidth > 0 and _stream_is_pinned(s)
                if uncached:
                    # Pinned pages bypass the GPU caches under zero-copy
                    # and stream over the uncached / I/O-coherent path;
                    # private buffers stay cached (as does anything the
                    # kernel stages on-chip).
                    self.hierarchy.set_all_enabled(False)
                    self.hierarchy.memory_port_bandwidth = uncached_bandwidth
                try:
                    results.append(self.hierarchy.process(s, mode=mode))
                finally:
                    if uncached:
                        self.hierarchy.set_all_enabled(True)
                        self.hierarchy.memory_port_bandwidth = saved_port
                if uncached:
                    snoop_penalty_s += extra_latency_s
        finally:
            self.hierarchy.memory_port_bandwidth = saved_port
        memory = merge_memory_results(results)
        compute_s = self.compute_time(total_flops)
        memory_s = memory.streaming_time_s + memory.exposed_latency_s + snoop_penalty_s
        busy = combine_compute_memory(compute_s, memory_s, hide_factor=1.0)
        total = busy + self.config.kernel_launch_overhead_s
        return PhaseResult(
            name=name,
            processor="gpu",
            compute_time_s=compute_s,
            memory_time_s=memory_s,
            time_s=total,
            memory=memory,
        )

    def run_batch(
        self,
        total_flops: np.ndarray,
        batch: SummaryBatch,
        uncached_bandwidth: float = 0.0,
        extra_latency_s: float = 0.0,
        pinned: bool = True,
    ) -> BatchPhaseResult:
        """Execute N kernels at once on the analytic fast path.

        Each row of ``batch`` is one (already coalesced) kernel stream;
        ``total_flops`` is the matching per-kernel compute demand.  The
        zero-copy treatment mirrors :meth:`run`: when
        ``uncached_bandwidth`` is positive and the streams are
        ``pinned``, the caches are bypassed, the DRAM port is capped and
        each kernel pays the snoop latency once.
        """
        total_flops = np.asarray(total_flops, dtype=np.float64)
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
        snoop_penalty_s = extra_latency_s if uncached else 0.0
        compute_s = total_flops / self.peak_flops
        memory_s = (
            memory.streaming_time_s + memory.exposed_latency_s + snoop_penalty_s
        )
        busy = combine_compute_memory_array(compute_s, memory_s, hide_factor=1.0)
        return BatchPhaseResult(
            processor="gpu",
            compute_time_s=compute_s,
            memory_time_s=memory_s,
            time_s=busy + self.config.kernel_launch_overhead_s,
            memory=memory,
        )
