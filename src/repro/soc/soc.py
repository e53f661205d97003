"""SoC assembly: one board instantiated and ready to execute phases.

:class:`SoC` wires a board's CPU, iGPU, DRAM, interconnect, and energy
models together and exposes the primitives the communication-model
executors need:

- run a CPU routine or a GPU kernel standalone (with or without the
  zero-copy cache restrictions),
- copy bytes with the copy engine,
- flush caches (software coherence),
- run overlapped CPU+GPU job sets through the shared fabric.

Cache enable/disable is managed through the :meth:`communication`
context manager so a simulation can never leak a disabled-cache state
into the next experiment.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.sim.backend import get_backend
from repro.sim.contention import run_contended
from repro.soc.address import AddressSpace, RegionKind
from repro.soc.board import BoardConfig
from repro.soc.coherence import ALL_MODELS, MODEL_SC, MODEL_UM, MODEL_ZC
from repro.soc.cpu import CPUModel
from repro.soc.dram import DRAMModel
from repro.soc.energy import EnergyModel
from repro.soc.events import OverlapJob, OverlapResult, run_overlapped, run_serial
from repro.soc.gpu import GPUModel
from repro.soc.phase import PhaseResult
from repro.soc.stream import AccessStream

@dataclass(frozen=True)
class CopyResult:
    """Outcome of one explicit copy-engine transfer."""

    num_bytes: int
    time_s: float

    @property
    def throughput(self) -> float:
        """Achieved copy throughput (bytes/s)."""
        return self.num_bytes / self.time_s if self.time_s > 0 else 0.0


class SoC:
    """A board instantiated for simulation."""

    def __init__(self, board: BoardConfig, backend=None) -> None:
        self.board = board
        #: Timing backend shared by both hierarchies and the overlap
        #: engine (``"analytic"`` default; see :mod:`repro.sim.backend`).
        self.backend = get_backend(backend)
        self.dram = DRAMModel(board.dram)
        self.cpu = CPUModel(board.cpu, self.dram, backend=self.backend)
        self.gpu = GPUModel(board.gpu, self.dram, backend=self.backend)
        self.energy = EnergyModel(board.energy)
        self.address_space = AddressSpace(board.address_space_bytes)
        self._active_model: Optional[str] = None
        self.copied_bytes = 0
        #: Optional invariant-guard hooks (see
        #: :mod:`repro.robustness.guards`); ``None`` means unguarded.
        self.guards = None
        # Software-coherence bookkeeping: under SC/UM a processor that
        # ran a phase holds potentially dirty lines until its hierarchy
        # is flushed.  The guards use these flags to detect dropped
        # flushes independently of the (exact vs analytic) cache mode.
        self._cpu_needs_flush = False
        self._gpu_needs_flush = False

    # ------------------------------------------------------------------
    # memory layout helpers
    # ------------------------------------------------------------------

    def make_region(self, name: str, size: int, kind: RegionKind):
        """Carve a region out of the shared physical space."""
        return self.address_space.add_region(name, size, kind)

    def reset_memory_layout(self) -> None:
        """Drop all regions and buffers (new experiment)."""
        self.address_space = AddressSpace(self.board.address_space_bytes)

    # ------------------------------------------------------------------
    # communication-model cache state
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def communication(self, model: str) -> Iterator["SoC"]:
        """Apply a communication model's execution environment.

        - SC / UM: all caches enabled, accesses cached normally.
        - ZC: accesses to *pinned* pages become uncacheable and stream
          over the board's zero-copy path; private buffers stay cached.
          The per-stream treatment is applied by :meth:`run_cpu` /
          :meth:`run_gpu` based on each stream's region tag.

        On exit all caches are invalidated so experiments are
        independent.
        """
        if model not in ALL_MODELS:
            raise ConfigurationError(
                f"unknown communication model {model!r}; expected one of {ALL_MODELS}"
            )
        if self._active_model is not None:
            raise SimulationError(
                f"communication model {self._active_model!r} already active"
            )
        self._active_model = model
        try:
            if self.guards is not None:
                self.guards.on_model_enter(self, model)
            yield self
            if self.guards is not None:
                self.guards.on_model_exit(self, model)
        finally:
            # The active-model reset must survive a failing invalidate
            # (e.g. under fault injection): leaking it would poison every
            # later experiment with "model already active".
            try:
                self.gpu.hierarchy.invalidate_all()
                self.cpu.hierarchy.invalidate_all()
            finally:
                self._active_model = None
                self._cpu_needs_flush = False
                self._gpu_needs_flush = False

    @property
    def active_model(self) -> Optional[str]:
        """The communication model currently applied, if any."""
        return self._active_model

    # ------------------------------------------------------------------
    # phase execution
    # ------------------------------------------------------------------

    def run_cpu(
        self,
        name: str,
        compute_cycles: float,
        stream: AccessStream,
        mode: str = "auto",
    ) -> PhaseResult:
        """Run a CPU routine under the active communication model."""
        uncached = 0.0
        uncached_latency = 0.0
        if self._active_model == MODEL_ZC and self.board.zero_copy.cpu_llc_disabled:
            uncached = self.board.zero_copy.cpu_zc_bandwidth
            uncached_latency = self.board.zero_copy.cpu_uncached_latency_s
        result = self.cpu.run(name, compute_cycles, stream, mode=mode,
                              uncached_bandwidth=uncached,
                              uncached_latency_s=uncached_latency)
        if self._active_model in (MODEL_SC, MODEL_UM):
            self._cpu_needs_flush = True
        if self.guards is not None:
            self.guards.on_phase(self, result)
        return result

    def run_gpu(
        self,
        name: str,
        total_flops: float,
        stream: AccessStream,
        mode: str = "auto",
    ) -> PhaseResult:
        """Run a GPU kernel under the active communication model."""
        uncached = 0.0
        extra_latency = 0.0
        if self._active_model == MODEL_ZC:
            uncached = self.board.zero_copy.gpu_zc_bandwidth
            if self.board.zero_copy.io_coherent:
                extra_latency = self.board.zero_copy.snoop_latency_s
        result = self.gpu.run(name, total_flops, stream, mode=mode,
                              uncached_bandwidth=uncached,
                              extra_latency_s=extra_latency)
        if self.guards is not None:
            # Checks the SC/UM handoff invariant (CPU caches flushed
            # before the kernel consumed the shared data) and the
            # phase-timing invariants.
            self.guards.on_phase(self, result)
        if self._active_model in (MODEL_SC, MODEL_UM):
            self._gpu_needs_flush = True
        return result

    # ------------------------------------------------------------------
    # copies and coherence actions
    # ------------------------------------------------------------------

    def copy(self, num_bytes: int) -> CopyResult:
        """Move ``num_bytes`` with the copy engine (SC transfers).

        The copy reads and writes DRAM, so the traffic is twice the
        payload; throughput is capped by the copy engine and by DRAM.
        """
        if num_bytes < 0:
            raise ConfigurationError("copy size cannot be negative")
        if num_bytes == 0:
            return CopyResult(num_bytes=0, time_s=0.0)
        rate = min(
            self.board.copy_engine_bandwidth,
            self.dram.config.effective_bandwidth / 2.0,
        )
        time_s = self._copy_time(num_bytes, rate)
        self.dram.record(num_bytes, num_bytes)
        self.copied_bytes += num_bytes
        result = CopyResult(num_bytes=num_bytes, time_s=time_s)
        if self.guards is not None:
            self.guards.on_copy(self, result)
        return result

    def _copy_time(self, num_bytes: int, rate: float) -> float:
        """Copy-engine timing seam.

        Isolated so the fault-injection harness can perturb the engine
        (stalls) *below* the invariant guards, which observe the
        resulting :class:`CopyResult` in :meth:`copy`.
        """
        return self.dram.config.latency_s + num_bytes / rate

    def flush_cpu_caches(self):
        """Software-flush the CPU hierarchy (SC/UM kernel boundary)."""
        result = self.cpu.hierarchy.flush(self.board.flush)
        self._cpu_needs_flush = False
        return result

    def flush_gpu_caches(self):
        """Software-flush the GPU hierarchy (SC/UM kernel boundary)."""
        result = self.gpu.hierarchy.flush(self.board.flush)
        self._gpu_needs_flush = False
        return result

    def migration_time(self, num_bytes: int, faulted_fraction: float = 1.0) -> float:
        """UM page-migration time for ``num_bytes`` of first-touch data."""
        return self.board.page_migration.migration_time(
            num_bytes,
            copy_bandwidth=self.board.copy_engine_bandwidth,
            faulted_fraction=faulted_fraction,
        )

    # ------------------------------------------------------------------
    # overlap execution
    # ------------------------------------------------------------------

    def overlap(self, jobs: List[OverlapJob]) -> OverlapResult:
        """Run jobs concurrently through the shared fabric.

        The analytic backend resolves contention with max-min fair
        water-filling; the event-driven backend time-multiplexes the
        fabric quantum by quantum (:mod:`repro.sim.contention`).
        """
        if not self.backend.is_analytic:
            return run_contended(jobs, self.board.interconnect, self.backend.config)
        return run_overlapped(jobs, self.board.interconnect)

    def serialize(self, jobs: List[OverlapJob]) -> OverlapResult:
        """Run jobs back-to-back (SC/UM implicit synchronization)."""
        return run_serial(jobs, self.board.interconnect)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Reset caches, DRAM counters and copy accounting."""
        self.cpu.hierarchy.reset()
        self.gpu.hierarchy.reset()
        self.dram.reset()
        self.copied_bytes = 0
