"""Shared machinery for the communication-model executors.

The executors differ in memory layout, coherence actions, and task
scheduling, but share buffer placement, phase execution, and energy
accounting.  :class:`CommModel` centralizes those.
"""

from __future__ import annotations

import abc
import importlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import obs
from repro.errors import ConfigurationError, WorkloadError
from repro.comm.report import ExecutionReport, IterationBreakdown
from repro.kernels.workload import Workload
from repro.soc.address import Buffer, RegionKind
from repro.soc.coherence import MODEL_SC, MODEL_UM, MODEL_ZC
from repro.soc.energy import EnergyBreakdown
from repro.soc.phase import PhaseResult
from repro.soc.soc import SoC

#: Padding multiplier when sizing regions (alignment slack).
_REGION_SLACK = 2


@dataclass
class PlacedWorkload:
    """A workload with physical buffers assigned per processor view."""

    workload: Workload
    cpu_buffers: Dict[str, Buffer]
    gpu_buffers: Dict[str, Buffer]


class CommModel(abc.ABC):
    """One CPU-iGPU communication model."""

    #: Short identifier: "SC", "UM" or "ZC".
    name: str = ""

    # ------------------------------------------------------------------
    # buffer placement
    # ------------------------------------------------------------------

    def place(self, workload: Workload, soc: SoC) -> PlacedWorkload:
        """Lay the workload's buffers out for this model."""
        soc.reset_memory_layout()
        return self._place(workload, soc)

    @abc.abstractmethod
    def _place(self, workload: Workload, soc: SoC) -> PlacedWorkload:
        """Model-specific layout."""

    @staticmethod
    def _allocate_all(region, workload: Workload) -> Dict[str, Buffer]:
        """Allocate every workload buffer in ``region``."""
        return {
            spec.name: region.allocate(
                spec.name, spec.size_bytes, element_size=spec.element_size
            )
            for spec in workload.buffers
        }

    @staticmethod
    def _region_size(workload: Workload) -> int:
        """Region size comfortably holding all workload buffers."""
        return max(4096, workload.total_footprint_bytes * _REGION_SLACK)

    # ------------------------------------------------------------------
    # phase execution helpers
    # ------------------------------------------------------------------

    def _run_phases(
        self,
        placed: PlacedWorkload,
        soc: SoC,
        mode: str = "auto",
    ) -> Tuple[Optional[PhaseResult], Optional[PhaseResult]]:
        """Run the CPU task and GPU kernel once, standalone."""
        workload = placed.workload
        cpu_phase = None
        gpu_phase = None
        if workload.cpu_task is not None:
            stream = workload.cpu_task.build_streams(
                placed.cpu_buffers, soc.board.cpu.l1.line_size
            )
            with obs.span("comm.phase.cpu", model=self.name,
                          task=workload.cpu_task.name):
                cpu_phase = soc.run_cpu(
                    workload.cpu_task.name,
                    workload.cpu_task.compute_cycles(),
                    stream,
                    mode=mode,
                )
        if workload.gpu_kernel is not None:
            stream = workload.gpu_kernel.build_streams(
                placed.gpu_buffers, soc.board.gpu.l1.line_size
            )
            with obs.span("comm.phase.gpu", model=self.name,
                          kernel=workload.gpu_kernel.name):
                gpu_phase = soc.run_gpu(
                    workload.gpu_kernel.name,
                    workload.gpu_kernel.total_flops(),
                    stream,
                    mode=mode,
                )
        return cpu_phase, gpu_phase

    # ------------------------------------------------------------------
    # energy accounting
    # ------------------------------------------------------------------

    @staticmethod
    def _energy(
        soc: SoC,
        report_duration_s: float,
        cpu_busy_s: float,
        gpu_busy_s: float,
        cache_bytes: float,
        dram_bytes: float,
        copied_bytes: float,
    ) -> EnergyBreakdown:
        """Compute the energy of one execution window."""
        return soc.energy.execution_energy(
            duration_s=report_duration_s,
            cpu_busy_s=cpu_busy_s,
            gpu_busy_s=gpu_busy_s,
            cache_bytes=cache_bytes,
            dram_bytes=dram_bytes,
            copied_bytes=copied_bytes,
        )

    @staticmethod
    def _phase_cache_bytes(*phases: Optional[PhaseResult]) -> float:
        """Bytes served by caches across phases."""
        return sum(p.cache_served_bytes for p in phases if p is not None)

    @staticmethod
    def _phase_dram_bytes(*phases: Optional[PhaseResult]) -> float:
        """DRAM bytes across phases."""
        return sum(p.memory.dram_bytes for p in phases if p is not None)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def execute(self, workload: Workload, soc: SoC,
                mode: str = "auto") -> ExecutionReport:
        """Run ``workload`` on ``soc`` under this model."""

    def _finalize(
        self,
        workload: Workload,
        soc: SoC,
        first: IterationBreakdown,
        steady: IterationBreakdown,
        cpu_phase: Optional[PhaseResult],
        gpu_phase: Optional[PhaseResult],
        copied_per_iteration: int,
    ) -> ExecutionReport:
        """Assemble the report and attach the energy estimate."""
        report = ExecutionReport(
            workload_name=workload.name,
            model=self.name,
            board_name=soc.board.name,
            iterations=workload.iterations,
            first_iteration=first,
            steady_iteration=steady,
            cpu_phase=cpu_phase,
            gpu_phase=gpu_phase,
            copied_bytes_per_iteration=copied_per_iteration,
        )
        duration = report.total_time_s
        n = workload.iterations
        cpu_busy = (cpu_phase.time_s if cpu_phase else 0.0) * n
        gpu_busy = (gpu_phase.time_s if gpu_phase else 0.0) * n
        cache_bytes = self._phase_cache_bytes(cpu_phase, gpu_phase) * n
        dram_bytes = self._phase_dram_bytes(cpu_phase, gpu_phase) * n
        report.energy = self._energy(
            soc,
            report_duration_s=duration,
            cpu_busy_s=cpu_busy,
            gpu_busy_s=gpu_busy,
            cache_bytes=cache_bytes,
            dram_bytes=dram_bytes,
            copied_bytes=float(copied_per_iteration) * n,
        )
        obs.counter_inc(f"comm.execute.{self.name}")
        obs.observe("comm.kernel_time_s", report.kernel_time_s)
        obs.observe("comm.copy_time_s", report.copy_time_s)
        return report


_MODEL_REGISTRY: Dict[str, type] = {}

#: The module registering each built-in executor, imported on the
#: model's first :func:`get_model` (not with this module or its package).
_BUILTIN_MODELS = {
    MODEL_SC: "repro.comm.standard_copy",
    MODEL_UM: "repro.comm.unified_memory",
    MODEL_ZC: "repro.comm.zero_copy",
}


def register_model(cls: type) -> type:
    """Class decorator adding an executor to the registry."""
    if not issubclass(cls, CommModel):
        raise ConfigurationError(f"{cls!r} is not a CommModel")
    if not cls.name:
        raise ConfigurationError(f"{cls.__name__} must define a name")
    _MODEL_REGISTRY[cls.name] = cls
    return cls


def get_model(name: str) -> CommModel:
    """Instantiate an executor by model name ("SC", "UM", "ZC")."""
    key = name.upper()
    cls = _MODEL_REGISTRY.get(key)
    if cls is None and key in _BUILTIN_MODELS:
        importlib.import_module(_BUILTIN_MODELS[key])
        cls = _MODEL_REGISTRY[key]
    if cls is None:
        raise ConfigurationError(
            f"unknown communication model {name!r}; "
            f"available: {sorted(set(_MODEL_REGISTRY) | set(_BUILTIN_MODELS))}"
        )
    return cls()
