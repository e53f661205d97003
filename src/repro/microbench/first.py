"""Micro-benchmark 1: peak GPU LL-L1 cache throughput (Table I, Fig 5).

The benchmark elaborates a matrix computed by both processors:

- the **CPU** performs a series of floating-point operations (square
  roots, divisions, multiplications) whose data is read and written
  from a single memory address — pure compute pressure, maximal CPU
  cache friendliness;
- the **GPU** performs a 2D reduction multiple times through linear
  memory accesses (iterative ``ld.global``, ``add``, ``st.global``) —
  the matrix is sized to live in the LL-L1 caches, so the measured
  throughput is the cache path's peak.

Run under ZC, SC, and UM, the kernel-side throughput gives the Table-I
columns and the per-task times give Fig. 5's bars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from repro.kernels.ops import OpMix
from repro.kernels.patterns import SingleAddressPattern, VirtualLinearPattern
from repro.kernels.task import CpuTask, GpuKernel
from repro.kernels.workload import BufferSpec, Direction, Workload
from repro.microbench.base import MicroBenchmark
from repro.soc.coherence import ALL_MODELS

if TYPE_CHECKING:
    from repro.comm.report import ExecutionReport
    from repro.soc.soc import SoC

#: How many times the GPU sweeps the matrix per kernel (steady state).
GPU_SWEEP_REPEATS = 16

#: Floating-point operations of one CPU routine step.
CPU_OPS_PER_STEP = {"sqrt": 1.0, "div": 1.0, "mul": 2.0}

#: Compute steps the CPU routine iterates.
CPU_COMPUTE_STEPS = 4096

#: Memory accesses the CPU routine performs (single address, a
#: read-modify-write every few steps).
CPU_ACCESSES = 256


@dataclass(frozen=True)
class ModelMeasurement:
    """MB1 measurements under one communication model."""

    model: str
    cpu_time_s: float
    kernel_time_s: float
    gpu_cache_throughput: float
    cpu_cache_throughput: float

    @property
    def total_time_s(self) -> float:
        """Serialized CPU + kernel time (Fig 5's stacked view)."""
        return self.cpu_time_s + self.kernel_time_s


@dataclass(frozen=True)
class FirstBenchResult:
    """Complete MB1 outcome on one board."""

    board_name: str
    matrix_bytes: int
    measurements: Dict[str, ModelMeasurement]

    def measurement(self, model: str) -> ModelMeasurement:
        """Measurements for one model ("SC", "UM", "ZC")."""
        return self.measurements[model.upper()]

    @property
    def gpu_max_throughput(self) -> Dict[str, float]:
        """Table I row: model → peak GPU LL-L1 throughput (bytes/s)."""
        return {m: meas.gpu_cache_throughput for m, meas in self.measurements.items()}

    @property
    def cpu_max_throughput(self) -> Dict[str, float]:
        """Model → peak CPU cache-path throughput (bytes/s)."""
        return {m: meas.cpu_cache_throughput for m, meas in self.measurements.items()}

    @property
    def zc_sc_kernel_ratio(self) -> float:
        """How much slower the ZC kernel is than the SC kernel — the
        paper's ``ZC/SC_Max_speedup`` upper bound (70 on TX2, 3.7 on
        Xavier)."""
        sc = self.measurements["SC"].kernel_time_s
        zc = self.measurements["ZC"].kernel_time_s
        return zc / sc if sc > 0 else 0.0


class FirstMicroBenchmark(MicroBenchmark):
    """Peak cache-throughput benchmark."""

    name = "first (peak LL-L1 throughput)"

    def __init__(self, matrix_fraction_of_llc: float = 0.5,
                 gpu_sweep_repeats: int = GPU_SWEEP_REPEATS) -> None:
        if not 0.0 < matrix_fraction_of_llc <= 1.0:
            raise ValueError("matrix fraction must be in (0, 1]")
        if gpu_sweep_repeats < 2:
            raise ValueError("need at least 2 sweeps for a steady state")
        self.matrix_fraction_of_llc = matrix_fraction_of_llc
        self.gpu_sweep_repeats = gpu_sweep_repeats

    def build_workload(self, soc: SoC) -> Workload:
        """The matrix workload sized to the board's GPU LLC."""
        llc_bytes = soc.board.gpu.llc.size_bytes
        matrix_bytes = int(llc_bytes * self.matrix_fraction_of_llc)
        element_size = 4
        elements = max(1024, matrix_bytes // element_size)
        matrix = BufferSpec(
            name="matrix",
            num_elements=elements,
            element_size=element_size,
            shared=True,
            direction=Direction.BIDIRECTIONAL,
        )
        # The CPU routine's accumulator lives in the communicated data
        # structure (shared), so zero-copy pins it.
        scalar = BufferSpec(
            name="scalar",
            num_elements=16,
            element_size=4,
            shared=True,
            direction=Direction.TO_GPU,
        )
        cpu_task = CpuTask(
            name="fp-single-address",
            ops=OpMix.per_element(CPU_OPS_PER_STEP, CPU_COMPUTE_STEPS),
            pattern=SingleAddressPattern(buffer="scalar", count=CPU_ACCESSES),
        )
        gpu_kernel = GpuKernel(
            name="2d-reduction",
            ops=OpMix.per_element({"add": 1.0}, elements * self.gpu_sweep_repeats),
            pattern=VirtualLinearPattern(
                buffer="matrix", read_write_pairs=False, repeats=self.gpu_sweep_repeats
            ),
        )
        return Workload(
            name="mb1-peak-throughput",
            buffers=(matrix, scalar),
            cpu_task=cpu_task,
            gpu_kernel=gpu_kernel,
            iterations=8,
            overlappable=True,
        )

    def build_cpu_probe(self, soc: SoC) -> Workload:
        """A CPU-only LLC-stressing sweep measuring the CPU cache-path
        peak throughput (the CPU analogue of the GPU measurement).

        The probe's working set exceeds L1 but fits the LLC, so the
        measured throughput is the LL-L1 path's — the normalizer for
        ``CPU_Cache_Threshold``.
        """
        probe_bytes = int(soc.board.cpu.llc.size_bytes * self.matrix_fraction_of_llc)
        elements = max(1024, probe_bytes // 4)
        probe = BufferSpec(
            name="probe",
            num_elements=elements,
            element_size=4,
            shared=True,
            direction=Direction.BIDIRECTIONAL,
        )
        task = CpuTask(
            name="llc-sweep",
            ops=OpMix.per_element({"add": 1.0}, elements),
            pattern=VirtualLinearPattern(
                buffer="probe", read_write_pairs=False,
                repeats=self.gpu_sweep_repeats,
            ),
        )
        return Workload(
            name="mb1-cpu-probe",
            buffers=(probe,),
            cpu_task=task,
            iterations=4,
        )

    @staticmethod
    def _cpu_probe_throughput(report: ExecutionReport, soc: SoC) -> float:
        """CPU cache-path throughput from the probe run."""
        phase = report.cpu_phase
        if phase is None or phase.memory_time_s <= 0:
            return soc.board.cpu.llc_bandwidth
        return phase.memory.bytes_requested / phase.memory_time_s

    def run(self, soc: SoC) -> FirstBenchResult:
        """Execute under all three models and collect measurements."""
        from repro.comm.base import get_model

        workload = self.build_workload(soc)
        cpu_probe = self.build_cpu_probe(soc)
        measurements: Dict[str, ModelMeasurement] = {}
        for model in ALL_MODELS:
            report = get_model(model).execute(workload, soc)
            probe_report = get_model(model).execute(cpu_probe, soc)
            gpu_phase = report.gpu_phase
            throughput = gpu_phase.effective_throughput if gpu_phase else 0.0
            measurements[model] = ModelMeasurement(
                model=model,
                cpu_time_s=report.cpu_time_s,
                kernel_time_s=report.kernel_time_s,
                gpu_cache_throughput=throughput,
                cpu_cache_throughput=self._cpu_probe_throughput(probe_report, soc),
            )
        matrix = workload.buffer("matrix")
        return FirstBenchResult(
            board_name=soc.board.name,
            matrix_bytes=matrix.size_bytes,
            measurements=measurements,
        )
