"""Micro-benchmark 2: cache-usage threshold sweep (Figs. 3 and 6).

The GPU routine accesses sections of different length of a fixed-size
array (fractions from 1/4000 to 1/2), each element through one
``ld.global`` and one ``st.global`` combined with an ``fma.rn`` on two
locally calculated values.  The kernel's *compute* demand is constant
(every thread computes); only the touched footprint varies.  Comparing
the ZC and SC throughput/time curves locates the thresholds (see
:mod:`repro.model.thresholds`).

A CPU-side variant of the same sweep extracts ``CPU_Cache_Threshold``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

from repro.kernels.ops import OpMix
from repro.kernels.patterns import FractionPattern
from repro.kernels.task import CpuTask, GpuKernel
from repro.kernels.workload import BufferSpec, Direction, Workload
from repro.microbench.base import MicroBenchmark
from repro.model.thresholds import SweepPoint, ThresholdAnalysis, analyze_sweep

if TYPE_CHECKING:
    from repro.soc.soc import SoC

#: The paper's sweep: sections from 1/4000 to 1/2 of the array.
DEFAULT_FRACTIONS = (
    1 / 16000, 1 / 8000, 1 / 4000, 1 / 2000, 1 / 1000, 1 / 500,
    1 / 250, 1 / 100, 1 / 50, 1 / 32, 1 / 20, 1 / 16, 1 / 12,
    1 / 10, 1 / 8, 1 / 6, 1 / 5, 1 / 4, 1 / 3, 1 / 2,
)

#: Sweeps per kernel launch (steady state).
SWEEP_REPEATS = 8


@dataclass(frozen=True)
class SecondBenchResult:
    """MB2 outcome: the sweep and its threshold analysis, per side."""

    board_name: str
    array_bytes: int
    gpu_points: Sequence[SweepPoint]
    cpu_points: Sequence[SweepPoint]
    gpu_analysis: ThresholdAnalysis
    cpu_analysis: ThresholdAnalysis


class SecondMicroBenchmark(MicroBenchmark):
    """Threshold-sweep benchmark."""

    name = "second (cache thresholds)"

    def __init__(
        self,
        fractions: Sequence[float] = DEFAULT_FRACTIONS,
        array_bytes: int = 4 * 1024 * 1024,
        sweep_repeats: int = SWEEP_REPEATS,
    ) -> None:
        if not fractions:
            raise ValueError("the sweep needs at least one fraction")
        self.fractions = tuple(sorted(fractions))
        self.array_bytes = array_bytes
        self.sweep_repeats = sweep_repeats

    # ------------------------------------------------------------------
    # workload builders
    # ------------------------------------------------------------------

    def _gpu_workload(self, fraction: float) -> Workload:
        elements = self.array_bytes // 4
        array = BufferSpec(
            name="array",
            num_elements=elements,
            element_size=4,
            shared=True,
            direction=Direction.BIDIRECTIONAL,
        )
        # Constant compute: one fma per element of the *whole* array per
        # sweep, regardless of the accessed fraction.
        kernel = GpuKernel(
            name=f"fraction-{fraction:g}",
            ops=OpMix.per_element({"fma": 1.0}, elements * self.sweep_repeats),
            pattern=FractionPattern(
                buffer="array", fraction=fraction, repeats=self.sweep_repeats
            ),
        )
        return Workload(
            name=f"mb2-gpu-{fraction:g}",
            buffers=(array,),
            gpu_kernel=kernel,
            iterations=4,
        )

    def _cpu_workload(self, fraction: float) -> Workload:
        elements = self.array_bytes // 4
        array = BufferSpec(
            name="array",
            num_elements=elements,
            element_size=4,
            shared=True,
            direction=Direction.BIDIRECTIONAL,
        )
        task = CpuTask(
            name=f"cpu-fraction-{fraction:g}",
            ops=OpMix.per_element({"fma": 1.0}, elements),
            pattern=FractionPattern(
                buffer="array", fraction=fraction, repeats=self.sweep_repeats
            ),
        )
        # The framework requires a GPU kernel to profile; give the sweep
        # a negligible one so the CPU side dominates.
        kernel = GpuKernel(
            name="idle",
            ops=OpMix({"add": 1.0}),
            pattern=None,
        )
        return Workload(
            name=f"mb2-cpu-{fraction:g}",
            buffers=(array,),
            cpu_task=task,
            gpu_kernel=kernel,
            iterations=4,
        )

    # ------------------------------------------------------------------
    # sweeps
    # ------------------------------------------------------------------

    def _sweep_gpu(self, soc: SoC) -> List[SweepPoint]:
        from repro.comm.base import get_model

        points = []
        for fraction in self.fractions:
            workload = self._gpu_workload(fraction)
            sc = get_model("SC").execute(workload, soc)
            zc = get_model("ZC").execute(workload, soc)
            points.append(
                SweepPoint(
                    fraction=fraction,
                    sc_throughput=_kernel_throughput(sc),
                    zc_throughput=_kernel_throughput(zc),
                    sc_time_s=sc.kernel_time_s,
                    zc_time_s=zc.kernel_time_s,
                )
            )
        return points

    def _sweep_cpu(self, soc: SoC) -> List[SweepPoint]:
        from repro.comm.base import get_model

        points = []
        for fraction in self.fractions:
            workload = self._cpu_workload(fraction)
            sc = get_model("SC").execute(workload, soc)
            zc = get_model("ZC").execute(workload, soc)
            points.append(
                SweepPoint(
                    fraction=fraction,
                    sc_throughput=_cpu_throughput(sc),
                    zc_throughput=_cpu_throughput(zc),
                    sc_time_s=sc.cpu_time_s,
                    zc_time_s=zc.cpu_time_s,
                )
            )
        return points

    def _sweep_vectorized(self, soc: SoC):
        """Both sweeps through the batch engine, or ``(None, None)``
        when it cannot serve this SoC (it raises
        :class:`BatchUnsupported` for a non-analytic backend, an
        unsupported geometry or an active fault injector).

        Imported lazily: :mod:`repro.perf` sits above the soc layer and
        below the microbenchmarks only at call time.
        """
        from repro.perf.batch import BatchUnsupported, vectorized_second_sweep

        try:
            return vectorized_second_sweep(self, soc)
        except BatchUnsupported:
            return None, None

    def run(
        self,
        soc: SoC,
        gpu_peak_throughput: float = 0.0,
        cpu_peak_throughput: float = 0.0,
    ) -> SecondBenchResult:
        """Run both sweeps and analyze the thresholds.

        The peak throughputs normally come from micro-benchmark 1; when
        omitted, the largest SC throughput observed in the sweep is used
        (self-normalization).

        On the analytic backend the whole sweep is evaluated as one
        batch (:mod:`repro.perf.batch`); another backend, an unsupported
        geometry or an active fault injector (whose perturbations live
        in the per-point simulation seams) runs the per-point sweep.
        """
        gpu_points, cpu_points = self._sweep_vectorized(soc)
        if gpu_points is None:
            gpu_points = self._sweep_gpu(soc)
            cpu_points = self._sweep_cpu(soc)
        gpu_peak = gpu_peak_throughput or max(p.sc_throughput for p in gpu_points)
        cpu_peak = cpu_peak_throughput or max(p.sc_throughput for p in cpu_points)
        gpu_analysis = analyze_sweep(
            gpu_points, gpu_peak, detect_zone2=soc.board.io_coherent
        )
        cpu_analysis = analyze_sweep(cpu_points, cpu_peak, detect_zone2=False)
        if not soc.board.zero_copy.cpu_llc_disabled:
            # The CPU caches stay on under ZC (I/O coherence): the CPU
            # sweep never diverges and the threshold saturates at 100 %
            # (Table II reports exactly this for the Xavier).
            cpu_analysis = ThresholdAnalysis(
                threshold_pct=100.0,
                threshold_fraction=self.fractions[-1],
                zone2_pct=None,
                zone2_fraction=None,
                peak_throughput=cpu_peak,
                points=cpu_points,
            )
        return SecondBenchResult(
            board_name=soc.board.name,
            array_bytes=self.array_bytes,
            gpu_points=gpu_points,
            cpu_points=cpu_points,
            gpu_analysis=gpu_analysis,
            cpu_analysis=cpu_analysis,
        )


def _kernel_throughput(report) -> float:
    """Kernel-side demand throughput: requested bytes over kernel time."""
    phase = report.gpu_phase
    if phase is None or report.kernel_time_s <= 0:
        return 0.0
    return phase.memory.bytes_requested / report.kernel_time_s


def _cpu_throughput(report) -> float:
    """CPU-side demand throughput: requested bytes over CPU time."""
    phase = report.cpu_phase
    if phase is None or report.cpu_time_s <= 0:
        return 0.0
    return phase.memory.bytes_requested / report.cpu_time_s
