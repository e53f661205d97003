"""Micro-benchmark 3: overlap / communication ceiling (Fig. 7).

A balanced CPU+iGPU computation whose performance is fully independent
of the GPU cache: the kernel performs repetitive memory accesses with
sufficiently sparse single reads and single writes to guarantee the
maximum miss rate.  The CPU task is sized so its runtime is comparable
to the kernel's, and the two are fully overlapped under ZC using the
Fig-4 concurrent access pattern.

The paper uses 2^27 floats (512 MB) — far too large to trace — so the
workload uses *virtual* streams served by the analytic cache path.

From the SC/UM/ZC runtimes the device-level ``SC/ZC_Max_speedup``
(eqn 3's cap) is extrapolated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.comm.base import get_model
from repro.kernels.ops import OpMix
from repro.kernels.patterns import VirtualLinearPattern, VirtualSparsePattern
from repro.kernels.task import CpuTask, GpuKernel
from repro.kernels.workload import BufferSpec, Direction, Workload
from repro.microbench.base import MicroBenchmark
from repro.soc.soc import ALL_MODELS, SoC

#: The paper's data set: 2^27 single-precision floats (512 MB).
DEFAULT_ELEMENTS = 2 ** 27

#: Default CPU-load sweep for :meth:`ThirdMicroBenchmark.balance_sweep`.
DEFAULT_BALANCES = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0)


@dataclass(frozen=True)
class ThirdBenchResult:
    """MB3 outcome on one board."""

    board_name: str
    data_bytes: int
    total_times: Dict[str, float]
    kernel_times: Dict[str, float]
    cpu_times: Dict[str, float]
    copy_times: Dict[str, float]

    @property
    def sc_zc_max_speedup(self) -> float:
        """``SC/ZC_Max_speedup``: how much faster ZC with full overlap
        runs than SC on this device (eqn 3's cap)."""
        zc = self.total_times["ZC"]
        return self.total_times["SC"] / zc if zc > 0 else 1.0

    @property
    def um_zc_max_speedup(self) -> float:
        """ZC speedup over UM (the paper reports up to 164 %)."""
        zc = self.total_times["ZC"]
        return self.total_times["UM"] / zc if zc > 0 else 1.0

    def zc_faster_than(self, model: str) -> float:
        """"X % faster" figure for ZC versus ``model``."""
        zc = self.total_times["ZC"]
        if zc <= 0:
            return 0.0
        return (self.total_times[model.upper()] / zc - 1.0) * 100.0


@dataclass(frozen=True)
class BalanceSweepResult:
    """MB3 across a sweep of CPU balance factors on one board."""

    board_name: str
    balances: Tuple[float, ...]
    results: Tuple[ThirdBenchResult, ...]

    @property
    def sc_zc_speedups(self) -> Tuple[float, ...]:
        """``SC/ZC_Max_speedup`` at each balance point."""
        return tuple(r.sc_zc_max_speedup for r in self.results)

    @property
    def best_balance(self) -> float:
        """The balance with the largest SC/ZC speedup (peak overlap)."""
        speedups = self.sc_zc_speedups
        return self.balances[speedups.index(max(speedups))]


class ThirdMicroBenchmark(MicroBenchmark):
    """Overlap-ceiling benchmark."""

    name = "third (overlap / max speedup)"

    def __init__(self, num_elements: int = DEFAULT_ELEMENTS,
                 cpu_balance: float = 1.0) -> None:
        if num_elements < 1024:
            raise ValueError("the data set must hold at least 1024 elements")
        if cpu_balance <= 0:
            raise ValueError("cpu_balance must be positive")
        self.num_elements = num_elements
        self.cpu_balance = cpu_balance

    def build_workload(self, soc: SoC) -> Workload:
        """Balanced cache-independent workload for ``soc``'s board."""
        data = BufferSpec(
            name="data",
            num_elements=self.num_elements,
            element_size=4,
            shared=True,
            direction=Direction.BIDIRECTIONAL,
        )
        # GPU kernel: one read and one write per element, streaming a
        # footprint far beyond any cache — the maximum miss rate of the
        # paper's "sufficiently sparse" kernel, with warp-coalesced
        # transactions (threads are consecutive; blocks are scattered).
        kernel = GpuKernel(
            name="max-miss-stream",
            ops=OpMix.per_element({"fma": 1.0}, self.num_elements),
            pattern=VirtualLinearPattern(buffer="data", read_write_pairs=True),
        )
        # CPU task: a linear pass over the data (producer side) with a
        # light per-element compute load so its runtime balances the
        # (memory-bound) kernel's, as the paper requires.
        cpu_elements = int(self.num_elements * self.cpu_balance)
        cpu_task = CpuTask(
            name="balanced-producer",
            ops=OpMix.per_element({"mul": 0.2, "add": 0.2}, cpu_elements),
            pattern=VirtualLinearPattern(buffer="data", read_write_pairs=True),
        )
        return Workload(
            name="mb3-overlap",
            buffers=(data,),
            cpu_task=cpu_task,
            gpu_kernel=kernel,
            iterations=2,
            overlappable=True,
        )

    def run(self, soc: SoC) -> ThirdBenchResult:
        """Execute under all three models."""
        workload = self.build_workload(soc)
        totals: Dict[str, float] = {}
        kernels: Dict[str, float] = {}
        cpus: Dict[str, float] = {}
        copies: Dict[str, float] = {}
        for model in ALL_MODELS:
            report = get_model(model).execute(workload, soc)
            totals[model] = report.time_per_iteration_s
            kernels[model] = report.kernel_time_s
            cpus[model] = report.cpu_time_s
            copies[model] = report.copy_time_s
        data = workload.buffer("data")
        return ThirdBenchResult(
            board_name=soc.board.name,
            data_bytes=data.size_bytes,
            total_times=totals,
            kernel_times=kernels,
            cpu_times=cpus,
            copy_times=copies,
        )

    # ------------------------------------------------------------------
    # balance sweep
    # ------------------------------------------------------------------

    def balance_sweep(
        self, soc: SoC, balances: Sequence[float] = DEFAULT_BALANCES
    ) -> BalanceSweepResult:
        """Run MB3 once per CPU balance factor (sorted, deduplicated)."""
        if not balances:
            raise ValueError("the balance sweep needs at least one point")
        if any(b <= 0 for b in balances):
            raise ValueError("balance factors must be positive")
        ordered = tuple(sorted(set(balances)))
        return BalanceSweepResult(
            board_name=soc.board.name,
            balances=ordered,
            results=tuple(
                type(self)(self.num_elements, balance).run(soc)
                for balance in ordered
            ),
        )
