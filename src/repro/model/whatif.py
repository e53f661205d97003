"""What-if sensitivity analysis (an extension beyond the paper).

The paper's conclusion motivates using the framework at design time:
"the characteristics of both application and target device strongly
affect the choice of the best communication model".  This module turns
that into a tool: sweep a device characteristic — here the zero-copy
path bandwidth, the parameter that separates the TX2 from the Xavier —
and report where the winning communication model flips for a given
application.

Typical question answered: *how much faster would the coherence fabric
need to be before this cache-dependent app should adopt zero-copy?*
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.comm.base import get_model
from repro.errors import ModelError
from repro.kernels.workload import Workload
from repro.soc.board import BoardConfig
from repro.soc.soc import SoC

DEFAULT_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


@dataclass(frozen=True)
class SweepPoint:
    """Outcome at one bandwidth scaling factor."""

    factor: float
    gpu_zc_bandwidth: float
    sc_time_s: float
    zc_time_s: float

    @property
    def zc_vs_sc_pct(self) -> float:
        """Positive when ZC wins."""
        return (self.sc_time_s / self.zc_time_s - 1.0) * 100.0

    @property
    def winner(self) -> str:
        """"ZC" or "SC" at this point."""
        return "ZC" if self.zc_time_s < self.sc_time_s else "SC"


@dataclass(frozen=True)
class SweepResult:
    """A full sensitivity sweep."""

    board_name: str
    workload_name: str
    points: List[SweepPoint]

    @property
    def crossover_factor(self) -> Optional[float]:
        """The smallest swept factor at which ZC starts winning, or
        ``None`` when ZC never wins in the swept range."""
        for point in self.points:
            if point.winner == "ZC":
                return point.factor
        return None

    @property
    def zc_always_wins(self) -> bool:
        """True when ZC wins at every swept point."""
        return all(p.winner == "ZC" for p in self.points)


def scale_zc_path(board: BoardConfig, factor: float) -> BoardConfig:
    """A board variant whose zero-copy paths are ``factor``× faster.

    Both the GPU and CPU uncached bandwidths scale (they share the
    coherence fabric); the uncached latency scales inversely.
    """
    if factor <= 0:
        raise ModelError(f"scaling factor must be positive, got {factor}")
    zero_copy = replace(
        board.zero_copy,
        gpu_zc_bandwidth=board.zero_copy.gpu_zc_bandwidth * factor,
        cpu_zc_bandwidth=board.zero_copy.cpu_zc_bandwidth * factor,
        cpu_uncached_latency_s=board.zero_copy.cpu_uncached_latency_s / factor,
    )
    return replace(
        board,
        name=f"{board.name}-zc{factor:g}x",
        zero_copy=zero_copy,
    )


def zc_bandwidth_sweep(
    workload: Workload,
    board: BoardConfig,
    factors: Sequence[float] = DEFAULT_FACTORS,
) -> SweepResult:
    """Measure SC vs ZC across zero-copy path scalings.

    The SC baseline is measured once on the unmodified board (SC does
    not use the ZC path); ZC is re-measured per factor by running the
    executor on :func:`scale_zc_path`'s board variant.
    """
    if not factors:
        raise ModelError("the sweep needs at least one factor")
    ordered = sorted(set(factors))
    sc_time = get_model("SC").execute(workload, SoC(board)).time_per_iteration_s
    points = []
    for factor in ordered:
        variant = scale_zc_path(board, factor)
        zc_time = get_model("ZC").execute(
            workload, SoC(variant)
        ).time_per_iteration_s
        points.append(
            SweepPoint(
                factor=factor,
                gpu_zc_bandwidth=variant.zero_copy.gpu_zc_bandwidth,
                sc_time_s=sc_time,
                zc_time_s=zc_time,
            )
        )
    return SweepResult(
        board_name=board.name,
        workload_name=workload.name,
        points=points,
    )
