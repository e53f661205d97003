"""Design-space sweeper: characterize a :class:`BoardSpace` in bulk.

Drives every grid board of the space through the suite's vectorized
batch path (:meth:`MicrobenchmarkSuite.characterize_many`, which fans
out over processes and lands results in the configured
characterization store), then organizes the results into per-coherence
*panels* — one :class:`DeviceCharacterization` per grid point, in the
space's row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro import obs
from repro.errors import ExploreError
from repro.explore.space import BoardSpace
from repro.microbench.suite import MicrobenchmarkSuite
from repro.model.device import DeviceCharacterization
from repro.soc.board import BoardConfig


@dataclass
class PanelSweep:
    """One coherence mode's swept grid."""

    coherence: str
    boards: List[BoardConfig]
    devices: List[DeviceCharacterization]


@dataclass
class SweepResult:
    """All panels of one sweep, plus the space that produced them."""

    space: BoardSpace
    panels: List[PanelSweep]

    @property
    def num_boards(self) -> int:
        return sum(len(panel.boards) for panel in self.panels)


def sweep_space(
    space: BoardSpace,
    suite: Optional[MicrobenchmarkSuite] = None,
    parallel: bool = True,
    max_workers: Optional[int] = None,
    force: bool = False,
) -> SweepResult:
    """Characterize every grid board of ``space``.

    All panels' boards go through one :meth:`characterize_many` call so
    the process fan-out amortizes across coherence modes; boards the
    suite's store already holds are answered from cache.
    """
    suite = suite if suite is not None else MicrobenchmarkSuite()
    boards = space.all_grid_boards()
    if not boards:
        raise ExploreError("the space has no grid boards to sweep")
    with obs.span("explore.sweep", space=space.describe(),
                  boards=len(boards)) as span:
        devices = suite.characterize_many(
            boards, parallel=parallel, max_workers=max_workers, force=force)
        obs.counter_inc("explore.sweep.boards", len(boards))
        panels: List[PanelSweep] = []
        per_panel = space.grid_size
        for i, mode in enumerate(space.coherence):
            lo, hi = i * per_panel, (i + 1) * per_panel
            panels.append(PanelSweep(
                coherence=mode,
                boards=boards[lo:hi],
                devices=devices[lo:hi],
            ))
        span.set(panels=len(panels))
    return SweepResult(space=space, panels=panels)
