"""``BoardSpace``: a parameterized design space of synthetic boards.

Instead of characterizing one physical device at a time, parameterize
a board preset along the axes that dominate the CPU–iGPU communication
trade-off — DRAM bandwidth, CPU/GPU clock domains, zero-copy path
bandwidth, LLC size and the coherence mode — and emit a deterministic
grid of synthetic :class:`~repro.soc.board.BoardConfig` variants
(:func:`~repro.soc.board.derive_board` says which fields each axis
scales) for :func:`~repro.explore.sweep.sweep_space` to characterize.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.soc.board import (
    COHERENCE_CHOICES,
    BoardConfig,
    derive_board,
    get_board,
)

#: Every axis name the explorer understands (the scale factors of
#: :func:`~repro.soc.board.derive_board`), in canonical order.
AXIS_NAMES: Tuple[str, ...] = (
    "dram_bandwidth", "gpu_clock", "cpu_clock", "zc_bandwidth", "llc_size",
)


@dataclass(frozen=True)
class Axis:
    """One swept dimension: an axis name and its grid of scale factors.

    Values are multiplicative against the base preset (1.0 = the base
    itself) and must be positive and strictly increasing.
    """

    name: str
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if self.name not in AXIS_NAMES:
            raise ConfigurationError(
                f"unknown explorer axis {self.name!r}; available: "
                f"{', '.join(AXIS_NAMES)}"
            )
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) < 2:
            raise ConfigurationError(
                f"axis {self.name!r} needs at least 2 grid values, got "
                f"{len(values)}"
            )
        if any(v <= 0 for v in values):
            raise ConfigurationError(
                f"axis {self.name!r} values must be positive scale "
                f"factors, got {values}"
            )
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigurationError(
                f"axis {self.name!r} values must be strictly increasing, "
                f"got {values}"
            )

    @property
    def lo(self) -> float:
        return self.values[0]

    @property
    def hi(self) -> float:
        return self.values[-1]


def default_axes() -> Tuple[Axis, ...]:
    """The stock sweep: DRAM bandwidth, GPU clock and ZC path spread
    around the base preset (27 grid boards per coherence mode)."""
    return (
        Axis("dram_bandwidth", (0.8, 1.0, 1.25)),
        Axis("gpu_clock", (0.8, 1.0, 1.25)),
        Axis("zc_bandwidth", (0.5, 1.0, 2.0)),
    )


# ----------------------------------------------------------------------
# the space
# ----------------------------------------------------------------------


class BoardSpace:
    """A grid of synthetic boards around one base preset.

    Deterministic by construction: the grid is the cartesian product of
    the axis values (per coherence mode), and board names encode their
    coordinates.
    """

    def __init__(
        self,
        base: Union[str, BoardConfig] = "tx2",
        axes: Optional[Sequence[Axis]] = None,
        coherence: Sequence[str] = ("inherit",),
    ) -> None:
        self.base = get_board(base) if isinstance(base, str) else base
        self.axes: Tuple[Axis, ...] = (
            tuple(axes) if axes is not None else default_axes()
        )
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate axes in the space: {names}"
            )
        coherence = tuple(coherence)
        if not coherence:
            raise ConfigurationError("the space needs >= 1 coherence mode")
        for mode in coherence:
            if mode not in COHERENCE_CHOICES:
                raise ConfigurationError(
                    f"unknown coherence mode {mode!r}; available: "
                    f"{', '.join(COHERENCE_CHOICES)}"
                )
        if len(set(coherence)) != len(coherence):
            raise ConfigurationError(
                f"duplicate coherence modes: {coherence}"
            )
        self.coherence = coherence

    # -- identity ------------------------------------------------------

    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(axis.name for axis in self.axes)

    @property
    def shape(self) -> Tuple[int, ...]:
        """Grid extent per axis (one panel's array shape)."""
        return tuple(len(axis.values) for axis in self.axes)

    @property
    def grid_size(self) -> int:
        """Boards per coherence panel."""
        size = 1
        for extent in self.shape:
            size *= extent
        return size

    def describe(self) -> str:
        axes = ", ".join(
            f"{axis.name}={'/'.join(f'{v:g}' for v in axis.values)}"
            for axis in self.axes
        )
        return (f"base={self.base.name} axes[{axes}] "
                f"coherence={'/'.join(self.coherence)} "
                f"({self.grid_size * len(self.coherence)} grid boards)")

    # -- boards --------------------------------------------------------

    def grid_points(self) -> List[Tuple[float, ...]]:
        """Every grid coordinate, in row-major (C) order — the order
        :meth:`grid_boards` emits."""
        return list(itertools.product(*(axis.values for axis in self.axes)))

    def board_name(self, point: Sequence[float], coherence: str) -> str:
        parts = [f"{axis.name}={value:g}"
                 for axis, value in zip(self.axes, point)]
        name = f"{self.base.name}~" + ",".join(parts)
        if coherence != "inherit":
            name += f"+{coherence}"
        return name

    def board_at(self, point: Sequence[float],
                 coherence: str = "inherit") -> BoardConfig:
        """The synthetic board at one coordinate tuple."""
        if len(point) != len(self.axes):
            raise ConfigurationError(
                f"point has {len(point)} coordinates but the space has "
                f"{len(self.axes)} axes"
            )
        scales = {axis.name: float(value)
                  for axis, value in zip(self.axes, point)}
        return derive_board(
            self.base,
            name=self.board_name(point, coherence),
            coherence=coherence,
            **scales,
        )

    def grid_boards(self, coherence: str = "inherit") -> List[BoardConfig]:
        """One coherence panel's full grid, row-major."""
        return [self.board_at(point, coherence)
                for point in self.grid_points()]

    def all_grid_boards(self) -> List[BoardConfig]:
        """Every panel's grid, panels in ``self.coherence`` order."""
        boards: List[BoardConfig] = []
        for mode in self.coherence:
            boards.extend(self.grid_boards(mode))
        return boards
