"""Two-dimensional tiled zero-copy pattern (Fig. 4's n-D general case).

Fig. 4 draws the pattern on a 2-D matrix (``Width_x × Width_y``): the
structure is partitioned into rectangular tiles and the processors
alternate on a checkerboard.  :class:`TilingPlan2D` generalizes the
1-D plan of :mod:`repro.comm.tiling`:

- tile *rows* are sized so one tile row of the matrix is a whole number
  of cache blocks (rows cannot split a coherence block, or the two
  processors would false-share);
- within a phase the CPU owns the black squares and the iGPU the white
  squares of the checkerboard; parities swap between phases;
- each tile's cells are traversed row-major, so per-row accesses stay
  coalesced.

The same race-freedom checker as the 1-D pattern applies (tiles are
block-aligned by construction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Tuple

import numpy as np

from repro.errors import ConfigurationError, WorkloadError
from repro.kernels.patterns import PatternSpec
from repro.soc.address import Buffer
from repro.soc.board import BoardConfig
from repro.soc.stream import AccessStream, PatternKind


@dataclass(frozen=True)
class TilingPlan2D:
    """Checkerboard partition of a row-major 2-D buffer."""

    buffer_name: str
    width: int  # elements per row
    height: int  # rows
    element_size: int
    tile_width: int  # elements
    tile_height: int  # rows
    barrier_overhead_s: float = 2.0e-6

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ConfigurationError("matrix dimensions must be positive")
        if self.tile_width <= 0 or self.tile_height <= 0:
            raise ConfigurationError("tile dimensions must be positive")
        if self.width % self.tile_width:
            raise ConfigurationError(
                f"width {self.width} is not a multiple of tile width "
                f"{self.tile_width}"
            )
        if self.height % self.tile_height:
            raise ConfigurationError(
                f"height {self.height} is not a multiple of tile height "
                f"{self.tile_height}"
            )
        if (self.tiles_x * self.tiles_y) < 2:
            raise ConfigurationError("the checkerboard needs at least 2 tiles")

    @classmethod
    def for_matrix(
        cls,
        buffer_name: str,
        width: int,
        height: int,
        element_size: int,
        board: BoardConfig,
        tiles_x: int = 0,
    ) -> "TilingPlan2D":
        """Size tiles per the paper's rule on a given board.

        The tile *row* span (tile_width × element_size) is the smaller
        LLC block size, so every row of a tile is one coalesced
        transaction and tiles never share a coherence block; pass
        ``tiles_x`` to override the horizontal split.
        """
        block = min(board.cpu.llc.line_size, board.gpu.llc.line_size)
        if tiles_x > 0:
            if width % tiles_x:
                raise ConfigurationError(
                    f"width {width} not divisible into {tiles_x} tiles"
                )
            tile_width = width // tiles_x
            if (tile_width * element_size) % block:
                raise ConfigurationError(
                    f"tile rows of {tile_width * element_size} B would "
                    f"split {block}-byte coherence blocks"
                )
        else:
            tile_width = max(1, block // element_size)
            if width % tile_width:
                raise ConfigurationError(
                    f"width {width} elements is not a multiple of the "
                    f"block-aligned tile width {tile_width}"
                )
        return cls(
            buffer_name=buffer_name,
            width=width,
            height=height,
            element_size=element_size,
            tile_width=tile_width,
            tile_height=1,
        )

    @property
    def tiles_x(self) -> int:
        """Tiles per row."""
        return self.width // self.tile_width

    @property
    def tiles_y(self) -> int:
        """Tile rows."""
        return self.height // self.tile_height

    @property
    def num_tiles(self) -> int:
        """Total tiles."""
        return self.tiles_x * self.tiles_y

    @property
    def tile_bytes(self) -> int:
        """Bytes per tile."""
        return self.tile_width * self.tile_height * self.element_size

    def tile_parity(self, tx: int, ty: int) -> int:
        """Checkerboard colour of tile (tx, ty)."""
        return (tx + ty) % 2

    def tiles_of_parity(self, parity: int) -> List[Tuple[int, int]]:
        """All (tx, ty) of one colour, row-major order."""
        if parity not in (0, 1):
            raise ConfigurationError(f"parity must be 0 or 1, got {parity}")
        return [
            (tx, ty)
            for ty in range(self.tiles_y)
            for tx in range(self.tiles_x)
            if self.tile_parity(tx, ty) == parity
        ]

    def cpu_parity(self, phase: int) -> int:
        """Colour the CPU owns in ``phase``."""
        return phase % 2

    def gpu_parity(self, phase: int) -> int:
        """Colour the iGPU owns in ``phase``."""
        return (phase + 1) % 2

    def phase_patterns(
        self, phase: int
    ) -> Tuple["Checkerboard2DPattern", "Checkerboard2DPattern"]:
        """(CPU pattern, GPU pattern) for one phase."""
        return (
            Checkerboard2DPattern(buffer=self.buffer_name, plan=self,
                                  parity=self.cpu_parity(phase)),
            Checkerboard2DPattern(buffer=self.buffer_name, plan=self,
                                  parity=self.gpu_parity(phase)),
        )


@dataclass(frozen=True)
class Checkerboard2DPattern(PatternSpec):
    """Row-major sweep over one checkerboard colour of a 2-D plan."""

    buffer: str
    plan: TilingPlan2D
    parity: int
    read_write_pairs: bool = True

    def _build(self, streams, buffer: Buffer, line_size: int) -> AccessStream:
        plan = self.plan
        expected = plan.width * plan.height * plan.element_size
        if buffer.size < expected:
            raise WorkloadError(
                f"buffer {buffer.name!r} ({buffer.size} B) smaller than the "
                f"plan's matrix ({expected} B)"
            )
        if buffer.element_size != plan.element_size:
            raise WorkloadError(
                f"buffer element size {buffer.element_size} != plan's "
                f"{plan.element_size}"
            )
        row_bytes = plan.width * plan.element_size
        pieces = []
        for tx, ty in plan.tiles_of_parity(self.parity):
            base_row = ty * plan.tile_height
            col_offset = tx * plan.tile_width * plan.element_size
            for row in range(plan.tile_height):
                start = (base_row + row) * row_bytes + col_offset
                pieces.append(
                    buffer.base + start
                    + np.arange(plan.tile_width, dtype=np.int64)
                    * plan.element_size
                )
        base = np.concatenate(pieces)
        if self.read_write_pairs:
            addresses = np.repeat(base, 2)
            is_write = np.tile(np.array([False, True]), len(base))
        else:
            addresses = base
            is_write = np.zeros(len(base), dtype=bool)
        return AccessStream(
            addresses=addresses,
            is_write=is_write,
            transaction_size=plan.element_size,
            pattern=PatternKind.TILED,
            footprint_bytes=len(base) * plan.element_size,
        )
