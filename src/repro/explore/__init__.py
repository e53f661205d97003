"""Design-space exploration: how the decision moves across boards.

``repro.explore`` parameterizes a board preset into a
:class:`BoardSpace` and characterizes every grid board of it in one
batch (:func:`sweep_space`), so ``repro explore`` can show the
thresholds and the recommendation at each point of the space.

See ``docs/explore.md``.
"""

from repro.explore.space import (
    AXIS_NAMES,
    Axis,
    BoardSpace,
    default_axes,
)
from repro.explore.sweep import (
    PanelSweep,
    SweepResult,
    sweep_space,
)

__all__ = [
    "AXIS_NAMES",
    "Axis",
    "BoardSpace",
    "PanelSweep",
    "SweepResult",
    "default_axes",
    "sweep_space",
]
