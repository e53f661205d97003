"""Case-study applications (paper §IV).

Two real edge-computing applications, each present in two forms:

1. a **functional** numpy implementation (tested for numerical
   correctness) — :mod:`repro.apps.shwfs` implements Shack-Hartmann
   wavefront-sensor centroid extraction [Kong et al., Applied Optics
   2017]; :mod:`repro.apps.orbslam` implements the ORB feature pipeline
   of ORB-SLAM2 [Mur-Artal & Tardós, T-RO 2017];
2. a **simulator workload** whose operation counts and memory
   footprints are derived from the functional implementation, used by
   the framework to profile and tune communication models.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.kernels.workload import Workload

#: The bundled applications, by the name every caller builds them by.
APPS = ("shwfs", "orbslam")


def build_workload(app: str, board_name: str = "") -> Workload:
    """The calibrated simulator workload of bundled ``app`` with the
    fixed per-iteration overhead of ``board_name`` (none for ``""``).

    Equal to the default pipeline's ``workload(board_name=...)``; only
    the workload modules load, never NumPy or the image code.
    """
    if app == "shwfs":
        from repro.apps.shwfs.workload import (
            ShwfsWorkloadConfig,
            build_shwfs_workload,
        )

        return build_shwfs_workload(ShwfsWorkloadConfig(board_name=board_name))
    if app == "orbslam":
        from repro.apps.orbslam.workload import (
            OrbWorkloadConfig,
            build_orbslam_workload,
        )

        return build_orbslam_workload(OrbWorkloadConfig(board_name=board_name))
    raise ConfigurationError(
        f"unknown application {app!r}; available: {', '.join(APPS)}")
