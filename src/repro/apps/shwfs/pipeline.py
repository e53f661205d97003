"""End-to-end SH-WFS pipeline: functional truth + framework hooks.

:class:`ShwfsPipeline` ties the optics simulation, the centroid
extraction, and the modal reconstruction together, and exposes the
calibrated simulator workload so one object serves both purposes:

- ``process_frame`` — run the real algorithm on a synthetic frame and
  validate recovered displacements against the injected ground truth;
- ``workload`` / ``tune`` — profile and tune the application's
  communication model on a simulated board, exactly as the paper does
  in §IV-B.

The tuning path needs only the sensor geometry: NumPy and the image
modules load on the first functional call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.apps.shwfs.config import CentroidMethod, ShwfsOptics
from repro.apps.shwfs.workload import ShwfsWorkloadConfig, build_shwfs_workload
from repro.kernels.workload import Workload

if TYPE_CHECKING:
    import numpy as np

    from repro.apps.shwfs.centroid import CentroidResult, SubapertureGrid


@dataclass
class FrameResult:
    """Outcome of processing one synthetic frame."""

    centroids: CentroidResult
    true_displacements: np.ndarray
    slopes: np.ndarray
    recovered_modes: Optional[np.ndarray]

    @property
    def displacement_rmse_px(self) -> float:
        """RMS error of the recovered spot displacements (pixels)."""
        err = self.centroids.displacements - self.true_displacements
        return math.sqrt(float((err ** 2).mean()))


def _process_shared_frame(pipeline, reconstruct, arrays, index):
    """Worker for :meth:`ShwfsPipeline.process_frames`.

    ``arrays["frames"]`` is the mapped (read-only) frame stack; every
    array in the returned :class:`FrameResult` is freshly computed, so
    no view into the parent's shared segments escapes the worker.
    """
    return pipeline.process_frame(
        arrays["frames"][index], reconstruct=reconstruct
    )


class ShwfsPipeline:
    """Functional Shack-Hartmann pipeline with tuning hooks."""

    def __init__(
        self,
        optics: Optional[ShwfsOptics] = None,
        method: CentroidMethod = CentroidMethod.THRESHOLDED_COG,
        modes: Sequence[int] = (2, 3, 4, 5, 6),
    ) -> None:
        self.optics = optics or ShwfsOptics()
        self.method = method
        self.modes = tuple(modes)

    @functools.cached_property
    def grid(self) -> SubapertureGrid:
        """The subaperture grid of :attr:`optics`."""
        from repro.apps.shwfs.centroid import SubapertureGrid

        return SubapertureGrid.from_optics(self.optics)

    @functools.cached_property
    def _reference(self) -> np.ndarray:
        from repro.apps.shwfs.optics import reference_centers

        return reference_centers(self.optics)

    # ------------------------------------------------------------------
    # functional path
    # ------------------------------------------------------------------

    def make_frame(
        self,
        zernike_coefficients: Sequence[float],
        noise_rms: float = 0.0,
        seed: int = 0,
    ):
        """Synthesize a sensor frame for the given aberration."""
        import numpy as np

        from repro.apps.shwfs.optics import (
            simulate_shwfs_image,
            zernike_surface,
        )

        surface = zernike_surface(zernike_coefficients, size=64)
        rng = np.random.default_rng(seed)
        return simulate_shwfs_image(
            surface, self.optics, noise_rms=noise_rms, rng=rng
        )

    def process_frame(
        self,
        image: np.ndarray,
        true_displacements: Optional[np.ndarray] = None,
        reconstruct: bool = True,
    ) -> FrameResult:
        """Run the centroid pipeline on one frame."""
        import numpy as np

        from repro.apps.shwfs.centroid import (
            displacements_to_slopes,
            extract_centroids,
            reconstruct_modes,
        )

        result = extract_centroids(
            image, self.grid, method=self.method, reference=self._reference
        )
        slopes = displacements_to_slopes(
            result.displacements, self.optics.gradient_gain_px
        )
        recovered = None
        if reconstruct:
            recovered = reconstruct_modes(slopes, self.optics, self.modes)
        if true_displacements is None:
            true_displacements = np.zeros_like(result.displacements)
        return FrameResult(
            centroids=result,
            true_displacements=true_displacements,
            slopes=slopes,
            recovered_modes=recovered,
        )

    def process_frames(
        self,
        frames: Sequence[np.ndarray],
        reconstruct: bool = True,
        runner=None,
    ) -> List[FrameResult]:
        """Run the centroid pipeline on a batch of frames.

        The frames are stacked into one array and fanned out through
        :meth:`~repro.perf.parallel.ParallelRunner.map_shared`, so the
        workers map a single shared-memory copy of the stack instead of
        unpickling one frame per task.  Results keep input order and
        equal a serial :meth:`process_frame` loop exactly.
        """
        import numpy as np

        from repro.perf.parallel import ParallelRunner

        frames = [np.asarray(f, dtype=np.float64) for f in frames]
        if not frames:
            return []
        if runner is None:
            runner = ParallelRunner()
        worker = functools.partial(_process_shared_frame, self, reconstruct)
        return runner.map_shared(
            worker, {"frames": np.stack(frames)}, list(range(len(frames)))
        )

    # ------------------------------------------------------------------
    # tuning path
    # ------------------------------------------------------------------

    def workload(self, frames: int = 100, board_name: str = "") -> Workload:
        """The calibrated simulator workload for this geometry."""
        config = ShwfsWorkloadConfig(
            width=self.optics.image_width,
            height=self.optics.image_height,
            subaperture_px=self.optics.subaperture_px,
            frames=frames,
            board_name=board_name,
        )
        return build_shwfs_workload(config)

    def tune(self, framework, board, current_model: str = "SC"):
        """Run the paper's Fig-2 flow on this application."""
        return framework.tune(
            self.workload(board_name=board.name), board, current_model=current_model
        )
