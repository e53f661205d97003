"""Configuration of the SH-WFS pipeline, free of NumPy.

The sensor geometry (:class:`ShwfsOptics`) and the centroid estimator
(:class:`CentroidMethod`) are plain values: the simulator workload
derives its frame geometry from the same defaults
(:mod:`repro.apps.shwfs.workload`), and building a pipeline to tune it
loads neither NumPy nor the image-processing modules.
:mod:`repro.apps.shwfs.optics` and :mod:`repro.apps.shwfs.centroid`
re-export these names.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ReproError


class OpticsError(ReproError):
    """Invalid optics configuration or Zernike request."""


class CentroidMethod(enum.Enum):
    """Which estimator to run per subaperture."""

    COG = "cog"
    THRESHOLDED_COG = "thresholded"
    WINDOWED_COG = "windowed"


@dataclass(frozen=True)
class ShwfsOptics:
    """Geometry of the sensor.

    Attributes:
        image_width / image_height: camera frame in pixels.
        subaperture_px: square subaperture side in pixels.
        spot_sigma_px: Gaussian spot width.
        gradient_gain_px: pixels of spot displacement per unit of
            wavefront gradient (folds the lenslet focal length and
            pixel pitch into one constant).
        spot_peak: peak intensity of an undisturbed spot.
    """

    image_width: int = 320
    image_height: int = 240
    subaperture_px: int = 20
    spot_sigma_px: float = 2.0
    gradient_gain_px: float = 8.0
    spot_peak: float = 1000.0

    def __post_init__(self) -> None:
        if self.image_width <= 0 or self.image_height <= 0:
            raise OpticsError("image dimensions must be positive")
        if self.subaperture_px < 4:
            raise OpticsError("subapertures must be at least 4 px wide")
        if self.image_width % self.subaperture_px or self.image_height % self.subaperture_px:
            raise OpticsError(
                f"image {self.image_width}x{self.image_height} is not a "
                f"multiple of the subaperture size {self.subaperture_px}"
            )
        if self.spot_sigma_px <= 0:
            raise OpticsError("spot sigma must be positive")

    @property
    def grid_cols(self) -> int:
        """Number of subapertures across."""
        return self.image_width // self.subaperture_px

    @property
    def grid_rows(self) -> int:
        """Number of subapertures down."""
        return self.image_height // self.subaperture_px

    @property
    def num_subapertures(self) -> int:
        """Total lenslet count."""
        return self.grid_cols * self.grid_rows
