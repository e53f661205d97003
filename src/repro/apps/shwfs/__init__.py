"""Shack-Hartmann wavefront sensor centroid extraction.

The adaptive-optics application of paper §IV-B: a lenslet array images
a wavefront onto a camera; each lenslet forms a spot whose displacement
from its reference position is proportional to the local wavefront
gradient.  The edge pipeline per frame:

1. (CPU) preprocess the camera frame — background subtraction,
   thresholding, per-subaperture windowing;
2. (GPU) extract the centroid of every subaperture spot;
3. (CPU) convert centroids to slopes and reconstruct the wavefront.

Public API:

- :func:`repro.apps.shwfs.optics.simulate_shwfs_image` — synthesize a
  sensor frame from Zernike aberrations;
- :func:`repro.apps.shwfs.centroid.extract_centroids` — the centroid
  algorithm (CoG, thresholded, windowed variants);
- :func:`repro.apps.shwfs.workload.build_shwfs_workload` — the
  calibrated simulator workload for the tuning framework;
- :class:`repro.apps.shwfs.pipeline.ShwfsPipeline` — functional
  end-to-end pipeline.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.apps.shwfs.centroid": ("CentroidResult", "SubapertureGrid",
                                  "extract_centroids"),
    "repro.apps.shwfs.optics": ("ShwfsOptics", "simulate_shwfs_image",
                                "zernike"),
    "repro.apps.shwfs.pipeline": ("ShwfsPipeline",),
    "repro.apps.shwfs.workload": ("build_shwfs_workload",),
})

__all__ = [
    "CentroidResult",
    "SubapertureGrid",
    "extract_centroids",
    "ShwfsOptics",
    "simulate_shwfs_image",
    "zernike",
    "ShwfsPipeline",
    "build_shwfs_workload",
]
