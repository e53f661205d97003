"""ORB feature pipeline (the ORB-SLAM2 front end of paper §IV-C).

The paper's second case study offloads ORB-SLAM2's feature extraction
to the iGPU.  This package implements the pipeline functionally in
numpy and provides the calibrated simulator workload:

- :mod:`repro.apps.orbslam.fast` — FAST-9 corner detection;
- :mod:`repro.apps.orbslam.brief` — oriented rBRIEF descriptors;
- :mod:`repro.apps.orbslam.orb` — scale pyramid + end-to-end extractor;
- :mod:`repro.apps.orbslam.matching` — Hamming matching with ratio test;
- :mod:`repro.apps.orbslam.workload` — the tuning-framework workload;
- :mod:`repro.apps.orbslam.pipeline` — functional pipeline object.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.apps.orbslam.brief": ("compute_orientations", "rbrief_descriptors"),
    "repro.apps.orbslam.fast": ("fast_corners",),
    "repro.apps.orbslam.matching": ("match_descriptors",),
    "repro.apps.orbslam.orb": ("OrbExtractor", "OrbFeatures"),
    "repro.apps.orbslam.pipeline": ("OrbPipeline",),
    "repro.apps.orbslam.workload": ("build_orbslam_workload",),
})

__all__ = [
    "fast_corners",
    "compute_orientations",
    "rbrief_descriptors",
    "match_descriptors",
    "OrbExtractor",
    "OrbFeatures",
    "OrbPipeline",
    "build_orbslam_workload",
]
