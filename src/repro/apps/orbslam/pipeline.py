"""Functional ORB pipeline with tuning hooks.

:class:`OrbPipeline` runs the real extractor/matcher on synthetic
frames (textured scenes with a known shift, so matching accuracy is
verifiable) and exposes the calibrated simulator workload for the
tuning framework, mirroring :class:`repro.apps.shwfs.pipeline.ShwfsPipeline`.
As there, the tuning path loads neither NumPy nor the image modules.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.apps.orbslam.workload import OrbWorkloadConfig, build_orbslam_workload
from repro.kernels.workload import Workload

if TYPE_CHECKING:
    import numpy as np

    from repro.apps.orbslam.matching import Match
    from repro.apps.orbslam.orb import OrbExtractor, OrbFeatures


def synthetic_scene(
    width: int = 320,
    height: int = 240,
    seed: int = 0,
    blobs: int = 120,
) -> np.ndarray:
    """A textured synthetic frame with strong corners.

    Random bright rectangles over a dark background produce reliable
    FAST corners at their vertices; later blobs paint over earlier
    ones.  Each placement draw is bounded by the preceding size draw,
    so the sequence of generator calls — and therefore the scene for a
    given seed — is fixed.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    image = np.full((height, width), 20.0)
    for _ in range(blobs):
        w = rng.integers(6, 24)
        h = rng.integers(6, 24)
        x = rng.integers(0, width - w)
        y = rng.integers(0, height - h)
        image[y : y + h, x : x + w] = float(rng.integers(100, 250))
    return image


def shift_scene(image: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Translate a frame (wrapping) — a known camera motion for tests."""
    import numpy as np

    return np.roll(np.roll(image, dy, axis=0), dx, axis=1)


@dataclass
class TrackingResult:
    """Outcome of matching two frames."""

    features_a: OrbFeatures
    features_b: OrbFeatures
    matches: List[Match]
    estimated_shift: Optional[Tuple[float, float]]

    @property
    def num_matches(self) -> int:
        """Accepted correspondences."""
        return len(self.matches)


class OrbPipeline:
    """Functional ORB front end with tuning hooks."""

    def __init__(self, extractor: Optional[OrbExtractor] = None) -> None:
        if extractor is not None:
            self.extractor = extractor

    @functools.cached_property
    def extractor(self) -> OrbExtractor:
        """The default extractor, built on first use."""
        from repro.apps.orbslam.orb import OrbExtractor

        return OrbExtractor()

    def extract(self, image: np.ndarray) -> OrbFeatures:
        """Run the extractor on one frame."""
        return self.extractor.extract(image)

    def track(self, frame_a: np.ndarray, frame_b: np.ndarray) -> TrackingResult:
        """Extract and match two frames; estimate the dominant shift."""
        import numpy as np

        from repro.apps.orbslam.matching import match_descriptors

        features_a = self.extract(frame_a)
        features_b = self.extract(frame_b)
        matches = match_descriptors(features_a.descriptors, features_b.descriptors)
        shift = None
        if matches:
            deltas = np.array(
                [
                    features_b.keypoints[m.train_index]
                    - features_a.keypoints[m.query_index]
                    for m in matches
                ]
            )
            shift = (float(np.median(deltas[:, 0])), float(np.median(deltas[:, 1])))
        return TrackingResult(
            features_a=features_a,
            features_b=features_b,
            matches=matches,
            estimated_shift=shift,
        )

    # ------------------------------------------------------------------
    # tuning path
    # ------------------------------------------------------------------

    def workload(self, iterations: int = 500, board_name: str = "") -> Workload:
        """The calibrated simulator workload."""
        return build_orbslam_workload(
            OrbWorkloadConfig(iterations=iterations, board_name=board_name)
        )

    def tune(self, framework, board, current_model: str = "SC"):
        """Run the paper's Fig-2 flow on this application."""
        return framework.tune(
            self.workload(board_name=board.name), board, current_model=current_model
        )
