"""ORB extractor and end-to-end tracking pipeline."""

import numpy as np
import pytest

from repro.apps.orbslam.orb import OrbError, OrbExtractor
from repro.apps.orbslam.pipeline import (
    OrbPipeline,
    shift_scene,
    synthetic_scene,
)


@pytest.fixture(scope="module")
def scene():
    return synthetic_scene(seed=1)


@pytest.fixture(scope="module")
def extractor():
    return OrbExtractor()


class TestExtractor:
    def test_pyramid_levels_shrink(self, extractor, scene):
        pyramid = extractor.build_pyramid(scene)
        assert len(pyramid) == extractor.num_levels
        for smaller, larger in zip(pyramid[1:], pyramid):
            assert smaller.shape[0] < larger.shape[0]

    def test_features_extracted(self, extractor, scene):
        features = extractor.extract(scene)
        assert len(features) > 50
        assert features.descriptors.shape == (len(features), 32)
        assert features.keypoints.shape == (len(features), 2)

    def test_budget_respected(self, scene):
        extractor = OrbExtractor(num_features=40)
        features = extractor.extract(scene)
        assert len(features) <= 40 * 1.1

    def test_multiple_levels_contribute(self, extractor, scene):
        features = extractor.extract(scene)
        assert len(np.unique(features.levels)) >= 2

    def test_keypoints_in_level0_coordinates(self, extractor, scene):
        features = extractor.extract(scene)
        assert features.keypoints[:, 0].max() < scene.shape[1]
        assert features.keypoints[:, 1].max() < scene.shape[0]

    def test_blank_image_yields_nothing(self, extractor):
        features = extractor.extract(np.full((120, 160), 80.0))
        assert len(features) == 0

    def test_config_validation(self):
        with pytest.raises(OrbError):
            OrbExtractor(num_features=0)
        with pytest.raises(OrbError):
            OrbExtractor(num_levels=0)
        with pytest.raises(OrbError):
            OrbExtractor(scale_factor=1.0)


class TestTracking:
    def test_known_shift_recovered(self, scene):
        pipeline = OrbPipeline()
        result = pipeline.track(scene, shift_scene(scene, 6, -2))
        assert result.num_matches > 20
        dx, dy = result.estimated_shift
        assert dx == pytest.approx(6.0, abs=1.0)
        assert dy == pytest.approx(-2.0, abs=1.0)

    def test_identical_frames_zero_shift(self, scene):
        pipeline = OrbPipeline()
        result = pipeline.track(scene, scene)
        dx, dy = result.estimated_shift
        assert abs(dx) < 0.5
        assert abs(dy) < 0.5

    def test_unrelated_frames_match_poorly(self):
        pipeline = OrbPipeline()
        a = synthetic_scene(seed=1)
        b = synthetic_scene(seed=99)
        related = pipeline.track(a, shift_scene(a, 3, 3)).num_matches
        unrelated = pipeline.track(a, b).num_matches
        assert unrelated < related


class TestSyntheticScene:
    def test_deterministic(self):
        assert np.array_equal(synthetic_scene(seed=5), synthetic_scene(seed=5))

    def test_shift_wraps(self):
        scene = synthetic_scene()
        assert np.array_equal(shift_scene(scene, 0, 0), scene)
        roundtrip = shift_scene(shift_scene(scene, 7, 3), -7, -3)
        assert np.array_equal(roundtrip, scene)


class TestSceneRasterization:
    def test_zero_blobs_background_only(self):
        scene = synthetic_scene(blobs=0)
        assert np.all(scene == 20.0)
