"""Centroid extraction: accuracy against injected ground truth."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps.shwfs.centroid import (
    CentroidError,
    CentroidMethod,
    SubapertureGrid,
    displacements_to_slopes,
    extract_centroids,
    reconstruct_modes,
)
from repro.apps.shwfs.optics import (
    ShwfsOptics,
    reference_centers,
    simulate_shwfs_image,
    zernike_surface,
)

OPTICS = ShwfsOptics()
GRID = SubapertureGrid.from_optics(OPTICS)
COEFFS = [0.0, 0.35, -0.25, 0.4, 0.1, -0.15]


def make_frame(noise=0.0, seed=0):
    surface = zernike_surface(COEFFS, size=64)
    return simulate_shwfs_image(surface, OPTICS, noise_rms=noise,
                                rng=np.random.default_rng(seed))


class TestGrid:
    def test_from_optics(self):
        assert GRID.rows == 12
        assert GRID.cols == 16
        assert GRID.count == 192

    def test_frame_validation(self):
        with pytest.raises(CentroidError):
            GRID.validate(np.zeros((100, 100)))

    def test_invalid_grid(self):
        with pytest.raises(CentroidError):
            SubapertureGrid(rows=0, cols=4, size_px=20)


class TestAccuracy:
    @pytest.mark.parametrize("method", list(CentroidMethod))
    def test_clean_frame_recovers_displacements(self, method):
        image, truth = make_frame()
        result = extract_centroids(image, GRID, method=method,
                                   reference=reference_centers(OPTICS))
        error = result.displacements - truth
        rmse = np.sqrt(np.mean(error ** 2))
        assert rmse < 0.1, method

    def test_thresholded_beats_plain_cog_under_noise(self):
        image, truth = make_frame(noise=25.0)
        reference = reference_centers(OPTICS)
        plain = extract_centroids(image, GRID, method=CentroidMethod.COG,
                                  reference=reference)
        robust = extract_centroids(
            image, GRID, method=CentroidMethod.THRESHOLDED_COG,
            reference=reference,
        )
        rmse_plain = np.sqrt(np.mean((plain.displacements - truth) ** 2))
        rmse_robust = np.sqrt(np.mean((robust.displacements - truth) ** 2))
        assert rmse_robust < rmse_plain

    def test_windowed_accurate_under_noise(self):
        image, truth = make_frame(noise=15.0, seed=3)
        result = extract_centroids(
            image, GRID, method=CentroidMethod.WINDOWED_COG,
            reference=reference_centers(OPTICS),
        )
        rmse = np.sqrt(np.mean((result.displacements - truth) ** 2))
        assert rmse < 0.5

    def test_empty_subaperture_falls_back_to_center(self):
        image = np.zeros((GRID.rows * GRID.size_px, GRID.cols * GRID.size_px),
                         dtype=np.float32)
        result = extract_centroids(image, GRID)
        assert np.allclose(result.displacements, 0.0)
        assert np.allclose(result.intensities, 0.0)


class TestValidation:
    def test_threshold_fraction_range(self):
        image, _ = make_frame()
        with pytest.raises(CentroidError):
            extract_centroids(image, GRID, threshold_fraction=1.0)

    def test_reference_shape_checked(self):
        image, _ = make_frame()
        with pytest.raises(CentroidError):
            extract_centroids(image, GRID, reference=np.zeros((3, 2)))


class TestSlopesAndReconstruction:
    def test_slope_conversion_inverts_gain(self):
        displacements = np.array([[4.0, -2.0]])
        slopes = displacements_to_slopes(displacements, gradient_gain_px=8.0)
        assert slopes[0, 0] == pytest.approx(0.5)
        assert slopes[0, 1] == pytest.approx(-0.25)

    def test_zero_gain_rejected(self):
        with pytest.raises(CentroidError):
            displacements_to_slopes(np.zeros((1, 2)), 0.0)

    def test_modal_reconstruction_recovers_coefficients(self):
        image, _ = make_frame()
        result = extract_centroids(image, GRID,
                                   reference=reference_centers(OPTICS))
        slopes = displacements_to_slopes(result.displacements,
                                         OPTICS.gradient_gain_px)
        modes = (2, 3, 4, 5, 6)
        recovered = reconstruct_modes(slopes, OPTICS, modes)
        injected = np.array(COEFFS[1:6])
        assert np.allclose(recovered, injected, atol=0.05)

    def test_piston_rejected(self):
        with pytest.raises(CentroidError):
            reconstruct_modes(np.zeros((GRID.count, 2)), OPTICS, modes=(1, 2))


class TestVectorizedEquivalence:
    def _run_both(self, frame, grid, method, threshold_fraction=0.15,
                  window_radius=4):
        """The production result and the per-window loop's
        ``(centroids, intensities)``."""
        from repro.apps.shwfs.centroid import _extract_centroids_scalar

        fast = extract_centroids(frame, grid, method,
                                 threshold_fraction=threshold_fraction,
                                 window_radius=window_radius)
        centroids, intensities = _extract_centroids_scalar(
            np.asarray(frame, dtype=np.float64), grid, method,
            threshold_fraction, window_radius)
        return fast, SimpleNamespace(centroids=centroids,
                                     intensities=intensities)

    @pytest.mark.parametrize("method", list(CentroidMethod))
    def test_matches_scalar_loop(self, method):
        rng = np.random.default_rng(6)
        grid = SubapertureGrid(rows=5, cols=7, size_px=12)
        frame = rng.random((5 * 12, 7 * 12))
        fast, slow = self._run_both(frame, grid, method)
        assert np.allclose(fast.centroids, slow.centroids,
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(fast.intensities, slow.intensities,
                           rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("method", list(CentroidMethod))
    def test_all_zero_frame_falls_back_to_centers(self, method):
        grid = SubapertureGrid(rows=3, cols=3, size_px=8)
        frame = np.zeros((24, 24))
        fast, slow = self._run_both(frame, grid, method)
        assert np.array_equal(fast.centroids, slow.centroids)
        assert np.all(fast.intensities == 0.0)

    def test_sparse_spots_identical(self):
        # Single-pixel spots exercise the thresholding and the
        # windowed refinement's clamped sub-window edges.
        grid = SubapertureGrid(rows=4, cols=4, size_px=10)
        frame = np.zeros((40, 40))
        rng = np.random.default_rng(8)
        for row in range(4):
            for col in range(4):
                y = row * 10 + int(rng.integers(0, 10))
                x = col * 10 + int(rng.integers(0, 10))
                frame[y, x] = float(rng.integers(50, 255))
        fast, slow = self._run_both(frame, grid,
                                    CentroidMethod.WINDOWED_COG)
        assert np.allclose(fast.centroids, slow.centroids,
                           rtol=1e-12, atol=1e-12)

    def test_negative_frame_uses_scalar_path(self):
        rng = np.random.default_rng(10)
        grid = SubapertureGrid(rows=2, cols=2, size_px=6)
        frame = rng.random((12, 12)) - 0.5
        fast, slow = self._run_both(frame, grid, CentroidMethod.COG)
        assert np.array_equal(fast.centroids, slow.centroids)
        assert np.array_equal(fast.intensities, slow.intensities)

    def test_injection_uses_scalar_path(self):
        """Centroids under an active injector equal clean centroids (no
        fault seam lives in the extractor)."""
        from repro.robustness.faults import FaultPlan
        from repro.robustness.inject import inject_faults

        rng = np.random.default_rng(12)
        grid = SubapertureGrid(rows=3, cols=4, size_px=8)
        frame = rng.random((24, 32))
        from repro.apps.shwfs.centroid import extract_centroids

        clean = extract_centroids(frame, grid)
        with inject_faults(FaultPlan(seed=0)):
            injected = extract_centroids(frame, grid)
        assert np.array_equal(injected.centroids, clean.centroids)
