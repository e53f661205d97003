"""SH-WFS pipeline object, including a closed adaptive-optics loop."""

import numpy as np
import pytest

from repro.apps.shwfs.centroid import CentroidMethod
from repro.apps.shwfs.optics import ShwfsOptics, zernike_surface
from repro.apps.shwfs.pipeline import ShwfsPipeline
from repro.model.framework import Framework
from repro.soc.board import get_board


class TestFrameProcessing:
    def test_process_frame_end_to_end(self):
        pipeline = ShwfsPipeline()
        image, truth = pipeline.make_frame([0, 0.3, -0.2, 0.4], noise_rms=3.0)
        result = pipeline.process_frame(image, truth)
        assert result.displacement_rmse_px < 0.2
        assert result.recovered_modes is not None
        assert result.slopes.shape == (pipeline.grid.count, 2)

    def test_reconstruction_optional(self):
        pipeline = ShwfsPipeline()
        image, truth = pipeline.make_frame([0, 0.3])
        result = pipeline.process_frame(image, truth, reconstruct=False)
        assert result.recovered_modes is None

    def test_method_selectable(self):
        pipeline = ShwfsPipeline(method=CentroidMethod.WINDOWED_COG)
        image, truth = pipeline.make_frame([0, 0.2, 0.2])
        result = pipeline.process_frame(image, truth)
        assert result.centroids.method is CentroidMethod.WINDOWED_COG

    def test_deterministic_frames(self):
        pipeline = ShwfsPipeline()
        a, _ = pipeline.make_frame([0, 0.1], noise_rms=2.0, seed=9)
        b, _ = pipeline.make_frame([0, 0.1], noise_rms=2.0, seed=9)
        assert np.array_equal(a, b)


class TestClosedLoop:
    def test_ao_loop_converges(self):
        """The full adaptive-optics loop: measure -> reconstruct ->
        correct.  Residual aberration shrinks monotonically-ish and ends
        far below the injected level."""
        pipeline = ShwfsPipeline(modes=(2, 3, 4, 5, 6))
        injected = np.array([0.0, 0.45, -0.30, 0.50, 0.20, -0.25])
        correction = np.zeros_like(injected)
        gain = 0.6
        residual_norms = []
        for _ in range(6):
            residual = injected - correction
            surface = zernike_surface(residual.tolist(), size=64)
            from repro.apps.shwfs.optics import simulate_shwfs_image

            image, _ = simulate_shwfs_image(surface, pipeline.optics)
            result = pipeline.process_frame(image, reconstruct=True)
            correction[1:6] += gain * result.recovered_modes
            residual_norms.append(float(np.linalg.norm(injected - correction)))
        assert residual_norms[-1] < 0.1 * float(np.linalg.norm(injected))
        assert residual_norms[-1] < residual_norms[0]

    def test_loop_stable_with_noise(self):
        pipeline = ShwfsPipeline(modes=(2, 3, 4))
        injected = np.array([0.0, 0.4, -0.3, 0.3])
        correction = np.zeros_like(injected)
        rng_seed = 0
        from repro.apps.shwfs.optics import simulate_shwfs_image

        for step in range(8):
            residual = injected - correction
            surface = zernike_surface(residual.tolist(), size=64)
            image, _ = simulate_shwfs_image(
                surface, pipeline.optics, noise_rms=4.0,
                rng=np.random.default_rng(rng_seed + step),
            )
            result = pipeline.process_frame(image, reconstruct=True)
            correction[1:4] += 0.5 * result.recovered_modes
        final = float(np.linalg.norm(injected - correction))
        assert final < 0.25 * float(np.linalg.norm(injected))


class TestTuningHooks:
    def test_workload_geometry_follows_optics(self):
        optics = ShwfsOptics(image_width=160, image_height=120,
                             subaperture_px=20)
        pipeline = ShwfsPipeline(optics=optics)
        workload = pipeline.workload()
        assert workload.buffer("frame").num_elements == 160 * 120

    def test_tune_smoke(self):
        report = ShwfsPipeline().tune(Framework(), get_board("nano"))
        assert report.board_name == "nano"


class TestProcessFrames:
    """Batch frame processing over the shared-memory fan-out."""

    @staticmethod
    def _frames(pipeline, count=4):
        return [
            pipeline.make_frame([0, 0.1 * (i + 1), -0.05 * i], seed=i)[0]
            for i in range(count)
        ]

    @staticmethod
    def _assert_results_equal(batch, serial):
        assert len(batch) == len(serial)
        for got, want in zip(batch, serial):
            np.testing.assert_array_equal(
                got.centroids.centroids, want.centroids.centroids
            )
            np.testing.assert_array_equal(
                got.centroids.displacements, want.centroids.displacements
            )
            np.testing.assert_array_equal(got.slopes, want.slopes)
            np.testing.assert_array_equal(
                got.recovered_modes, want.recovered_modes
            )

    def test_matches_serial_loop(self):
        from repro.perf.parallel import ParallelRunner

        pipeline = ShwfsPipeline(modes=(2, 3, 4))
        frames = self._frames(pipeline)
        serial = [pipeline.process_frame(f) for f in frames]
        runner = ParallelRunner()
        batch = pipeline.process_frames(frames, runner=runner)
        self._assert_results_equal(batch, serial)
        assert runner.last_transport in ("shared", "pickle", "inline")

    def test_inline_fallback_matches(self):
        from repro.perf.parallel import ParallelRunner

        pipeline = ShwfsPipeline()
        frames = self._frames(pipeline, count=3)
        serial = [pipeline.process_frame(f) for f in frames]
        runner = ParallelRunner(parallel=False)
        batch = pipeline.process_frames(frames, runner=runner)
        self._assert_results_equal(batch, serial)
        assert runner.last_transport == "inline"

    def test_empty_batch(self):
        assert ShwfsPipeline().process_frames([]) == []

    def test_reconstruct_flag_forwarded(self):
        pipeline = ShwfsPipeline()
        frames = self._frames(pipeline, count=2)
        batch = pipeline.process_frames(frames, reconstruct=False)
        assert all(r.recovered_modes is None for r in batch)

    def test_injection_runs_serially(self):
        """Results under an active injector equal clean results (no
        fault seam lives in the centroid pipeline)."""
        from repro.robustness.inject import FaultInjector, FaultPlan

        pipeline = ShwfsPipeline()
        frames = self._frames(pipeline, count=2)
        clean = pipeline.process_frames(frames)
        with FaultInjector(FaultPlan(seed=0)):
            injected = pipeline.process_frames(frames)
        self._assert_results_equal(injected, clean)
