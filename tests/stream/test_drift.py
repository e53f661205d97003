"""Drift detector: warm-up, step response, determinism, reference parity."""

import numpy as np
import pytest

from repro.errors import StreamError
from repro.robustness.faults import FaultPlan
from repro.robustness.inject import inject_faults
from repro.stream.drift import DriftConfig, DriftDetector
from tests.stream.reference import drift_flags_per_emission

CFG = DriftConfig(lag=2, reference=4)


def run_detector(metrics, config=CFG, block=None):
    detector = DriftDetector(config, num_metrics=metrics.shape[1])
    if block is None:
        return detector.update(metrics)
    flags = []
    for start in range(0, len(metrics), block):
        flags.append(detector.update(metrics[start:start + block]))
    return np.concatenate(flags)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"lag": 0}, {"reference": 0}, {"rel_threshold": -0.1},
        {"abs_floor_pct": -1.0},
    ])
    def test_bad_config(self, kwargs):
        with pytest.raises(StreamError) as err:
            DriftConfig(**kwargs).validated()
        assert err.value.code == "STREAM_BAD_DRIFT"

    def test_bad_metric_shape(self):
        detector = DriftDetector(CFG, num_metrics=2)
        with pytest.raises(StreamError) as err:
            detector.update(np.zeros((4, 3)))
        assert err.value.code == "STREAM_BAD_DRIFT"


class TestBehaviour:
    def test_stationary_never_flags(self):
        metrics = np.full((60, 2), 42.0)
        assert not run_detector(metrics).any()

    def test_warmup_never_flags(self):
        # Wild values inside lag + reference are establishment, not drift.
        rng = np.random.default_rng(0)
        metrics = rng.uniform(0, 100, size=(CFG.lag + CFG.reference, 2))
        assert not run_detector(metrics).any()

    def test_step_change_flags(self):
        metrics = np.full((40, 2), 10.0)
        metrics[20:] = 30.0  # 3x the 25 % relative band
        flags = run_detector(metrics)
        assert not flags[:20].any()
        assert flags[20]
        # Once the reference catches up past the lag, the new level is
        # normal again — the detector does not latch.
        assert not flags[-1]

    def test_small_wiggle_below_floor_ignored(self):
        metrics = np.full((40, 2), 10.0)
        metrics[25] = 10.3  # within the 0.5 pp absolute floor
        assert not run_detector(metrics).any()

    def test_disabled_detector_never_flags(self):
        metrics = np.zeros((30, 1))
        metrics[20:] = 99.0
        config = DriftConfig(lag=2, reference=4, enabled=False)
        assert not run_detector(metrics, config=config).any()


class TestDeterminism:
    def test_block_size_invariance(self):
        rng = np.random.default_rng(7)
        metrics = rng.uniform(0, 50, size=(97, 2))
        reference = run_detector(metrics)
        for block in (1, 3, 10, 97):
            assert np.array_equal(run_detector(metrics, block=block),
                                  reference)

    def test_repeat_runs_identical(self):
        rng = np.random.default_rng(11)
        metrics = rng.uniform(0, 50, size=(64, 2))
        assert np.array_equal(run_detector(metrics),
                              run_detector(metrics))

    @pytest.mark.parametrize("block", [None, 1, 7])
    def test_matches_per_emission_reference(self, block):
        rng = np.random.default_rng(17)
        metrics = rng.uniform(0, 50, size=(120, 2))
        metrics[60:] *= 2.0
        expected = drift_flags_per_emission(metrics, CFG)
        assert expected.any() and not expected.all()
        assert np.array_equal(run_detector(metrics, block=block), expected)

    def test_injection_scalar_path_matches(self):
        """Flags under an active injector equal clean flags (no fault
        seam lives in the detector)."""
        rng = np.random.default_rng(13)
        metrics = rng.uniform(0, 50, size=(80, 2))
        clean = run_detector(metrics)
        with inject_faults(FaultPlan(seed=0)):
            gated = run_detector(metrics)
        assert np.array_equal(gated, clean)
