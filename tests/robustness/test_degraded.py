"""Degraded-mode decision flow: strict vs absorbing behaviour."""

import math

import pytest

from repro.errors import MicrobenchmarkError, ModelError, ProfilingError
from repro.model.decision import (
    Confidence,
    RecommendedModel,
    decide,
    keep_current,
)
from repro.model.framework import Framework
from repro.resilience.retry import RetryPolicy
from repro.robustness.faults import FaultKind, FaultPlan, FaultSpec
from repro.robustness.inject import inject_faults

from tests.robustness.conftest import make_profile


class TestKeepCurrent:
    def test_shape(self, tx2_device):
        rec = keep_current("SC", "inputs were bad",
                           caveats=("X: y",), device=tx2_device)
        assert rec.model is RecommendedModel.KEEP_CURRENT
        assert rec.model is RecommendedModel.NO_CHANGE  # alias
        assert rec.zone is None
        assert rec.confidence is Confidence.LOW
        assert rec.degraded
        assert not rec.suggests_switch
        assert rec.caveats == ("X: y",)
        assert math.isnan(rec.cpu_cache_usage_pct)
        # thresholds still come from the device when available
        assert rec.cpu_threshold_pct == tx2_device.cpu_threshold_pct

    def test_without_device_thresholds_are_nan(self):
        rec = keep_current("ZC", "nothing worked")
        assert math.isnan(rec.cpu_threshold_pct)
        assert "ZC" in rec.reason


class TestDecide:
    def test_strict_raises_on_board_mismatch(self, tx2_device):
        profile = make_profile(board_name="xavier")
        with pytest.raises(ModelError) as excinfo:
            decide(profile, tx2_device, strict=True)
        assert excinfo.value.code == "MODEL_BOARD_MISMATCH"

    def test_non_strict_absorbs_into_keep_current(self, tx2_device):
        profile = make_profile(board_name="xavier")
        rec = decide(profile, tx2_device, strict=False)
        assert rec.degraded
        assert any("MODEL_BOARD_MISMATCH" in c for c in rec.caveats)

    def test_implausible_usage_raises_guard_code(self, tx2_device):
        # a mis-reported transaction count makes GPU usage impossible
        profile = make_profile(gpu_transactions=10_000_000_000)
        with pytest.raises(ModelError) as excinfo:
            decide(profile, tx2_device, strict=True)
        assert excinfo.value.code == "GUARD_CACHE_USAGE"
        assert excinfo.value.details["side"] == "gpu"

    def test_implausible_usage_absorbed_when_non_strict(self, tx2_device):
        profile = make_profile(gpu_transactions=10_000_000_000)
        rec = decide(profile, tx2_device, strict=False)
        assert rec.degraded
        assert any("GUARD_CACHE_USAGE" in c for c in rec.caveats)

    def test_clean_profile_keeps_high_confidence(self, tx2_device):
        rec = decide(make_profile(), tx2_device, strict=True)
        assert rec.confidence is Confidence.HIGH
        assert not rec.degraded
        assert rec.caveats == ()


class TestTuneDegraded:
    def test_strict_tune_raises_under_counter_fault(
            self, tx2_board, shwfs_workload_tx2, characterization_suite):
        plan = FaultPlan(seed=0, faults=(
            FaultSpec(FaultKind.COUNTER_NAN, target="kernel_runtime_s"),))
        framework = Framework(suite=characterization_suite)
        with inject_faults(plan):
            with pytest.raises(ProfilingError) as excinfo:
                framework.tune(shwfs_workload_tx2, tx2_board, strict=True)
        assert excinfo.value.code == "PROFILE_COUNTER_NONFINITE"

    def test_degraded_tune_absorbs_counter_fault(
            self, tx2_board, shwfs_workload_tx2, characterization_suite):
        plan = FaultPlan(seed=0, faults=(
            FaultSpec(FaultKind.COUNTER_NAN, target="kernel_runtime_s"),))
        framework = Framework(suite=characterization_suite)
        with inject_faults(plan):
            report = framework.tune(shwfs_workload_tx2, tx2_board,
                                    strict=False)
        assert report.degraded
        rec = report.recommendation
        assert rec.model is RecommendedModel.KEEP_CURRENT
        assert rec.confidence is Confidence.LOW
        assert any("PROFILE_COUNTER_NONFINITE" in c for c in rec.caveats)
        assert report.profile is None
        assert math.isnan(report.kernel_time_s)

    def test_degraded_tune_absorbs_misreport_via_guard(
            self, tx2_board, shwfs_workload_tx2, characterization_suite):
        plan = FaultPlan(seed=0, faults=(
            FaultSpec(FaultKind.CACHE_MISREPORT, magnitude=80.0),))
        framework = Framework(suite=characterization_suite)
        with inject_faults(plan):
            report = framework.tune(shwfs_workload_tx2, tx2_board,
                                    strict=False)
        assert report.degraded
        assert any("GUARD_CACHE_USAGE" in c
                   for c in report.recommendation.caveats)

    def test_clean_tune_identical_in_both_modes(
            self, tx2_board, shwfs_workload_tx2, characterization_suite):
        framework = Framework(suite=characterization_suite)
        strict = framework.tune(shwfs_workload_tx2, tx2_board, strict=True)
        relaxed = framework.tune(shwfs_workload_tx2, tx2_board, strict=False)
        assert strict.recommendation == relaxed.recommendation
        assert not relaxed.degraded

    def test_degraded_tune_never_raises_under_standard_plan(
            self, tx2_board, shwfs_workload_tx2, characterization_suite):
        framework = Framework(suite=characterization_suite)
        with inject_faults(FaultPlan.standard(seed=123)):
            report = framework.tune(shwfs_workload_tx2, tx2_board,
                                    strict=False)
        assert report.recommendation is not None

    def test_unknown_current_model_code(
            self, tx2_board, shwfs_workload_tx2, characterization_suite):
        framework = Framework(suite=characterization_suite)
        with pytest.raises(ModelError) as excinfo:
            framework.tune(shwfs_workload_tx2, tx2_board,
                           current_model="DMA")
        assert excinfo.value.code == "MODEL_UNKNOWN"


class TestCharacterizeRetries:
    def test_no_retry_budget_preserves_raw_error(self, tx2_board,
                                                 monkeypatch):
        from repro.microbench.suite import MicrobenchmarkSuite

        suite = MicrobenchmarkSuite()
        monkeypatch.setattr(
            suite, "_characterize_once",
            lambda board: (_ for _ in ()).throw(
                MicrobenchmarkError("sweep failed",
                                    code="MICROBENCH_FAILED")),
        )
        with pytest.raises(MicrobenchmarkError) as excinfo:
            suite.characterize(
                tx2_board, retry_policy=RetryPolicy.from_attempts(0))
        assert excinfo.value.code == "MICROBENCH_FAILED"

    def test_exhausted_retries_annotated(self, tx2_board, monkeypatch):
        from repro.microbench.suite import MicrobenchmarkSuite

        suite = MicrobenchmarkSuite()
        calls = []

        def failing(board):
            calls.append(board.name)
            raise MicrobenchmarkError("sweep failed",
                                      code="MICROBENCH_FAILED")

        monkeypatch.setattr(suite, "_characterize_once", failing)
        with pytest.raises(MicrobenchmarkError) as excinfo:
            suite.characterize(
                tx2_board, retry_policy=RetryPolicy.from_attempts(2))
        assert excinfo.value.code == "MICROBENCH_RETRIES_EXHAUSTED"
        assert excinfo.value.details["attempts"] == 3
        assert excinfo.value.details["last_error"]["code"] == "MICROBENCH_FAILED"
        assert len(calls) == 3

    def test_retry_recovers_from_transient_failure(self, tx2_board,
                                                   monkeypatch):
        from repro.microbench.suite import MicrobenchmarkSuite

        suite = MicrobenchmarkSuite()
        real = suite._characterize_once
        attempts = []

        def flaky(board):
            attempts.append(board.name)
            if len(attempts) == 1:
                raise MicrobenchmarkError("transient",
                                          code="MICROBENCH_FAILED")
            return real(board)

        monkeypatch.setattr(suite, "_characterize_once", flaky)
        device = suite.characterize(
                tx2_board, retry_policy=RetryPolicy.from_attempts(2))
        assert device.board_name == tx2_board.name
        assert len(attempts) == 2
