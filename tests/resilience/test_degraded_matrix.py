"""The (fault seam × strict × retry budget) robustness matrix.

Every cell asserts the same contract: strict mode aborts with a
structured ``ReproError`` (a machine-readable SCREAMING_SNAKE code),
degraded mode answers with a deterministic conservative
``KEEP_CURRENT`` whose caveats carry the codes — and running the same
cell twice yields the identical answer.
"""

import re

import pytest

from repro.errors import MicrobenchmarkError, ReproError
from repro.microbench.suite import MicrobenchmarkSuite
from repro.model.decision import Confidence, RecommendedModel
from repro.model.framework import Framework
from repro.resilience.retry import RetryPolicy
from repro.robustness.faults import FaultKind, FaultPlan, FaultSpec
from repro.robustness.inject import inject_faults
from repro.soc.board import get_board

CODE_RE = re.compile(r"\b[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+\b")

STRICTS = (True, False)
RETRIES = (0, 2)


@pytest.fixture(scope="module")
def tx2_board():
    return get_board("tx2")


@pytest.fixture(scope="module")
def warm_suite(tx2_board):
    """A suite whose characterization is already in the memory cache,
    so injected faults hit only the downstream seams."""
    suite = MicrobenchmarkSuite()
    suite.characterize(tx2_board)
    return suite


@pytest.fixture(scope="module")
def tx2_profile(warm_suite, shwfs_workload_tx2, tx2_board):
    """Measured SC counters of SHWFS on the TX2 (a retune's input)."""
    return Framework(suite=warm_suite).profile(shwfs_workload_tx2, tx2_board)


def _coded(caveats):
    return [code for caveat in caveats for code in CODE_RE.findall(caveat)]


def _run_with_broken_characterize(shwfs_workload_tx2, tx2_board, strict,
                                  retries, monkeypatch):
    """Seam 1: characterization always dies with a structured error."""
    suite = MicrobenchmarkSuite()

    def broken(board):
        raise MicrobenchmarkError("sweep never converged",
                                  code="MICROBENCH_FAILED")

    monkeypatch.setattr(suite, "_characterize_once", broken)
    framework = Framework(suite=suite,
                          retry_policy=RetryPolicy.from_attempts(retries))
    return framework.tune(shwfs_workload_tx2, tx2_board, strict=strict)


def _run_with_fault(warm_suite, shwfs_workload_tx2, tx2_board, strict,
                    retries, kind):
    """Seams 2-3: a deterministic profiling/decision-input fault."""
    framework = Framework(suite=warm_suite,
                          retry_policy=RetryPolicy.from_attempts(retries))
    plan = FaultPlan(seed=0, faults=(FaultSpec(kind, probability=1.0),))
    with inject_faults(plan):
        return framework.tune(shwfs_workload_tx2, tx2_board, strict=strict)


class TestCharacterizeSeam:
    @pytest.mark.parametrize("strict", STRICTS)
    @pytest.mark.parametrize("retries", RETRIES)
    def test_matrix_cell(self, strict, retries, shwfs_workload_tx2,
                         tx2_board, monkeypatch):
        if strict:
            with pytest.raises(ReproError) as exc:
                _run_with_broken_characterize(
                    shwfs_workload_tx2, tx2_board, strict, retries,
                    monkeypatch)
            assert CODE_RE.fullmatch(exc.value.code)
            return
        report = _run_with_broken_characterize(
            shwfs_workload_tx2, tx2_board, strict, retries, monkeypatch)
        rec = report.recommendation
        assert rec.model is RecommendedModel.KEEP_CURRENT
        assert rec.confidence is Confidence.LOW
        codes = _coded(rec.caveats)
        expected = ("MICROBENCH_RETRIES_EXHAUSTED" if retries
                    else "MICROBENCH_FAILED")
        assert expected in codes

    @pytest.mark.parametrize("retries", RETRIES)
    def test_degraded_answer_is_deterministic(self, retries,
                                              shwfs_workload_tx2, tx2_board,
                                              monkeypatch):
        runs = [
            _run_with_broken_characterize(
                shwfs_workload_tx2, tx2_board, False, retries, monkeypatch)
            for _ in range(2)
        ]
        first, second = (r.recommendation for r in runs)
        assert first.model is second.model is RecommendedModel.KEEP_CURRENT
        assert first.caveats == second.caveats
        assert first.reason == second.reason


@pytest.mark.fault
@pytest.mark.parametrize("kind,expected_prefix", [
    (FaultKind.COUNTER_NAN, "PROFILE_"),
    (FaultKind.CACHE_MISREPORT, None),  # any structured code qualifies
])
@pytest.mark.parametrize("strict", STRICTS)
@pytest.mark.parametrize("retries", RETRIES)
class TestInjectedSeams:
    def test_matrix_cell(self, kind, expected_prefix, strict, retries,
                         warm_suite, shwfs_workload_tx2, tx2_board):
        def run():
            return _run_with_fault(warm_suite, shwfs_workload_tx2,
                                   tx2_board, strict, retries, kind)

        if strict:
            try:
                first = run()
            except ReproError as error:
                assert CODE_RE.fullmatch(error.code)
                if expected_prefix:
                    assert error.code.startswith(expected_prefix)
                # determinism: the second run fails identically
                with pytest.raises(ReproError) as exc:
                    run()
                assert exc.value.code == error.code
                return
            # the fault was absorbed as tolerable noise — the decision
            # must still be deterministic and fully confident
            second = run()
            assert first.recommendation.model is second.recommendation.model
            return
        first, second = run(), run()
        rec = first.recommendation
        if rec.degraded:
            assert rec.model is RecommendedModel.KEEP_CURRENT
            assert rec.confidence is Confidence.LOW
            codes = _coded(rec.caveats)
            assert codes, rec.caveats
            if expected_prefix:
                assert any(code.startswith(expected_prefix)
                           for code in codes)
        assert rec.model is second.recommendation.model
        assert rec.caveats == second.recommendation.caveats


@pytest.mark.fault
@pytest.mark.parametrize("entry", ["tune", "retune"])
class TestDegradedRetryBudget:
    """Degraded ``tune`` and ``retune`` share one error policy, so both
    characterize under the ``DEGRADED_CHARACTERIZE_RETRIES`` budget."""

    def _answer(self, entry, failures, shwfs_workload_tx2, tx2_board,
                tx2_profile, monkeypatch):
        suite = MicrobenchmarkSuite()
        real = suite._characterize_once
        attempts = []

        def flaky(board):
            attempts.append(board.name)
            if len(attempts) <= failures:
                raise MicrobenchmarkError("sweep never converged",
                                          code="MICROBENCH_FAILED")
            return real(board)

        monkeypatch.setattr(suite, "_characterize_once", flaky)
        framework = Framework(suite=suite)
        if entry == "tune":
            report = framework.tune(shwfs_workload_tx2, tx2_board,
                                    strict=False)
        else:
            report = framework.retune(tx2_profile, board=tx2_board,
                                      strict=False)
        return report, len(attempts)

    def test_transient_failure_recovers(self, entry, shwfs_workload_tx2,
                                        tx2_board, tx2_profile, monkeypatch):
        report, attempts = self._answer(entry, 1, shwfs_workload_tx2,
                                        tx2_board, tx2_profile, monkeypatch)
        assert not report.degraded
        assert attempts == 2

    def test_exhausted_budget_is_coded(self, entry, shwfs_workload_tx2,
                                       tx2_board, tx2_profile, monkeypatch):
        budget = Framework.DEGRADED_CHARACTERIZE_RETRIES + 1
        report, attempts = self._answer(entry, budget, shwfs_workload_tx2,
                                        tx2_board, tx2_profile, monkeypatch)
        assert report.recommendation.model is RecommendedModel.KEEP_CURRENT
        assert "MICROBENCH_RETRIES_EXHAUSTED" in _coded(
            report.recommendation.caveats)
        assert attempts == budget
