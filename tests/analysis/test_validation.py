"""Reproduction scoring machinery."""

import pytest

from repro.analysis.validation import (
    ReproductionCheck,
    Verdict,
    _grade,
    _grade_sign,
    run_reproduction_checks,
    summarize,
)


R, M = Verdict.REPRODUCED, Verdict.MAGNITUDE

#: The verdict of every ``run_reproduction_checks`` row, by
#: (experiment, quantity): 20 reproduced, 6 magnitude-only.  A row may
#: improve, but none may vanish, appear or grade worse — a count gate
#: would miss one row gained while another is lost.
EXPECTED_VERDICTS = {
    ("Table I", "tx2 ZC throughput (GB/s)"): R,
    ("Table I", "tx2 SC throughput (GB/s)"): R,
    ("Table I", "tx2 UM throughput (GB/s)"): R,
    ("Table I", "xavier ZC throughput (GB/s)"): R,
    ("Table I", "xavier SC throughput (GB/s)"): R,
    ("Table I", "xavier UM throughput (GB/s)"): R,
    ("Fig 6", "TX2 GPU threshold (%)"): M,
    ("Fig 3", "Xavier GPU threshold (%)"): M,
    ("Fig 3", "Xavier zone-2 bound (%)"): M,
    ("Fig 7", "Xavier ZC vs SC (%)"): R,
    ("Fig 7", "Xavier ZC vs UM (%)"): R,
    ("Table II", "nano decision"): R,
    ("Table II", "nano kernel (us)"): R,
    ("Table III", "nano ZC vs SC (%)"): M,
    ("Table II", "tx2 decision"): R,
    ("Table II", "tx2 kernel (us)"): R,
    ("Table III", "tx2 ZC vs SC (%)"): R,
    ("Table II", "xavier decision"): R,
    ("Table II", "xavier kernel (us)"): M,
    ("Table III", "xavier ZC vs SC (%)"): R,
    ("Table IV", "tx2 zone"): R,
    ("Table IV", "tx2 kernel (us)"): R,
    ("Table V", "tx2 ZC vs SC (%)"): M,
    ("Table IV", "xavier zone"): R,
    ("Table IV", "xavier kernel (us)"): R,
    ("Table V", "xavier ZC vs SC (%)"): R,
}

#: Verdicts from best to worst.
_RANK = {Verdict.REPRODUCED: 0, Verdict.MAGNITUDE: 1, Verdict.DEVIATES: 2}


class TestGrading:
    def test_tight_match_reproduced(self):
        assert _grade(100.0, 104.0) is Verdict.REPRODUCED

    def test_loose_match_magnitude(self):
        assert _grade(100.0, 140.0) is Verdict.MAGNITUDE

    def test_far_off_deviates(self):
        assert _grade(100.0, 300.0) is Verdict.DEVIATES

    def test_zero_paper_value(self):
        assert _grade(0.0, 0.0) is Verdict.REPRODUCED
        assert _grade(0.0, 5.0) is Verdict.MAGNITUDE

    def test_sign_flip_deviates(self):
        assert _grade_sign(38.0, -10.0) is Verdict.DEVIATES
        assert _grade_sign(-67.0, 12.0) is Verdict.DEVIATES

    def test_same_sign_graded_by_error(self):
        assert _grade_sign(-5.0, -5.2) is Verdict.REPRODUCED
        assert _grade_sign(-744.0, -311.0) is Verdict.MAGNITUDE


class TestSummarize:
    def test_renders_score_line(self):
        checks = [
            ReproductionCheck("T", "a", 1.0, 1.0, Verdict.REPRODUCED),
            ReproductionCheck("T", "b", 1.0, 1.4, Verdict.MAGNITUDE),
        ]
        text = summarize(checks)
        assert "1/2 reproduced" in text
        assert "1 magnitude-only" in text
        assert "0 deviating" in text


class TestFullRun:
    @pytest.fixture(scope="class")
    def checks(self, characterization_suite):
        return run_reproduction_checks(characterization_suite)

    def test_covers_all_artefacts(self, checks):
        experiments = {c.experiment for c in checks}
        assert experiments >= {"Table I", "Fig 3", "Fig 6", "Fig 7",
                               "Table II", "Table III", "Table IV", "Table V"}

    def test_nothing_deviates(self, checks):
        assert all(c.verdict is not Verdict.DEVIATES for c in checks)

    def test_majority_reproduced(self, checks):
        reproduced = sum(c.verdict is Verdict.REPRODUCED for c in checks)
        assert reproduced / len(checks) >= 0.70

    def test_each_row_keeps_its_verdict(self, checks):
        measured = {(c.experiment, c.quantity): c.verdict for c in checks}
        assert len(measured) == len(checks), "duplicate row keys"
        assert set(measured) == set(EXPECTED_VERDICTS)
        worse = {
            key: (EXPECTED_VERDICTS[key].value, verdict.value)
            for key, verdict in measured.items()
            if _RANK[verdict] > _RANK[EXPECTED_VERDICTS[key]]
        }
        assert not worse, f"rows graded worse (expected, now): {worse}"

    def test_all_decisions_reproduce(self, checks):
        for check in checks:
            if check.quantity.endswith(" decision") or \
                    check.quantity.endswith(" zone"):
                assert check.verdict is Verdict.REPRODUCED, check
