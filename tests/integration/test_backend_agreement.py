"""Acceptance: both timing backends reach the paper's decisions.

The analytic model reproduces the decisions of the paper's Tables
II–V; the event-driven simulator is an independent timing engine, so
agreement here is the strongest evidence the framework's
recommendations are not an artifact of one model's simplifications.
The contract is *exact* decision agreement for every paper workload on
every board — timing may drift (the crosscheck report tracks it
against a tolerance), decisions may not.
"""

import pytest

from repro.apps import APPS
from repro.sim.crosscheck import DEFAULT_BOARDS, run_crosscheck

#: The verified paper decisions ((app, board) -> (model, zone)), from
#: the analytic reproduction of Tables II-V.
EXPECTED_DECISIONS = {
    ("shwfs", "nano"): ("keep current", 1),
    ("shwfs", "tx2"): ("keep current", 3),
    ("shwfs", "xavier"): ("ZC", 1),
    ("orbslam", "nano"): ("keep current", 3),
    ("orbslam", "tx2"): ("keep current", 3),
    ("orbslam", "xavier"): ("ZC (zone 2)", 2),
}


@pytest.fixture(scope="module")
def report():
    return run_crosscheck(boards=DEFAULT_BOARDS, apps=APPS)


def test_full_grid_covered(report):
    cells = {(d.app, d.board) for d in report.decisions}
    assert cells == {
        (app, board) for app in APPS for board in DEFAULT_BOARDS
    }


def test_decisions_identical_on_every_cell(report):
    mismatches = [
        f"{d.app}/{d.board}: analytic={d.analytic_decision} "
        f"(zone {d.analytic_zone}) simulated={d.simulated_decision} "
        f"(zone {d.simulated_zone})"
        for d in report.disagreements
    ]
    assert report.passed, "\n".join(mismatches)


def test_analytic_decisions_match_paper_tables(report):
    for decision in report.decisions:
        model, zone = EXPECTED_DECISIONS[(decision.app, decision.board)]
        assert decision.analytic_decision == model, (
            f"{decision.app}/{decision.board}"
        )
        assert decision.analytic_zone == zone, (
            f"{decision.app}/{decision.board}"
        )


def test_timing_deltas_within_tolerance(report):
    excursions = [
        f"{t.app}/{t.board}/{t.model}/{t.quantity}: {t.relative_error:.1%}"
        for t in report.excursions
    ]
    assert not excursions, "\n".join(excursions)


def test_every_model_compared_per_cell(report):
    # 3 communication models x 4 timing quantities per cell.
    per_cell = len(report.timings) / len(report.decisions)
    assert per_cell == 12
