"""Programmatic reproduction scoring.

Regenerates the headline quantities of every paper artefact, compares
them against :data:`repro.analysis.tables.PAPER_REFERENCE`, and grades
each as

- ``reproduced``  — measured within the expected band;
- ``magnitude``   — right shape/sign, magnitude off (documented);
- ``deviates``    — disagrees with the paper (documented deviation).

The EXPERIMENTS.md tables are the human-readable rendering of exactly
these checks; ``benchmarks/bench_reproduction_summary.py`` archives the
machine-generated version so the two can never drift silently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.tables import Table, paper_speedup_pct, reference
from repro.apps.orbslam import OrbPipeline
from repro.apps.shwfs import ShwfsPipeline
from repro.comm.base import get_model
from repro.microbench.suite import MicrobenchmarkSuite
from repro.model.decision import RecommendedModel, Zone
from repro.model.framework import Framework
from repro.soc.board import get_board
from repro.units import to_gbps, to_us


class Verdict(enum.Enum):
    """Grade of one reproduction check."""

    REPRODUCED = "reproduced"
    MAGNITUDE = "magnitude"
    DEVIATES = "deviates"


@dataclass(frozen=True)
class ReproductionCheck:
    """One paper quantity versus its measured counterpart."""

    experiment: str
    quantity: str
    paper: Optional[float]
    measured: Optional[float]
    verdict: Verdict
    note: str = ""


def _grade(paper: float, measured: float, tight: float = 0.10,
           loose: float = 0.60) -> Verdict:
    """Relative-error grading."""
    if paper == 0:
        return Verdict.REPRODUCED if abs(measured) < 1e-9 else Verdict.MAGNITUDE
    error = abs(measured - paper) / abs(paper)
    if error <= tight:
        return Verdict.REPRODUCED
    if error <= loose:
        return Verdict.MAGNITUDE
    return Verdict.DEVIATES


def _grade_sign(paper: float, measured: float) -> Verdict:
    """Sign-first grading for speedups."""
    if (paper >= 0) != (measured >= 0):
        return Verdict.DEVIATES
    return _grade(paper, measured, tight=0.25, loose=1.5)


def run_reproduction_checks(
    suite: Optional[MicrobenchmarkSuite] = None,
) -> List[ReproductionCheck]:
    """Recompute and grade every headline quantity."""
    framework = Framework(suite=suite)
    checks: List[ReproductionCheck] = []

    # --- Table I -------------------------------------------------------
    table1 = reference("table1")
    for board_name in ("tx2", "xavier"):
        device = framework.characterize(get_board(board_name))
        for model in ("ZC", "SC", "UM"):
            paper = table1[board_name][model]
            measured = to_gbps(device.gpu_cache_throughput[model])
            checks.append(
                ReproductionCheck(
                    experiment="Table I",
                    quantity=f"{board_name} {model} throughput (GB/s)",
                    paper=paper,
                    measured=measured,
                    verdict=_grade(paper, measured),
                )
            )

    # --- Figs 3 / 6 thresholds ------------------------------------------
    tx2 = framework.characterize(get_board("tx2"))
    xavier = framework.characterize(get_board("xavier"))
    checks.append(
        ReproductionCheck(
            "Fig 6", "TX2 GPU threshold (%)",
            reference("fig6")["threshold_pct"], tx2.gpu_threshold_pct,
            _grade(reference("fig6")["threshold_pct"], tx2.gpu_threshold_pct),
            note="knee location tracks the ZC/SC bandwidth ratio",
        )
    )
    fig3 = reference("fig3")
    checks.append(
        ReproductionCheck(
            "Fig 3", "Xavier GPU threshold (%)",
            fig3["threshold_pct"], xavier.gpu_threshold_pct,
            _grade(fig3["threshold_pct"], xavier.gpu_threshold_pct),
        )
    )
    checks.append(
        ReproductionCheck(
            "Fig 3", "Xavier zone-2 bound (%)",
            fig3["zone2_pct"], xavier.gpu_zone2_pct,
            _grade(fig3["zone2_pct"], xavier.gpu_zone2_pct),
        )
    )

    # --- Fig 7 ----------------------------------------------------------
    raw = framework.suite.raw_results(get_board("xavier"))
    fig7 = reference("fig7")
    checks.append(
        ReproductionCheck(
            "Fig 7", "Xavier ZC vs SC (%)",
            fig7["zc_vs_sc_pct"], raw.third.zc_faster_than("SC"),
            _grade_sign(fig7["zc_vs_sc_pct"], raw.third.zc_faster_than("SC")),
        )
    )
    checks.append(
        ReproductionCheck(
            "Fig 7", "Xavier ZC vs UM (%)",
            fig7["zc_vs_um_pct"], raw.third.zc_faster_than("UM"),
            _grade_sign(fig7["zc_vs_um_pct"], raw.third.zc_faster_than("UM")),
        )
    )

    # --- SH-WFS ----------------------------------------------------------
    shwfs = ShwfsPipeline()
    table2 = reference("table2")["rows"]
    table3 = reference("table3")["rows"]
    expected_models = {
        "nano": RecommendedModel.NO_CHANGE,
        "tx2": RecommendedModel.NO_CHANGE,
        "xavier": RecommendedModel.ZERO_COPY,
    }
    for board_name in ("nano", "tx2", "xavier"):
        report = shwfs.tune(framework, get_board(board_name))
        decision_ok = report.recommendation.model is expected_models[board_name]
        checks.append(
            ReproductionCheck(
                "Table II", f"{board_name} decision",
                None, None,
                Verdict.REPRODUCED if decision_ok else Verdict.DEVIATES,
                note=f"recommended {report.recommendation.model.value}",
            )
        )
        paper_kernel = table2[board_name]["kernel_us"]
        checks.append(
            ReproductionCheck(
                "Table II", f"{board_name} kernel (us)",
                paper_kernel, to_us(report.kernel_time_s),
                _grade(paper_kernel, to_us(report.kernel_time_s)),
            )
        )
        results = framework.compare_models(
            shwfs.workload(board_name=board_name), get_board(board_name)
        )
        paper_speedup = table3[board_name]["zc_speedup_pct"]
        measured_speedup = paper_speedup_pct(
            results["SC"].time_per_iteration_s,
            results["ZC"].time_per_iteration_s,
        )
        checks.append(
            ReproductionCheck(
                "Table III", f"{board_name} ZC vs SC (%)",
                paper_speedup, measured_speedup,
                _grade_sign(paper_speedup, measured_speedup),
            )
        )

    # --- ORB -------------------------------------------------------------
    orb = OrbPipeline()
    table4 = reference("table4")["rows"]
    table5 = reference("table5")["rows"]
    expected_zone = {"tx2": Zone.BOTTLENECKED, "xavier": Zone.CONDITIONAL}
    for board_name in ("tx2", "xavier"):
        report = orb.tune(framework, get_board(board_name))
        zone_ok = report.recommendation.zone is expected_zone[board_name]
        checks.append(
            ReproductionCheck(
                "Table IV", f"{board_name} zone",
                float(3 if board_name == "tx2" else 2),
                float(int(report.recommendation.zone)),
                Verdict.REPRODUCED if zone_ok else Verdict.DEVIATES,
            )
        )
        paper_kernel = table4[board_name]["kernel_us"]
        checks.append(
            ReproductionCheck(
                "Table IV", f"{board_name} kernel (us)",
                paper_kernel, to_us(report.kernel_time_s),
                _grade(paper_kernel, to_us(report.kernel_time_s)),
            )
        )
        results = framework.compare_models(
            orb.workload(board_name=board_name), get_board(board_name)
        )
        paper_speedup = table5[board_name]["zc_speedup_pct"]
        measured_speedup = paper_speedup_pct(
            results["SC"].total_time_s, results["ZC"].total_time_s
        )
        verdict = (_grade_sign(paper_speedup, measured_speedup)
                   if paper_speedup != 0.0
                   else (Verdict.REPRODUCED if abs(measured_speedup) < 25.0
                         else Verdict.MAGNITUDE))
        checks.append(
            ReproductionCheck(
                "Table V", f"{board_name} ZC vs SC (%)",
                paper_speedup, measured_speedup, verdict,
            )
        )

    return checks


def summarize(checks: List[ReproductionCheck]) -> str:
    """Render the checks plus an aggregate score line."""
    table = Table(
        "Reproduction summary (paper vs measured)",
        ["experiment", "quantity", "paper", "measured", "verdict", "note"],
    )
    tally: Dict[Verdict, int] = {v: 0 for v in Verdict}
    for check in checks:
        tally[check.verdict] += 1
        table.add_row(
            check.experiment,
            check.quantity,
            "-" if check.paper is None else check.paper,
            "-" if check.measured is None else check.measured,
            check.verdict.value,
            check.note,
        )
    total = len(checks)
    score = (
        f"\n{tally[Verdict.REPRODUCED]}/{total} reproduced, "
        f"{tally[Verdict.MAGNITUDE]} magnitude-only, "
        f"{tally[Verdict.DEVIATES]} deviating"
    )
    return table.render() + score
