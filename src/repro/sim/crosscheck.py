"""Cross-validation of the analytic and event-driven timing backends.

:func:`run_crosscheck` drives both backends through the full paper
workflow — characterize, tune, and measure every communication model —
over the bundled workloads and boards, and reduces the outcome to:

- **decision agreement** (the contract): the tune recommendation and
  decision zone must match exactly per (workload, board).  The paper's
  Tables II–V decisions are the analytic model's output; the simulator
  must land on the same ones or it is modelling a different machine.
- **timing deltas** (the diagnosis): per-model relative error of every
  measured time (iteration, CPU, kernel, copy).  These legitimately
  differ — the simulator sees row-buffer mixes and PLRU evictions the
  closed form abstracts away — so they are reported against a
  *tolerance* rather than required to be zero, and an excursion only
  flags the row; the report still passes as long as decisions agree.

``repro crosscheck`` renders the report and exits ``6`` on any
decision disagreement, which is how CI pins backend equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.apps import APPS, build_workload
from repro.errors import ConfigurationError
from repro.sim.backend import AnalyticBackend, SimulatedBackend
from repro.sim.config import SimConfig

#: Default relative-error tolerance for timing rows.  Generous by
#: design: the backends share bandwidth calibration but not replacement
#: policy or DRAM modelling, and the decision thresholds tolerate far
#: more than this.
DEFAULT_TOLERANCE = 0.35

#: The paper's evaluation boards (Tables II–V); its apps are
#: :data:`repro.apps.APPS`.
DEFAULT_BOARDS = ("nano", "tx2", "xavier")

#: The timing components compared per communication model.
_TIMING_FIELDS = (
    "time_per_iteration_s",
    "cpu_time_s",
    "kernel_time_s",
    "copy_time_s",
)


@dataclass(frozen=True)
class DecisionCheck:
    """Tune-decision agreement for one (workload, board) cell."""

    app: str
    board: str
    analytic_decision: str
    simulated_decision: str
    analytic_zone: Optional[int]
    simulated_zone: Optional[int]

    @property
    def agree(self) -> bool:
        """Exact agreement of recommendation and zone."""
        return (
            self.analytic_decision == self.simulated_decision
            and self.analytic_zone == self.simulated_zone
        )


@dataclass(frozen=True)
class TimingDelta:
    """One timing quantity under both backends."""

    app: str
    board: str
    model: str
    quantity: str
    analytic_s: float
    simulated_s: float

    @property
    def relative_error(self) -> float:
        """``|simulated - analytic| / analytic`` (0 when both idle)."""
        if self.analytic_s == 0.0:
            return 0.0 if self.simulated_s == 0.0 else float("inf")
        return abs(self.simulated_s - self.analytic_s) / self.analytic_s


@dataclass
class CrosscheckReport:
    """Everything the cross-check measured, plus the verdict."""

    tolerance: float
    decisions: List[DecisionCheck] = field(default_factory=list)
    timings: List[TimingDelta] = field(default_factory=list)

    @property
    def disagreements(self) -> List[DecisionCheck]:
        """Decision cells where the backends diverge."""
        return [d for d in self.decisions if not d.agree]

    @property
    def passed(self) -> bool:
        """The contract: every decision cell agrees exactly."""
        return not self.disagreements

    @property
    def excursions(self) -> List[TimingDelta]:
        """Timing rows outside the tolerance (diagnostic only)."""
        return [t for t in self.timings if t.relative_error > self.tolerance]

    @property
    def max_relative_error(self) -> float:
        """Largest timing deviation observed."""
        if not self.timings:
            return 0.0
        return max(t.relative_error for t in self.timings)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (the ``--json`` artifact)."""
        return {
            "passed": self.passed,
            "tolerance": self.tolerance,
            "max_relative_error": self.max_relative_error,
            "decisions": [
                {
                    "app": d.app,
                    "board": d.board,
                    "analytic": d.analytic_decision,
                    "simulated": d.simulated_decision,
                    "analytic_zone": d.analytic_zone,
                    "simulated_zone": d.simulated_zone,
                    "agree": d.agree,
                }
                for d in self.decisions
            ],
            "timings": [
                {
                    "app": t.app,
                    "board": t.board,
                    "model": t.model,
                    "quantity": t.quantity,
                    "analytic_s": t.analytic_s,
                    "simulated_s": t.simulated_s,
                    "relative_error": t.relative_error,
                }
                for t in self.timings
            ],
        }

    def render(self) -> str:
        """Stable human-readable report."""
        lines = ["Backend cross-check — analytic vs simulated", ""]
        lines.append("Decisions (must agree exactly):")
        for d in self.decisions:
            mark = "OK " if d.agree else "DIFF"
            zone_a = "-" if d.analytic_zone is None else str(d.analytic_zone)
            zone_s = "-" if d.simulated_zone is None else str(d.simulated_zone)
            lines.append(
                f"  [{mark}] {d.app:<8s} {d.board:<7s} "
                f"analytic={d.analytic_decision} (zone {zone_a})  "
                f"simulated={d.simulated_decision} (zone {zone_s})"
            )
        lines.append("")
        lines.append(
            f"Timings (relative error, tolerance {self.tolerance:.0%}):"
        )
        for t in self.timings:
            flag = "!" if t.relative_error > self.tolerance else " "
            lines.append(
                f"  {flag} {t.app:<8s} {t.board:<7s} {t.model:<3s} "
                f"{t.quantity:<23s} analytic={t.analytic_s * 1e6:10.2f}us  "
                f"simulated={t.simulated_s * 1e6:10.2f}us  "
                f"err={t.relative_error:6.1%}"
            )
        lines.append("")
        lines.append(
            f"max relative error: {self.max_relative_error:.1%}; "
            f"{len(self.excursions)} timing excursion(s) past tolerance"
        )
        lines.append(
            "PASS — all decisions agree"
            if self.passed
            else f"FAIL — {len(self.disagreements)} decision disagreement(s)"
        )
        return "\n".join(lines)


def run_crosscheck(
    boards: Sequence[str] = DEFAULT_BOARDS,
    apps: Sequence[str] = APPS,
    tolerance: float = DEFAULT_TOLERANCE,
    sim_config: Optional[SimConfig] = None,
    current_model: str = "SC",
) -> CrosscheckReport:
    """Run both backends over the paper grid and compare.

    Both backends run the complete flow — suite characterization, the
    Fig-2 tune, and a three-model validation measurement — on fresh
    in-memory frameworks (no persistent cache, so the comparison can
    never be satisfied by stale entries).
    """
    from repro.model.framework import Framework
    from repro.soc.board import get_board

    if tolerance <= 0:
        raise ConfigurationError("crosscheck tolerance must be positive")
    frameworks = {
        "analytic": Framework(backend=AnalyticBackend()),
        "simulated": Framework(
            backend=SimulatedBackend(config=sim_config or SimConfig())
        ),
    }
    report = CrosscheckReport(tolerance=tolerance)
    with obs.span("sim.crosscheck", boards=len(boards), apps=len(apps)):
        for app in apps:
            for board_name in boards:
                board = get_board(board_name)
                tunes: Dict[str, object] = {}
                comparisons: Dict[str, Dict[str, object]] = {}
                for name, framework in frameworks.items():
                    workload = build_workload(app)
                    tunes[name] = framework.tune(
                        workload, board, current_model=current_model
                    )
                    comparisons[name] = framework.compare_models(
                        workload, board
                    )
                rec_a = tunes["analytic"].recommendation
                rec_s = tunes["simulated"].recommendation
                report.decisions.append(
                    DecisionCheck(
                        app=app,
                        board=board_name,
                        analytic_decision=rec_a.model.value,
                        simulated_decision=rec_s.model.value,
                        analytic_zone=(
                            int(rec_a.zone) if rec_a.zone is not None else None
                        ),
                        simulated_zone=(
                            int(rec_s.zone) if rec_s.zone is not None else None
                        ),
                    )
                )
                for model, run_a in comparisons["analytic"].items():
                    run_s = comparisons["simulated"][model]
                    for quantity in _TIMING_FIELDS:
                        report.timings.append(
                            TimingDelta(
                                app=app,
                                board=board_name,
                                model=model,
                                quantity=quantity,
                                analytic_s=getattr(run_a, quantity),
                                simulated_s=getattr(run_s, quantity),
                            )
                        )
        obs.counter_inc("sim.crosscheck.cells", len(report.decisions))
        if not report.passed:
            obs.counter_inc(
                "sim.crosscheck.disagreements", len(report.disagreements)
            )
    return report
