"""Full-pipeline chaos harness (``repro chaos`` on the CLI).

The fuzz tests of PR 1 established a per-seed contract for *one* tune
call; this module scales that to a soak: a batch of deterministically
generated **chaos schedules**, each a complete ``tune_many`` grid run
under a seeded :class:`~repro.robustness.faults.FaultPlan` (including
the timing faults — injected stage delays and hangs) combined with a
randomly drawn resilience configuration (strict flag, deadline budget,
retry budget, circuit breakers).

Every schedule must end in a *recognized, accounted* state:

- ``clean`` — no fault fired and the run completed at full confidence;
- ``recovered`` — faults fired, yet every report completed at full
  confidence (retries re-ran the noise away, or the perturbation was
  absorbed);
- ``degraded`` — strict=False and at least one report fell back to a
  conservative ``KEEP_CURRENT``; each such report must carry
  machine-readable coded caveats;
- ``error`` — strict=True and the run aborted with a structured
  :class:`~repro.errors.ReproError` (``DEADLINE_EXCEEDED``,
  ``BREAKER_OPEN``, ``GUARD_*``, ``MICROBENCH_*``, ...).

Anything else is a **violation**: an uncoded exception escaping, a
degraded answer without coded caveats, a run overshooting its deadline
budget past the cooperative grace, a schedule exceeding the hard
wall-clock cap (a hang), or the post-run clean guard validation
failing (fault state leaked past the injection scope).

Determinism: schedule ``i`` of ``run_chaos(seed=s)`` is a pure
function of ``(s, i)``, and so is its classification.  The deadline
and the circuit breakers of a schedule read a :class:`LogicalClock`
seeded by ``(s, i)`` that advances on every reading instead of with
the wall clock, so whether a budget expires mid-run does not depend on
how fast the host is.  ``wall_s``, the hang cap and the
deadline-overshoot check stay on wall time.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.apps import APPS, build_workload
from repro.errors import ReproError
from repro.resilience.breaker import BreakerRegistry
from repro.resilience.deadline import Deadline, deadline_scope
from repro.resilience.retry import RetryPolicy

#: A caveat is "coded" when it carries a SCREAMING_SNAKE error code.
_CODE_RE = re.compile(r"\b[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+\b")

#: Hard per-schedule wall-clock cap — any schedule slower than this is
#: classified as a hang regardless of its other outcomes.
HANG_CAP_S = 30.0

#: Mean logical seconds one clock reading advances a schedule's
#: clock.  A tune_many run reads it ~10–30 times (its checkpoints) and
#: takes ~1–2 s of wall time on a 2-vCPU host, so logical budgets
#: expire at about the stage they would expire at in real time.
LOGICAL_STEP_S = 0.1

#: Cooperative-deadline grace: the longest non-checkpointed stretch a
#: bounded run may overshoot its budget by (one micro-benchmark or one
#: hang-fault tick loop), padded for noisy shared hosts — a loaded CI
#: runner can double every stretch, and the point of this check is
#: catching unbounded blocking, not scheduling jitter.
DEADLINE_GRACE_S = 5.0


class LogicalClock:
    """A seeded stand-in for ``time.monotonic`` that ticks per reading.

    Each call advances the clock by a step drawn uniformly from
    ``[0.5, 1.5] * LOGICAL_STEP_S`` and returns the new time.  The
    pipeline reads its deadline's clock at every checkpoint, so elapsed
    time is a pure function of the seed and of the checkpoints passed.
    """

    def __init__(self, seed: str) -> None:
        self._rng = random.Random(seed)
        self._now = 0.0

    def __call__(self) -> float:
        self._now += self._rng.uniform(0.5, 1.5) * LOGICAL_STEP_S
        return self._now


@dataclass(frozen=True)
class ChaosSchedule:
    """One deterministically generated soak iteration."""

    index: int
    seed: int
    apps: Tuple[str, ...]
    board_name: str
    strict: bool
    deadline_s: Optional[float]
    retry_attempts: int
    breaker_threshold: Optional[int]
    fault_seed: int
    max_faults: int

    def describe(self) -> str:
        parts = [
            f"#{self.index}",
            f"apps={'+'.join(self.apps)}",
            f"board={self.board_name}",
            "strict" if self.strict else "degraded",
            f"deadline={self.deadline_s:g}s" if self.deadline_s else
            "no-deadline",
            f"retries={self.retry_attempts - 1}",
            f"breaker={self.breaker_threshold}" if self.breaker_threshold
            else "no-breaker",
            f"fault_seed={self.fault_seed}",
        ]
        return " ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "seed": self.seed,
            "apps": list(self.apps),
            "board": self.board_name,
            "strict": self.strict,
            "deadline_s": self.deadline_s,
            "retry_attempts": self.retry_attempts,
            "breaker_threshold": self.breaker_threshold,
            "fault_seed": self.fault_seed,
            "max_faults": self.max_faults,
        }


@dataclass
class ChaosOutcome:
    """What one schedule actually did."""

    schedule: ChaosSchedule
    status: str  # clean | recovered | degraded | error
    wall_s: float
    faults_fired: Dict[str, int] = field(default_factory=dict)
    error_code: Optional[str] = None
    degraded_reports: int = 0
    total_reports: int = 0
    caveat_codes: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schedule": self.schedule.to_dict(),
            "status": self.status,
            "wall_s": self.wall_s,
            "faults_fired": dict(self.faults_fired),
            "error_code": self.error_code,
            "degraded_reports": self.degraded_reports,
            "total_reports": self.total_reports,
            "caveat_codes": list(self.caveat_codes),
            "violations": list(self.violations),
        }


@dataclass
class ChaosReport:
    """The soak's aggregate verdict."""

    seed: int
    outcomes: List[ChaosOutcome]

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes)

    @property
    def violations(self) -> List[str]:
        return [
            f"schedule {o.schedule.index}: {violation}"
            for o in self.outcomes for violation in o.violations
        ]

    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    def render(self) -> str:
        lines = [
            f"chaos soak — {len(self.outcomes)} schedule(s), seed {self.seed}"
        ]
        for outcome in self.outcomes:
            fired = sum(outcome.faults_fired.values())
            detail = f"{outcome.status}, {fired} fault(s) fired"
            if outcome.error_code:
                detail += f", error={outcome.error_code}"
            if outcome.degraded_reports:
                detail += (f", {outcome.degraded_reports}/"
                           f"{outcome.total_reports} degraded")
            marker = "ok " if outcome.passed else "BAD"
            lines.append(f"  [{marker}] {outcome.schedule.describe()} "
                         f"-> {detail} ({outcome.wall_s:.2f}s)")
        counts = ", ".join(f"{status}: {count}" for status, count in
                           sorted(self.status_counts().items()))
        lines.append(f"outcomes — {counts}")
        if self.passed:
            lines.append("all schedules accounted for: no guard "
                         "violations, no uncoded failures, no hangs")
        else:
            lines.append(f"{len(self.violations)} violation(s):")
            lines.extend(f"  {violation}" for violation in self.violations)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "status_counts": self.status_counts(),
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
            "violations": self.violations,
        }


def build_schedule(seed: int, index: int,
                   apps: Sequence[str] = APPS,
                   boards: Optional[Sequence[str]] = None,
                   deadline_s: Optional[float] = None) -> ChaosSchedule:
    """Draw schedule ``index`` of soak ``seed`` (a pure function)."""
    from repro.soc.board import available_boards

    rng = random.Random(f"repro-chaos:{seed}:{index}")
    boards = list(boards) if boards else list(available_boards())
    count = rng.randint(1, min(2, len(apps)))
    chosen = tuple(rng.sample(list(apps), count))
    # Mix bounded and unbounded runs; an explicit --deadline-s pins it.
    drawn_deadline = rng.choice([None, None, 0.5, 1.5, 3.0])
    return ChaosSchedule(
        index=index,
        seed=seed,
        apps=chosen,
        board_name=rng.choice(boards),
        strict=rng.random() < 0.4,
        deadline_s=deadline_s if deadline_s is not None else drawn_deadline,
        retry_attempts=rng.choice([1, 3]),
        breaker_threshold=rng.choice([None, 2, 3]),
        fault_seed=rng.randrange(2 ** 31),
        max_faults=rng.randint(1, 4),
    )


def _classify(outcome: ChaosOutcome) -> None:
    """Derive ``status`` and the violation list from the raw record."""
    schedule = outcome.schedule
    fired = sum(outcome.faults_fired.values())
    if outcome.wall_s > HANG_CAP_S:
        outcome.violations.append(
            f"hang: wall clock {outcome.wall_s:.2f}s exceeded the "
            f"{HANG_CAP_S:g}s cap"
        )
    if schedule.deadline_s is not None \
            and outcome.wall_s > schedule.deadline_s + DEADLINE_GRACE_S:
        outcome.violations.append(
            f"deadline overshot: {outcome.wall_s:.2f}s against a "
            f"{schedule.deadline_s:g}s budget (+{DEADLINE_GRACE_S:g}s grace)"
        )
    if outcome.status == "error":
        if not schedule.strict:
            outcome.violations.append(
                f"degraded run raised {outcome.error_code or 'an error'} "
                "instead of answering conservatively"
            )
        if not outcome.error_code:
            outcome.violations.append("error escaped without a code")
        return
    if outcome.degraded_reports:
        outcome.status = "degraded"
        if not outcome.caveat_codes:
            outcome.violations.append(
                "degraded report(s) carried no machine-readable coded caveat"
            )
    elif fired:
        outcome.status = "recovered"
    else:
        outcome.status = "clean"


def run_schedule(schedule: ChaosSchedule,
                 validate_guards: bool = True) -> ChaosOutcome:
    """Execute one schedule and classify the result."""
    from repro.microbench.suite import MicrobenchmarkSuite
    from repro.model.framework import Framework
    from repro.robustness import FaultKind, FaultPlan, inject_faults
    from repro.soc.board import get_board

    board = get_board(schedule.board_name)
    workloads = [build_workload(app, board_name=board.name)
                 for app in schedule.apps]
    clock = LogicalClock(f"repro-chaos-clock:{schedule.seed}:{schedule.index}")
    breakers = (BreakerRegistry(failure_threshold=schedule.breaker_threshold,
                                clock=clock)
                if schedule.breaker_threshold else None)
    framework = Framework(
        suite=MicrobenchmarkSuite(),  # fresh; no persistent cache
        breakers=breakers,
        retry_policy=RetryPolicy(max_attempts=schedule.retry_attempts,
                                 seed=schedule.fault_seed),
    )
    plan = FaultPlan.chaos(schedule.fault_seed,
                           max_faults=schedule.max_faults,
                           kinds=list(FaultKind))
    outcome = ChaosOutcome(schedule=schedule, status="clean", wall_s=0.0)
    start = time.monotonic()
    deadline = (Deadline.after(schedule.deadline_s, clock=clock)
                if schedule.deadline_s is not None else None)
    injector = None
    try:
        with deadline_scope(deadline) if deadline is not None \
                else _null_scope():
            with inject_faults(plan) as injector:
                reports = framework.tune_many(
                    workloads, board, strict=schedule.strict
                )
        outcome.total_reports = len(reports)
        for report in reports:
            if report.degraded:
                outcome.degraded_reports += 1
                outcome.caveat_codes.extend(
                    code for caveat in report.recommendation.caveats
                    for code in _CODE_RE.findall(caveat)
                )
    except ReproError as error:
        outcome.status = "error"
        outcome.error_code = error.code
    except Exception as error:  # noqa: BLE001 - the violation we hunt
        outcome.status = "error"
        outcome.error_code = None
        outcome.violations.append(
            f"uncoded {type(error).__name__} escaped: {error}"
        )
    if injector is not None:
        outcome.faults_fired = injector.log.counts()
    outcome.wall_s = time.monotonic() - start
    _classify(outcome)
    if validate_guards and outcome.status != "error":
        _validate_clean(board, workloads[0], outcome)
    obs.event("chaos.schedule", index=schedule.index, status=outcome.status,
              wall_s=outcome.wall_s, violations=len(outcome.violations))
    obs.counter_inc(f"chaos.schedule.{outcome.status}")
    return outcome


def _null_scope():
    import contextlib

    return contextlib.nullcontext()


def _validate_clean(board, workload, outcome: ChaosOutcome) -> None:
    """Post-run guard validation on a *clean* stack.

    The injection scope has exited; if the chaos run leaked any patched
    seam or perturbed state into the process, the invariant guards see
    it here and the schedule is flagged.
    """
    from repro.robustness import validate

    report = validate(board, workload, characterize=False)
    if not report.passed:
        outcome.violations.append(
            "post-run guard validation failed on a clean stack: "
            + "; ".join(v.code for v in report.violations)
        )


def run_chaos(schedules: int = 25, seed: int = 0,
              apps: Sequence[str] = APPS,
              boards: Optional[Sequence[str]] = None,
              deadline_s: Optional[float] = None,
              validate_guards: bool = True) -> ChaosReport:
    """Run a seeded soak of ``schedules`` chaos schedules."""
    outcomes: List[ChaosOutcome] = []
    with obs.span("chaos.soak", schedules=schedules, seed=seed):
        for index in range(schedules):
            schedule = build_schedule(seed, index, apps=apps, boards=boards,
                                      deadline_s=deadline_s)
            outcomes.append(run_schedule(schedule,
                                         validate_guards=validate_guards))
    return ChaosReport(seed=seed, outcomes=outcomes)
