"""The user-facing framework façade (paper Fig. 2, end to end).

Typical use::

    from repro import Framework, get_board
    from repro.apps.shwfs import build_shwfs_workload

    framework = Framework()
    report = framework.tune(build_shwfs_workload(), get_board("xavier"),
                            current_model="SC")
    print(report.recommendation.model, report.recommendation.estimated_speedup_pct)

Every call runs one stage pipeline — characterize, profile
(``retune`` enters with a profile in hand), decide — and returns
everything, stage timings included, in one :class:`TuningReport`.  A
framework never changes after construction, so one instance is safe to
share across threads.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro import obs
from repro.errors import ModelError, ReproError
from repro.kernels.workload import Workload
from repro.model.decision import Recommendation, decide, keep_current
from repro.resilience.breaker import BreakerRegistry
from repro.resilience.deadline import (
    Deadline,
    active_deadline,
    checkpoint,
    deadline_scope,
)
from repro.resilience.retry import RetryPolicy
from repro.sim.backend import get_backend

if TYPE_CHECKING:  # avoid a circular import with repro.microbench
    from repro.microbench.suite import MicrobenchmarkSuite
from repro.model.device import DeviceCharacterization
from repro.profiling.counters import AppProfile
from repro.profiling.metrics import profile_cpu_cache_usage, profile_gpu_cache_usage
from repro.soc.board import BoardConfig
from repro.soc.coherence import ALL_MODELS


@dataclass(frozen=True)
class TuningReport:
    """Everything the framework learned about one application on one
    board: the Table II / Table IV row plus the recommendation.

    A degraded-mode run (``tune(..., strict=False)`` on bad inputs) may
    carry ``profile=None`` and/or ``device=None``; the recommendation's
    ``caveats`` explain what failed.
    """

    workload_name: str
    board_name: str
    current_model: str
    profile: Optional[AppProfile]
    device: Optional[DeviceCharacterization]
    cpu_cache_usage_pct: float
    gpu_cache_usage_pct: float
    recommendation: Recommendation
    #: Wall-clock seconds per pipeline stage (monotonic clock).  Not
    #: part of the answer's identity: equal answers compare equal
    #: whatever they cost.
    timings_s: Dict[str, float] = field(default_factory=dict,
                                        compare=False, repr=False)

    @property
    def kernel_time_s(self) -> float:
        """Profiled kernel time (Table II "Kernel times" column)."""
        return self.profile.kernel_runtime_s if self.profile else float("nan")

    @property
    def copy_time_s(self) -> float:
        """Profiled copy time per kernel (Table II column)."""
        return self.profile.copy_time_s if self.profile else float("nan")

    @property
    def degraded(self) -> bool:
        """True when the recommendation is a conservative fallback."""
        return self.recommendation.degraded


def _usage_pct(metric, profile, *args, strict: bool) -> float:
    """Evaluate a cache-usage metric, degrading to NaN when inputs are
    absent or (in non-strict mode) inconsistent."""
    if profile is None or any(a is None for a in args):
        return float("nan")
    try:
        return metric(profile, *args)
    except ReproError:
        if strict:
            raise
        return float("nan")


def _tuning_report(workload_name: str, board_name: str, model: str,
                   profile: Optional[AppProfile],
                   device: Optional[DeviceCharacterization],
                   recommendation: Recommendation, strict: bool = True,
                   timings_s: Optional[Dict[str, float]] = None
                   ) -> TuningReport:
    """Build a :class:`TuningReport`; the cache usages (eqns 1-2) are
    evaluated here from ``profile`` and ``device``, NaN where absent."""
    gpu_peak = device.gpu_peak_throughput if device is not None else None
    return TuningReport(
        workload_name=workload_name,
        board_name=board_name,
        current_model=model.upper(),
        profile=profile,
        device=device,
        cpu_cache_usage_pct=_usage_pct(profile_cpu_cache_usage, profile,
                                       strict=strict),
        gpu_cache_usage_pct=_usage_pct(profile_gpu_cache_usage, profile,
                                       gpu_peak, strict=strict),
        recommendation=recommendation,
        timings_s={} if timings_s is None else timings_s,
    )


def conservative_report(workload_name: str, board_name: str, model: str,
                        caveats: Sequence[str],
                        device: Optional[DeviceCharacterization],
                        timings_s: Optional[Dict[str, float]] = None
                        ) -> TuningReport:
    """A degraded ``KEEP_CURRENT`` answer without a profile (NaN
    usages): the shape of every failed, skipped or shed tune."""
    caveats = list(caveats)
    reason = caveats[0] if len(caveats) == 1 else "multiple input stages failed"
    recommendation = keep_current(model, reason, caveats=caveats,
                                  device=device)
    return _tuning_report(workload_name, board_name, model, None, device,
                          recommendation, timings_s=timings_s)


@dataclass(frozen=True)
class _Call:
    """One pipeline run: its identity, error policy and what it learns
    along the way (stage timings, degraded-mode caveats)."""

    kind: str  # "tune" or "retune": span, counter and total-timing name
    workload_name: str
    board_name: str
    model: str
    strict: bool
    timings: Dict[str, float] = field(default_factory=dict)
    caveats: List[str] = field(default_factory=list)


#: Degraded-mode caveat wording of each input stage.
_STAGE_LABELS = {"characterize": "characterization", "profile": "profiling"}


def _checked_model(model: str) -> str:
    if model.upper() not in ALL_MODELS:
        raise ModelError(
            f"unknown communication model {model!r}; "
            f"expected one of {ALL_MODELS}",
            code="MODEL_UNKNOWN",
            details={"model": model},
        )
    return model.upper()


def _within(deadline_s: Optional[float]):
    """A deadline scope of ``deadline_s``; the ambient one if None."""
    return deadline_scope(active_deadline() if deadline_s is None
                          else Deadline.after(deadline_s))


def _timed(stage: str, timings: Dict[str, float], fn, *args, **kwargs):
    """Run one stage, recording its wall-clock under ``stage``."""
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        timings[stage] = time.perf_counter() - start


class Framework:
    """Device characterization + profiling + recommendation.

    Everything is fixed at construction: the timing ``backend`` (the
    suite's) and the opt-in resilience settings —
    ``breakers`` (a :class:`~repro.resilience.breaker.BreakerRegistry`
    around the characterize/profile seams; degraded mode turns
    ``BREAKER_OPEN`` into an instant ``KEEP_CURRENT``) and
    ``retry_policy`` (degraded characterization's
    :class:`~repro.resilience.retry.RetryPolicy`; default: the bounded
    ``DEGRADED_CHARACTERIZE_RETRIES`` extra attempts, no backoff).
    """

    #: Bounded retry budget for degraded-mode characterization.
    DEGRADED_CHARACTERIZE_RETRIES = 2

    def __init__(self, suite: Optional["MicrobenchmarkSuite"] = None,
                 cache_dir: Optional[str] = None,
                 breakers: Optional[BreakerRegistry] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 backend=None,
                 ) -> None:
        resolved = get_backend(backend) if backend is not None else None
        if suite is None:
            # Imported here to keep repro.model importable from the
            # micro-benchmarks without a cycle.
            from repro.microbench.suite import MicrobenchmarkSuite

            suite = MicrobenchmarkSuite(cache_dir=cache_dir, backend=resolved)
        elif resolved is not None and resolved != suite.backend:
            raise ModelError(
                f"framework backend {resolved.name!r} conflicts "
                f"with the suite's {suite.backend.name!r}",
                code="MODEL_BACKEND_CONFLICT",
                details={"framework": resolved.name,
                         "suite": suite.backend.name},
            )
        elif cache_dir is not None and suite.cache is None:
            from repro.perf.cache import ShardedCharacterizationStore

            suite.cache = ShardedCharacterizationStore(cache_dir)
        self.suite = suite
        #: Timing backend of every stage (characterization and profiling
        #: SoCs come from the suite; validation SoCs are built here).
        self.backend = suite.backend
        self.breakers = breakers
        self.retry_policy = retry_policy

    def _guarded(self, seam: str, fn):
        """Run one seam call under its circuit breaker, if enabled."""
        if self.breakers is None:
            return fn()
        return self.breakers.call(seam, fn)

    def characterize(self, board: BoardConfig) -> DeviceCharacterization:
        """Run (or reuse) the micro-benchmark characterization."""
        return self._characterize(board, strict=True)

    def _characterize(self, board: BoardConfig,
                      strict: bool) -> DeviceCharacterization:
        """Characterize under an error policy: degraded grants a bounded
        retry budget (see :meth:`MicrobenchmarkSuite.characterize`)."""
        policy = None
        if not strict:
            policy = self.retry_policy or RetryPolicy.from_attempts(
                self.DEGRADED_CHARACTERIZE_RETRIES)
        checkpoint("characterize", board=board.name)
        with obs.span("characterize", board=board.name):
            return self._guarded(
                "characterize",
                lambda: self.suite.characterize(board, retry_policy=policy),
            )

    def profile(self, workload: Workload, board: BoardConfig,
                model: str = "SC") -> AppProfile:
        """Profile the application under one communication model, once
        per content (see :meth:`MicrobenchmarkSuite.profile`); the span's
        ``source`` says whether the memo, the store or a simulation
        answered."""
        checkpoint("profile", workload=workload.name)
        with obs.span("profile", workload=workload.name, board=board.name,
                      model=model, backend=self.backend.name) as span:
            profile, source = self._guarded(
                "profile",
                lambda: self.suite.profile(workload, board, model=model))
            span.set(source=source)
            return profile

    def tune(self, workload: Workload, board: BoardConfig,
             current_model: str = "SC", strict: bool = True,
             deadline_s: Optional[float] = None) -> TuningReport:
        """Run the complete Fig-2 flow for one application.

        ``strict=True`` (default): a bad input raises a structured
        :class:`ReproError`.  ``strict=False``: characterization gets a
        bounded retry budget and a failed stage yields a conservative
        ``KEEP_CURRENT`` with ``confidence=LOW`` and coded ``caveats``.
        ``deadline_s`` (or an ambient deadline scope) makes the stage
        boundaries cooperative checkpoints, with the same two outcomes.
        """
        call = _Call("tune", workload.name, board.name,
                     _checked_model(current_model), strict)
        with _within(deadline_s):
            return self._run(call, board, workload=workload)

    def retune(self, profile: AppProfile,
               board: Optional[BoardConfig] = None,
               device: Optional[DeviceCharacterization] = None,
               strict: bool = True) -> TuningReport:
        """Re-run the decision flow from an already-measured profile.

        The online half of the Fig-2 flow (a stream window, a profile
        shipped with a serve request).  ``device`` reuses a
        characterization in hand; otherwise ``board`` is characterized
        under the same error policy as :meth:`tune`.
        """
        model = _checked_model(profile.model)
        if device is None and board is None:
            raise ModelError(
                "retune needs a device characterization or a board",
                code="MODEL_NO_DEVICE",
                details={"profile": profile.workload_name},
            )
        call = _Call("retune", profile.workload_name, profile.board_name,
                     model, strict)
        return self._run(call, board, profile=profile, device=device)

    def _run(self, call: _Call, board: Optional[BoardConfig],
             workload: Optional[Workload] = None,
             profile: Optional[AppProfile] = None,
             device: Optional[DeviceCharacterization] = None
             ) -> TuningReport:
        """characterize → profile → decide, skipping the stages whose
        output the call already holds."""
        start = time.perf_counter()
        recommendation = None
        with obs.span(call.kind, workload=call.workload_name,
                      board=call.board_name, model=call.model,
                      strict=call.strict) as span:
            if device is None:
                device = self._stage(call, "characterize", self._characterize,
                                     board, call.strict)
            if device is not None and profile is None:
                profile = self._stage(call, "profile", self.profile,
                                      workload, board, call.model)
            if device is not None and profile is not None:
                if call.strict:
                    checkpoint("tune.decide", workload=call.workload_name)
                with obs.span("decide", workload=call.workload_name):
                    recommendation = _timed("decide", call.timings, decide,
                                            profile, device,
                                            strict=call.strict)
            call.timings[call.kind] = time.perf_counter() - start
            if recommendation is None:
                report = conservative_report(
                    call.workload_name, call.board_name, call.model,
                    call.caveats, device, timings_s=call.timings)
            else:
                report = _tuning_report(
                    call.workload_name, call.board_name, call.model, profile,
                    device, recommendation, strict=call.strict,
                    timings_s=call.timings)
            rec = report.recommendation
            span.set(recommendation=rec.model.value,
                     zone=None if rec.zone is None else int(rec.zone),
                     degraded=rec.degraded)
        obs.counter_inc(f"framework.{call.kind}")
        if rec.degraded:
            obs.counter_inc("framework.tune.degraded")
        return report

    def _stage(self, call: _Call, stage: str, fn, *args):
        """Run one input stage under the call's error policy: strict
        checkpoints and raises; degraded turns an exhausted deadline or
        a coded failure into ``None`` plus a caveat."""
        if call.strict:
            checkpoint(f"tune.{stage}", workload=call.workload_name)
            return _timed(stage, call.timings, fn, *args)
        label = _STAGE_LABELS[stage]
        deadline = active_deadline()
        if deadline is not None and deadline.expired():
            obs.event("tune.stage_skipped", stage=label,
                      code="DEADLINE_EXCEEDED")
            call.caveats.append(
                f"{label} skipped — DEADLINE_EXCEEDED: budget of "
                f"{deadline.budget_s:.3f}s exhausted")
            return None
        try:
            return _timed(stage, call.timings, fn, *args)
        except ReproError as error:
            obs.event("tune.stage_failed", stage=stage, code=error.code)
            call.caveats.append(f"{label} failed — {error.code}: "
                                f"{error.message}")
            return None

    def tune_many(self, workloads: Sequence[Workload], board: BoardConfig,
                  current_model: str = "SC", strict: bool = True,
                  deadline_s: Optional[float] = None) -> List[TuningReport]:
        """Characterize once, then tune each workload (input order).

        ``deadline_s`` bounds the *whole batch*: strict raises
        ``DEADLINE_EXCEEDED`` at the first item past the budget;
        degraded answers every remaining workload with an immediate
        ``KEEP_CURRENT`` carrying a ``DEADLINE_EXCEEDED`` caveat.
        """
        with obs.span("tune_many", board=board.name,
                      workloads=len(workloads)), _within(deadline_s):
            if not strict:
                # Best-effort warm-up: each tune absorbs its own failure.
                with contextlib.suppress(ReproError):
                    self._characterize(board, strict=False)
            else:
                self.characterize(board)
            deadline = active_deadline()
            reports: List[TuningReport] = []
            for index, workload in enumerate(workloads):
                if deadline is not None and strict:
                    deadline.check("tune_many.item", completed_reports=index,
                                   total=len(workloads))
                elif deadline is not None and deadline.expired():
                    obs.event("tune_many.deadline_shed",
                              completed_reports=index, total=len(workloads))
                    caveat = (f"tuning skipped — DEADLINE_EXCEEDED: batch "
                              f"budget of {deadline.budget_s:.3f}s exhausted")
                    device = self.suite.memoized(board)
                    for shed in workloads[index:]:
                        obs.counter_inc("framework.tune.degraded")
                        reports.append(conservative_report(
                            shed.name, board.name, current_model, [caveat],
                            device))
                    break
                reports.append(self.tune(workload, board,
                                         current_model=current_model,
                                         strict=strict))
            return reports

    def compare_models(self, workload: Workload,
                       board: BoardConfig) -> Dict[str, object]:
        """Measure the workload under all three models (validation runs,
        Table III / Table V)."""
        from repro.comm.base import get_model
        from repro.soc.soc import SoC

        with obs.span("compare_models", workload=workload.name,
                      board=board.name, backend=self.backend.name):
            soc = SoC(board, backend=self.backend)
            return {model: get_model(model).execute(workload, soc)
                    for model in ALL_MODELS}
