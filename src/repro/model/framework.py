"""The user-facing framework façade (paper Fig. 2, end to end).

Typical use::

    from repro import Framework, get_board
    from repro.apps.shwfs import build_shwfs_workload

    framework = Framework()
    report = framework.tune(build_shwfs_workload(), get_board("xavier"),
                            current_model="SC")
    print(report.recommendation.model, report.recommendation.estimated_speedup_pct)

``tune`` characterizes the device with the micro-benchmarks (cached per
board), profiles the application under its current communication model,
computes the cache-usage metrics, runs the decision flow, and returns
everything in one :class:`TuningReport`.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from typing import TYPE_CHECKING

from repro import obs
from repro.errors import ModelError, ReproError
from repro.obs.report import TuneReport
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
    from repro.explore.surrogate import CharacterizationSurrogate
    from repro.microbench.suite import MicrobenchmarkSuite
from repro.model.device import DeviceCharacterization
from repro.profiling.counters import AppProfile
from repro.profiling.metrics import profile_cpu_cache_usage, profile_gpu_cache_usage
from repro.profiling.profiler import Profiler
from repro.soc.board import BoardConfig
from repro.soc.soc import ALL_MODELS, SoC


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
    #: True when ``device`` is a surrogate interpolation (k probe
    #: points) rather than a full MB1–MB3 characterization.
    via_surrogate: bool = False

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
        """True when any input was missing and the recommendation is a
        conservative fallback."""
        return self.recommendation.degraded


class Framework:
    """Device characterization + profiling + recommendation.

    Resilience is opt-in and off by default (identical behaviour and
    hot-path cost to before):

    - ``breakers`` — a :class:`~repro.resilience.breaker.BreakerRegistry`
      wraps the characterize/profile seams; a seam that keeps failing
      trips open and further calls are shed immediately
      (``BREAKER_OPEN``), which degraded mode converts into an instant
      conservative ``KEEP_CURRENT``;
    - ``retry_policy`` — the declarative
      :class:`~repro.resilience.retry.RetryPolicy` degraded-mode
      characterization runs under (default: the legacy bounded budget
      of ``DEGRADED_CHARACTERIZE_RETRIES`` extra attempts, no backoff);
    - ``tune(..., deadline_s=...)`` / an ambient
      :func:`~repro.resilience.deadline.deadline_scope` — bounds the
      flow end to end with cooperative checkpoints.
    """

    def __init__(self, suite: Optional["MicrobenchmarkSuite"] = None,
                 cache_dir: Optional[str] = None,
                 breakers: Optional[BreakerRegistry] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 surrogate: Optional["CharacterizationSurrogate"] = None,
                 backend=None,
                 ) -> None:
        resolved_backend = get_backend(backend) if backend is not None else None
        if suite is None:
            # Imported here to keep repro.model importable from the
            # micro-benchmarks without a cycle.
            from repro.microbench.suite import MicrobenchmarkSuite

            suite = MicrobenchmarkSuite(cache_dir=cache_dir,
                                        backend=resolved_backend)
        else:
            if (resolved_backend is not None
                    and resolved_backend != suite.backend):
                raise ModelError(
                    f"framework backend {resolved_backend.name!r} conflicts "
                    f"with the suite's {suite.backend.name!r}",
                    code="MODEL_BACKEND_CONFLICT",
                    details={"framework": resolved_backend.name,
                             "suite": suite.backend.name},
                )
            if cache_dir is not None and suite.cache is None:
                from repro.perf.cache import ShardedCharacterizationStore

                suite.cache = ShardedCharacterizationStore(cache_dir)
        self.suite = suite
        #: Default timing backend for every stage (characterization
        #: SoCs come from the suite, which shares it; profiling and
        #: validation SoCs are built here).  Per-call ``backend=``
        #: arguments override it through :meth:`_use_backend`.
        self.backend = suite.backend
        self._backend_suites = {suite.backend: suite}
        self.breakers = breakers
        self.retry_policy = retry_policy
        #: Default :class:`~repro.explore.surrogate.CharacterizationSurrogate`
        #: consulted by strict :meth:`tune` calls (``tune(...,
        #: surrogate=...)`` overrides per call).
        self.surrogate = surrogate
        #: The :class:`~repro.obs.report.TuneReport` of the most recent
        #: :meth:`tune` call (``repro tune --report`` serializes it).
        self.last_tune_report: Optional[TuneReport] = None

    # ------------------------------------------------------------------
    # pieces
    # ------------------------------------------------------------------

    def _guarded(self, seam: str, fn):
        """Run one seam call under its circuit breaker, if enabled."""
        if self.breakers is None:
            return fn()
        return self.breakers.call(seam, fn)

    def _suite_for(self, backend) -> "MicrobenchmarkSuite":
        """The suite characterizing under ``backend``.

        Suites are cached per backend (backends are hashable value
        objects); each one shares the base suite's benchmark parameters
        and persistent cache — entries cannot collide because the
        backend identity is part of the cache signature.
        """
        suite = self._backend_suites.get(backend)
        if suite is None:
            from repro.microbench.suite import MicrobenchmarkSuite

            base = self.suite
            suite = MicrobenchmarkSuite(
                first=base.first, second=base.second, third=base.third,
                cache=base.cache, backend=backend,
            )
            self._backend_suites[backend] = suite
        return suite

    @contextlib.contextmanager
    def _use_backend(self, backend):
        """Temporarily retarget the framework at another backend.

        ``None`` (or the current backend) is a no-op.  Otherwise the
        suite and default backend are swapped for the scope; the
        surrogate is dropped when the override is not analytic (its
        calibration is phrased against the analytic model).
        """
        if backend is None:
            yield
            return
        resolved = get_backend(backend)
        if resolved == self.backend:
            yield
            return
        saved = (self.suite, self.backend, self.surrogate)
        self.suite = self._suite_for(resolved)
        self.backend = resolved
        if not resolved.is_analytic:
            self.surrogate = None
        try:
            yield
        finally:
            self.suite, self.backend, self.surrogate = saved

    def characterize(self, board: BoardConfig, force: bool = False,
                     retries: int = 0,
                     retry_policy: Optional[RetryPolicy] = None
                     ) -> DeviceCharacterization:
        """Run (or reuse) the micro-benchmark characterization.

        ``retries`` / ``retry_policy`` bound the re-runs attempted when
        a sweep fails to locate a threshold (see
        :meth:`repro.microbench.suite.MicrobenchmarkSuite.characterize`).
        """
        checkpoint("characterize", board=board.name)
        with obs.span("characterize", board=board.name, force=force):
            return self._guarded(
                "characterize",
                lambda: self.suite.characterize(
                    board, force=force, retries=retries,
                    retry_policy=retry_policy,
                ),
            )

    def profile(self, workload: Workload, board: BoardConfig,
                model: str = "SC") -> AppProfile:
        """Profile the application under one communication model."""
        checkpoint("profile", workload=workload.name)
        with obs.span("profile", workload=workload.name, board=board.name,
                      model=model, backend=self.backend.name):
            soc = SoC(board, backend=self.backend)
            return self._guarded(
                "profile", lambda: Profiler(soc).profile(workload, model=model)
            )

    # ------------------------------------------------------------------
    # the full flow
    # ------------------------------------------------------------------

    #: Bounded retry budget for degraded-mode characterization.
    DEGRADED_CHARACTERIZE_RETRIES = 2

    def tune(self, workload: Workload, board: BoardConfig,
             current_model: str = "SC", strict: bool = True,
             deadline_s: Optional[float] = None,
             surrogate: Optional["CharacterizationSurrogate"] = None,
             backend=None,
             ) -> TuningReport:
        """Run the complete Fig-2 flow for one application.

        ``strict=True`` (default) preserves the raising behaviour: any
        bad input aborts with a structured :class:`ReproError`.  With
        ``strict=False`` the flow degrades instead of raising —
        characterization gets a bounded retry budget, and a failure of
        any stage yields a conservative ``KEEP_CURRENT`` recommendation
        with ``confidence=LOW`` and machine-readable ``caveats``.

        ``deadline_s`` bounds the whole flow: stage boundaries (and the
        micro-benchmark boundaries inside characterization) are
        cooperative checkpoints, so an exhausted budget surfaces as
        ``DEADLINE_EXCEEDED`` (strict) or as a conservative
        ``KEEP_CURRENT`` with a ``DEADLINE_EXCEEDED`` caveat (degraded)
        instead of overshooting.  An already-ambient deadline (from an
        enclosing :func:`~repro.resilience.deadline.deadline_scope`) is
        honoured when ``deadline_s`` is not given.

        ``surrogate`` (or the framework-level default) enables the
        fast path: a strict tune first asks the
        :class:`~repro.explore.surrogate.CharacterizationSurrogate`,
        which answers from k MB2 probe points when the board is inside
        its calibrated trust region — the full characterization runs
        only when the surrogate declines or the decision margin is
        thinner than the calibrated error bounds.  Degraded mode
        ignores the surrogate entirely (its guarantees are phrased for
        the healthy flow).
        """
        if current_model.upper() not in ALL_MODELS:
            raise ModelError(
                f"unknown communication model {current_model!r}; "
                f"expected one of {ALL_MODELS}",
                code="MODEL_UNKNOWN",
                details={"model": current_model},
            )
        timings: Dict[str, float] = {}
        tune_start = time.perf_counter()
        with contextlib.ExitStack() as stack:
            stack.enter_context(self._use_backend(backend))
            if surrogate is None:
                surrogate = self.surrogate
            if not self.backend.is_analytic:
                # The surrogate interpolates analytic probe points; a
                # simulated tune must take the measured path.
                surrogate = None
            if deadline_s is not None:
                stack.enter_context(deadline_scope(Deadline.after(deadline_s)))
            report, recommendation = self._tune_under_scope(
                workload, board, current_model, strict, timings, tune_start,
                surrogate=surrogate,
            )
        obs.counter_inc("framework.tune")
        if recommendation.degraded:
            obs.counter_inc("framework.tune.degraded")
        self.last_tune_report = TuneReport.from_tuning(report,
                                                       timings_s=timings)
        return report

    def retune(self, profile: AppProfile,
               board: Optional[BoardConfig] = None,
               device: Optional[DeviceCharacterization] = None,
               strict: bool = True) -> TuningReport:
        """Re-run the decision flow from an already-measured profile.

        This is the online half of the Fig-2 flow: no workload replay,
        no profiling — the caller already holds fresh counters (a
        window of a live stream, a profile shipped with a serve
        request) and only needs the decision re-evaluated against the
        board's characterization.  Pass ``device`` to reuse a
        characterization in hand (the streaming engine does — one
        characterization per run, thousands of retunes); otherwise the
        board is characterized through the normal cached path.

        Like :meth:`tune`, the result lands in ``last_tune_report`` so
        every streaming flip is explainable from a serializable
        :class:`~repro.obs.report.TuneReport`.
        """
        if profile.model.upper() not in ALL_MODELS:
            raise ModelError(
                f"unknown communication model {profile.model!r}; "
                f"expected one of {ALL_MODELS}",
                code="MODEL_UNKNOWN",
                details={"model": profile.model},
            )
        if device is None and board is None:
            raise ModelError(
                "retune needs a device characterization or a board",
                code="MODEL_NO_DEVICE",
                details={"profile": profile.workload_name},
            )
        timings: Dict[str, float] = {}
        start = time.perf_counter()
        with obs.span("retune", workload=profile.workload_name,
                      board=profile.board_name,
                      model=profile.model.upper(),
                      strict=strict) as retune_span:
            if device is None:
                try:
                    device = self._timed("characterize", timings,
                                         self.characterize, board)
                except ReproError as error:
                    if strict:
                        raise
                    obs.event("tune.stage_failed", stage="characterize",
                              code=error.code)
            if device is None:
                recommendation = keep_current(
                    profile.model,
                    "characterization failed",
                    caveats=(f"characterization failed — "
                             f"{error.code}: {error.message}",),
                )
            else:
                with obs.span("decide", workload=profile.workload_name):
                    recommendation = self._timed(
                        "decide", timings, decide, profile, device,
                        strict=strict)
            timings["retune"] = time.perf_counter() - start
            report = TuningReport(
                workload_name=profile.workload_name,
                board_name=profile.board_name,
                current_model=profile.model.upper(),
                profile=profile,
                device=device,
                cpu_cache_usage_pct=self._usage_pct(
                    profile_cpu_cache_usage, profile, strict=strict),
                gpu_cache_usage_pct=self._usage_pct(
                    profile_gpu_cache_usage, profile,
                    device.gpu_peak_throughput
                    if device is not None else None,
                    strict=strict),
                recommendation=recommendation,
            )
            retune_span.set(
                recommendation=recommendation.model.value,
                zone=int(recommendation.zone)
                if recommendation.zone is not None else None,
                degraded=recommendation.degraded,
            )
        obs.counter_inc("framework.retune")
        if recommendation.degraded:
            obs.counter_inc("framework.tune.degraded")
        self.last_tune_report = TuneReport.from_tuning(report,
                                                       timings_s=timings)
        return report

    def _tune_under_scope(self, workload: Workload, board: BoardConfig,
                          current_model: str, strict: bool,
                          timings: Dict[str, float], tune_start: float,
                          surrogate: Optional[
                              "CharacterizationSurrogate"] = None):
        """The tune flow body, running inside any deadline scope."""
        with obs.span("tune", workload=workload.name, board=board.name,
                      model=current_model.upper(), strict=strict) as tune_span:
            via_surrogate = False
            if strict:
                checkpoint("tune.characterize", workload=workload.name)
                device = None
                profile = None
                if surrogate is not None:
                    device, profile, via_surrogate = self._tune_via_surrogate(
                        surrogate, workload, board, current_model, timings)
                if device is None:
                    device = self._timed("characterize", timings,
                                         self.characterize, board)
                if profile is None:
                    checkpoint("tune.profile", workload=workload.name)
                    profile = self._timed(
                        "profile", timings, self.profile, workload, board,
                        model=current_model.upper(),
                    )
                checkpoint("tune.decide", workload=workload.name)
                with obs.span("decide", workload=workload.name):
                    start = time.perf_counter()
                    recommendation = decide(profile, device)
                    timings["decide"] = time.perf_counter() - start
            else:
                device, profile, recommendation = self._tune_degraded(
                    workload, board, current_model.upper(), timings
                )
            timings["tune"] = time.perf_counter() - tune_start
            report = TuningReport(
                workload_name=workload.name,
                board_name=board.name,
                current_model=current_model.upper(),
                profile=profile,
                device=device,
                cpu_cache_usage_pct=self._usage_pct(
                    profile_cpu_cache_usage, profile, strict=strict),
                gpu_cache_usage_pct=self._usage_pct(
                    profile_gpu_cache_usage, profile,
                    device.gpu_peak_throughput if device is not None else None,
                    strict=strict),
                recommendation=recommendation,
                via_surrogate=via_surrogate,
            )
            tune_span.set(
                recommendation=recommendation.model.value,
                zone=int(recommendation.zone)
                if recommendation.zone is not None else None,
                degraded=recommendation.degraded,
                via_surrogate=via_surrogate,
            )
        return report, recommendation

    def _tune_via_surrogate(self, surrogate: "CharacterizationSurrogate",
                            workload: Workload, board: BoardConfig,
                            current_model: str, timings: Dict[str, float]):
        """Attempt the surrogate fast path of one strict tune.

        Returns ``(device, profile, True)`` on a trusted answer.  On
        any refusal the device is ``None`` and the caller runs the full
        characterization; the profile (if already measured for the
        margin check) is reused rather than re-run.
        """
        prediction = self._timed(
            "surrogate", timings, surrogate.characterize, board,
            suite=self.suite,
        )
        if prediction is None:
            return None, None, False
        checkpoint("tune.profile", workload=workload.name)
        profile = self._timed(
            "profile", timings, self.profile, workload, board,
            model=current_model.upper(),
        )
        # The margin check needs the usages the decision will see; a
        # structurally bad profile fails strictly later in the full
        # flow, so here it simply withholds trust.
        try:
            gpu_usage = profile_gpu_cache_usage(
                profile, prediction.device.gpu_peak_throughput)
            cpu_usage = profile_cpu_cache_usage(profile)
            margin_ok = surrogate.decision_margin_ok(
                prediction, cpu_usage, gpu_usage)
        except ReproError:
            margin_ok = False
        if not margin_ok:
            surrogate.record_fallback("low_margin")
            return None, profile, False
        obs.counter_inc("surrogate.hit")
        return prediction.device, profile, True

    @staticmethod
    def _timed(stage: str, timings: Dict[str, float], fn, *args, **kwargs):
        """Run one tune stage, recording its wall-clock under ``stage``."""
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            timings[stage] = time.perf_counter() - start

    @staticmethod
    def _usage_pct(metric, profile, *args, strict: bool) -> float:
        """Evaluate a cache-usage metric, degrading to NaN when inputs
        are absent or (in non-strict mode) inconsistent."""
        if profile is None or any(a is None for a in args):
            return float("nan")
        try:
            return metric(profile, *args)
        except ReproError:
            if strict:
                raise
            return float("nan")

    def _deadline_expired_caveat(self, stage: str) -> Optional[str]:
        """A ``DEADLINE_EXCEEDED`` caveat when the ambient budget is
        already gone — the degraded flow skips the stage outright
        instead of starting work it cannot finish."""
        deadline = active_deadline()
        if deadline is None or not deadline.expired():
            return None
        obs.event("tune.stage_skipped", stage=stage,
                  code="DEADLINE_EXCEEDED")
        return (f"{stage} skipped — DEADLINE_EXCEEDED: budget of "
                f"{deadline.budget_s:.3f}s exhausted")

    def _tune_degraded(self, workload: Workload, board: BoardConfig,
                       current_model: str,
                       timings: Optional[Dict[str, float]] = None):
        """The ``strict=False`` flow: absorb structured errors stage by
        stage and fall back to :func:`keep_current` when a stage dies.

        An open circuit breaker or an exhausted ambient deadline shows
        up here as just another coded failure (``BREAKER_OPEN``,
        ``DEADLINE_EXCEEDED``): the stage is shed or skipped and the
        answer is an immediate conservative ``KEEP_CURRENT``.
        """
        timings = {} if timings is None else timings
        caveats = []
        device = None
        profile = None
        skipped = self._deadline_expired_caveat("characterization")
        if skipped is not None:
            caveats.append(skipped)
        else:
            try:
                device = self._timed(
                    "characterize", timings, self.characterize, board,
                    retries=self.DEGRADED_CHARACTERIZE_RETRIES,
                    retry_policy=self.retry_policy,
                )
            except ReproError as error:
                obs.event("tune.stage_failed", stage="characterize",
                          code=error.code)
                caveats.append(f"characterization failed — {error.code}: "
                               f"{error.message}")
        if device is not None:
            skipped = self._deadline_expired_caveat("profiling")
            if skipped is not None:
                caveats.append(skipped)
            else:
                try:
                    profile = self._timed(
                        "profile", timings, self.profile,
                        workload, board, model=current_model,
                    )
                except ReproError as error:
                    obs.event("tune.stage_failed", stage="profile",
                              code=error.code)
                    caveats.append(f"profiling failed — {error.code}: "
                                   f"{error.message}")
        if device is not None and profile is not None:
            with obs.span("decide", workload=workload.name):
                recommendation = self._timed(
                    "decide", timings, decide, profile, device, strict=False,
                )
            return device, profile, recommendation
        recommendation = keep_current(
            current_model,
            caveats[0] if len(caveats) == 1 else "multiple input stages failed",
            caveats=caveats,
            device=device,
        )
        return device, profile, recommendation

    def tune_many(self, workloads: Sequence[Workload], board: BoardConfig,
                  current_model: str = "SC", strict: bool = True,
                  deadline_s: Optional[float] = None,
                  surrogate: Optional["CharacterizationSurrogate"] = None,
                  backend=None,
                  ) -> List[TuningReport]:
        """Tune several applications against one board in one call.

        This is the paper's characterize-once / tune-many workflow as
        an API: the device characterization (the expensive stage) runs
        at most once — straight from the suite's cache when available —
        and each workload adds only its own profiling run.  Reports
        keep the input order.

        ``deadline_s`` bounds the *whole batch*.  Strict mode raises
        ``DEADLINE_EXCEEDED`` at the first item boundary past the
        budget, with the completed/total counts in ``details``;
        degraded mode instead answers every remaining workload with an
        immediate conservative ``KEEP_CURRENT`` carrying a
        ``DEADLINE_EXCEEDED`` caveat, so the report list stays complete
        and ordered.
        """
        with obs.span("tune_many", board=board.name, workloads=len(workloads)):
            with contextlib.ExitStack() as stack:
                stack.enter_context(self._use_backend(backend))
                if surrogate is None:
                    surrogate = self.surrogate
                if not self.backend.is_analytic:
                    surrogate = None
                if deadline_s is not None:
                    stack.enter_context(
                        deadline_scope(Deadline.after(deadline_s))
                    )
                return self._tune_many(workloads, board, current_model,
                                       strict, surrogate)

    def _tune_many(self, workloads: Sequence[Workload], board: BoardConfig,
                   current_model: str, strict: bool,
                   surrogate: Optional["CharacterizationSurrogate"] = None
                   ) -> List[TuningReport]:
        if strict:
            # Shared by every report below — unless the surrogate's
            # trust region covers the board, in which case the per-item
            # fast path answers from probe points and pre-paying the
            # full characterization would forfeit exactly that saving.
            if surrogate is None or not surrogate.covers(board):
                self.characterize(board)
        else:
            # Degraded mode absorbs a failed characterization per
            # report; warming the suite cache is best-effort only.
            try:
                self.characterize(
                    board, retries=self.DEGRADED_CHARACTERIZE_RETRIES,
                    retry_policy=self.retry_policy,
                )
            except ReproError:
                pass
        deadline = active_deadline()
        reports: List[TuningReport] = []
        for index, workload in enumerate(workloads):
            if deadline is not None:
                if strict:
                    deadline.check("tune_many.item",
                                   completed_reports=index,
                                   total=len(workloads))
                elif deadline.expired():
                    obs.event("tune_many.deadline_shed",
                              completed_reports=index, total=len(workloads))
                    reports.extend(
                        self._deadline_shed_report(w, board, current_model,
                                                   deadline)
                        for w in workloads[index:]
                    )
                    break
            reports.append(
                self.tune(workload, board, current_model=current_model,
                          strict=strict, surrogate=surrogate)
            )
        return reports

    def _deadline_shed_report(self, workload: Workload, board: BoardConfig,
                              current_model: str,
                              deadline: Deadline) -> TuningReport:
        """An immediate conservative answer for a workload the batch
        deadline left no budget for (degraded mode only)."""
        caveat = (f"tuning skipped — DEADLINE_EXCEEDED: batch budget of "
                  f"{deadline.budget_s:.3f}s exhausted")
        device = self.suite.memoized(board)
        recommendation = keep_current(
            current_model,
            caveat,
            caveats=[caveat],
            device=device,
        )
        obs.counter_inc("framework.tune.degraded")
        return TuningReport(
            workload_name=workload.name,
            board_name=board.name,
            current_model=current_model.upper(),
            profile=None,
            device=device,
            cpu_cache_usage_pct=float("nan"),
            gpu_cache_usage_pct=float("nan"),
            recommendation=recommendation,
        )

    def compare_models(self, workload: Workload, board: BoardConfig,
                       backend=None) -> Dict[str, object]:
        """Measure the workload under all three models (validation runs,
        Table III / Table V)."""
        from repro.comm.base import get_model

        resolved = get_backend(backend) if backend is not None else self.backend
        with obs.span("compare_models", workload=workload.name,
                      board=board.name, backend=resolved.name):
            soc = SoC(board, backend=resolved)
            return {model: get_model(model).execute(workload, soc)
                    for model in ALL_MODELS}
