"""The streaming re-tuning engine.

:class:`StreamTuner` drives one application's event stream through the
full online loop:

1. the source yields bounded-memory feature chunks;
2. :class:`~repro.stream.window.SlidingWindow` turns them into
   incremental per-window integer sums (the headline O(1)-amortized
   path);
3. the :class:`~repro.stream.drift.DriftDetector` classifies the
   vectorized usage series of each emission block;
4. each window's reconstructed profile re-runs the Fig-2 decision
   flow, and **hysteresis** gates the active model: a flip commits
   only after ``hysteresis`` *consecutive* emissions propose the same
   target.  A committed flip re-invokes
   :meth:`~repro.model.framework.Framework.retune`, so every flip owns
   a full :class:`~repro.model.framework.TuningReport` and the
   matching :class:`~repro.obs.report.TuneReport` — explainability is
   not reconstructed after the fact, it is captured at the flip.

:class:`MultiAppStreamTuner` runs N sources in lockstep over one
board and replaces step 4 with a
:class:`~repro.stream.contention.ContentionModel` fixed-point pass, so
one app's ZC choice shifts the thresholds every other app decides
against.

Everything is observable: ``stream.windows`` / ``stream.decisions`` /
``stream.flips`` / ``stream.drift`` counters, a
``stream.decisions_per_sec`` gauge, one span per run, and a
``stream.flip`` trace event per committed flip.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import ReproError, StreamError
from repro.model.decision import Recommendation, RecommendedModel, keep_current
from repro.model.device import DeviceCharacterization
from repro.obs.report import TuneReport
from repro.stream.drift import DriftConfig, DriftDetector
from repro.stream.window import SlidingWindow, WindowSpec


def proposed_model(recommendation: Recommendation, active: str) -> str:
    """Map a Fig-2 recommendation onto a concrete target model.

    ``NO_CHANGE``/``KEEP_CURRENT`` propose the active model;
    ``SC/UM`` proposes SC (the copy family); the conditional zone
    proposes ZC only when its speedup estimate is actually positive —
    a conditional recommendation with nothing to gain must not feed
    the hysteresis counter.
    """
    model = recommendation.model
    if model is RecommendedModel.ZERO_COPY:
        return "ZC"
    if model is RecommendedModel.ZERO_COPY_CONDITIONAL:
        estimate = recommendation.estimated_speedup_pct
        if estimate is not None and estimate > 0:
            return "ZC"
        return active
    if model is RecommendedModel.STANDARD_COPY_OR_UM:
        return "SC"
    return active


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of one streaming run."""

    window: int = 2048
    stride: int = 64
    hysteresis: int = 3
    chunk_size: int = 8192
    drift: DriftConfig = field(default_factory=DriftConfig)
    strict: bool = True

    def validated(self) -> "StreamConfig":
        self.spec.validated()
        if self.hysteresis < 1:
            raise StreamError(
                f"hysteresis must be >= 1 consecutive emission, got "
                f"{self.hysteresis}",
                code="STREAM_BAD_HYSTERESIS",
                details={"hysteresis": self.hysteresis},
            )
        if self.chunk_size < 1:
            raise StreamError(
                f"chunk size must be >= 1 event, got {self.chunk_size}",
                code="STREAM_BAD_CHUNK",
                details={"chunk_size": self.chunk_size},
            )
        self.drift.validated()
        return self

    @property
    def spec(self) -> WindowSpec:
        return WindowSpec(window=self.window, stride=self.stride)


@dataclass(frozen=True)
class FlipEvent:
    """One committed model flip, with its full explanation."""

    emission: int
    from_model: str
    to_model: str
    drift: bool
    #: The :class:`~repro.model.framework.TuningReport` of the
    #: committing :meth:`Framework.retune` call.
    report: object

    @property
    def tune_report(self) -> TuneReport:
        """The serializable explanation of the flip, built from its
        own answer."""
        return TuneReport.from_tuning(self.report)

    def to_dict(self) -> Dict[str, object]:
        rec = self.report.recommendation if self.report else None
        return {
            "emission": self.emission,
            "from": self.from_model,
            "to": self.to_model,
            "drift": self.drift,
            "reason": rec.reason if rec else None,
            "zone": int(rec.zone) if rec and rec.zone is not None else None,
            "gpu_cache_usage_pct": rec.gpu_cache_usage_pct if rec else None,
            "cpu_cache_usage_pct": rec.cpu_cache_usage_pct if rec else None,
        }


@dataclass(frozen=True)
class StreamResult:
    """Summary of one streaming run."""

    workload_name: str
    board_name: str
    initial_model: str
    final_model: str
    events: int
    windows: int
    decisions: int
    drift_windows: int
    flips: Tuple[FlipEvent, ...]
    elapsed_s: float
    decisions_per_sec: float
    last_recommendation: Optional[Recommendation]

    @property
    def flipped(self) -> bool:
        return bool(self.flips)

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload_name,
            "board": self.board_name,
            "initial_model": self.initial_model,
            "final_model": self.final_model,
            "events": self.events,
            "windows": self.windows,
            "decisions": self.decisions,
            "drift_windows": self.drift_windows,
            "flips": [flip.to_dict() for flip in self.flips],
            "elapsed_s": self.elapsed_s,
            "decisions_per_sec": self.decisions_per_sec,
        }


class _Hysteresis:
    """Streak counter: commit only on sustained identical proposals."""

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self.target: Optional[str] = None
        self.streak = 0

    def observe(self, proposal: str, active: str) -> Optional[str]:
        """Feed one proposal; returns the target iff it just committed."""
        if proposal == active:
            self.target = None
            self.streak = 0
            return None
        if proposal == self.target:
            self.streak += 1
        else:
            self.target = proposal
            self.streak = 1
        if self.streak >= self.threshold:
            self.target = None
            self.streak = 0
            return proposal
        return None


class StreamTuner:
    """Online re-tuning of one application's stream on one board."""

    def __init__(self, framework, source,
                 device: DeviceCharacterization,
                 config: StreamConfig = StreamConfig()) -> None:
        self.framework = framework
        self.source = source
        self.device = device
        self.config = config.validated()
        if source.board_name != device.board_name:
            raise StreamError(
                f"stream is for board {source.board_name!r} but the "
                f"characterization is for {device.board_name!r}",
                code="STREAM_BAD_APPSET",
                details={"source_board": source.board_name,
                         "device_board": device.board_name},
            )

    def run(self) -> StreamResult:
        cfg = self.config
        source = self.source
        windower = SlidingWindow(cfg.spec, len(source.columns))
        detector = DriftDetector(cfg.drift, num_metrics=2)
        hysteresis = _Hysteresis(cfg.hysteresis)
        active = source.initial_model
        flips: List[FlipEvent] = []
        decisions = 0
        windows = 0
        drift_windows = 0
        last_recommendation: Optional[Recommendation] = None
        with obs.span("stream.run", workload=source.workload_name,
                      board=source.board_name, window=cfg.window,
                      stride=cfg.stride, hysteresis=cfg.hysteresis
                      ) as run_span:
            start = time.perf_counter()
            for features in source.feature_chunks(cfg.chunk_size):
                emissions, sums = windower.push(features)
                if not len(emissions):
                    continue
                windows += len(emissions)
                obs.counter_inc("stream.windows", len(emissions))
                series = source.usage_series(sums, self.device)
                drift_flags = detector.update(series)
                flagged = int(np.count_nonzero(drift_flags))
                drift_windows += flagged
                if flagged:
                    obs.counter_inc("stream.drift", flagged)
                for i in range(len(emissions)):
                    decisions += 1
                    recommendation = self._decide(sums[i], active)
                    last_recommendation = recommendation
                    committed = hysteresis.observe(
                        proposed_model(recommendation, active), active)
                    if committed is not None:
                        flips.append(self._flip(
                            int(emissions[i]), active, committed,
                            bool(drift_flags[i]), sums[i]))
                        active = committed
            elapsed = time.perf_counter() - start
            obs.counter_inc("stream.decisions", decisions)
            rate = decisions / elapsed if elapsed > 0 else 0.0
            obs.gauge_set("stream.decisions_per_sec", rate)
            run_span.set(windows=windows, decisions=decisions,
                         flips=len(flips), drift_windows=drift_windows,
                         final_model=active)
        return StreamResult(
            workload_name=source.workload_name,
            board_name=source.board_name,
            initial_model=source.initial_model,
            final_model=active,
            events=windower.events_seen,
            windows=windows,
            decisions=decisions,
            drift_windows=drift_windows,
            flips=tuple(flips),
            elapsed_s=elapsed,
            decisions_per_sec=rate,
            last_recommendation=last_recommendation,
        )

    def _decide(self, sums: np.ndarray, active: str) -> Recommendation:
        """One window's Fig-2 run (degrading instead of raising when
        the config is non-strict)."""
        from repro.model.decision import decide

        try:
            profile = self.source.to_profile(sums, model=active)
            return decide(profile, self.device, strict=self.config.strict)
        except ReproError as error:
            if self.config.strict:
                raise
            return keep_current(
                active, f"stream window failed ({error.code})",
                caveats=(f"{error.code}: {error.message}",),
                device=self.device,
            )

    def _flip(self, emission: int, from_model: str, to_model: str,
              drift: bool, sums: np.ndarray) -> FlipEvent:
        """Commit one flip through ``Framework.retune`` and record it."""
        profile = self.source.to_profile(sums, model=from_model)
        report = self.framework.retune(
            profile, device=self.device, strict=self.config.strict)
        obs.counter_inc("stream.flips")
        obs.event("stream.flip", workload=self.source.workload_name,
                  board=self.source.board_name, emission=emission,
                  from_model=from_model, to_model=to_model, drift=drift)
        return FlipEvent(emission=emission, from_model=from_model,
                         to_model=to_model, drift=drift, report=report)


@dataclass(frozen=True)
class AppStreamResult:
    """One app's summary inside a multi-app run."""

    workload_name: str
    initial_model: str
    final_model: str
    decisions: int
    flips: Tuple[FlipEvent, ...]
    #: Effective GPU threshold this app last decided against (shifted
    #: down from the solo threshold by the other apps' load).
    effective_gpu_threshold_pct: float


@dataclass(frozen=True)
class MultiStreamResult:
    """Outcome of a lockstep multi-app contention run."""

    board_name: str
    apps: Tuple[AppStreamResult, ...]
    windows: int
    converged: bool
    max_fixed_point_iterations: int
    elapsed_s: float
    decisions_per_sec: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "board": self.board_name,
            "windows": self.windows,
            "converged": self.converged,
            "max_fixed_point_iterations": self.max_fixed_point_iterations,
            "elapsed_s": self.elapsed_s,
            "decisions_per_sec": self.decisions_per_sec,
            "apps": [{
                "workload": app.workload_name,
                "initial_model": app.initial_model,
                "final_model": app.final_model,
                "decisions": app.decisions,
                "flips": [flip.to_dict() for flip in app.flips],
                "effective_gpu_threshold_pct":
                    app.effective_gpu_threshold_pct,
            } for app in self.apps],
        }


class MultiAppStreamTuner:
    """N sources in lockstep, deciding through the contention model.

    Emissions are aligned by index: every source must use the same
    window spec, and the run stops at the shortest stream.  At each
    aligned emission the apps' window profiles enter one fixed-point
    contention pass; per-app hysteresis then gates the flips exactly
    as in the single-app engine.
    """

    def __init__(self, framework, sources: Sequence[object],
                 device: DeviceCharacterization,
                 config: StreamConfig = StreamConfig(),
                 contention=None) -> None:
        from repro.stream.contention import ContentionModel

        if len(sources) < 2:
            raise StreamError(
                f"a multi-app run needs >= 2 sources, got {len(sources)}",
                code="STREAM_BAD_APPSET",
                details={"sources": len(sources)},
            )
        for source in sources:
            if source.board_name != device.board_name:
                raise StreamError(
                    f"stream {source.workload_name!r} is for board "
                    f"{source.board_name!r} but the run is on "
                    f"{device.board_name!r}",
                    code="STREAM_BAD_APPSET",
                    details={"workload": source.workload_name},
                )
        self.framework = framework
        self.sources = list(sources)
        self.device = device
        self.config = config.validated()
        self.contention = contention or ContentionModel()

    def _emission_stream(self, source):
        """Generator of (emission, sums) pairs for one source."""
        cfg = self.config
        windower = SlidingWindow(cfg.spec, len(source.columns))
        for features in source.feature_chunks(cfg.chunk_size):
            emissions, sums = windower.push(features)
            for i in range(len(emissions)):
                yield int(emissions[i]), sums[i]

    def run(self) -> MultiStreamResult:
        from repro.stream.contention import AppWindow

        cfg = self.config
        sources = self.sources
        active = [source.initial_model for source in sources]
        hysteresis = [_Hysteresis(cfg.hysteresis) for _ in sources]
        flips: List[List[FlipEvent]] = [[] for _ in sources]
        decisions = [0] * len(sources)
        last_threshold = [self.device.gpu_threshold_pct] * len(sources)
        windows = 0
        converged = True
        max_iterations = 0
        with obs.span("stream.multi_run", board=self.device.board_name,
                      apps=len(sources)) as run_span:
            start = time.perf_counter()
            for aligned in zip(*(self._emission_stream(s)
                                 for s in sources)):
                windows += 1
                obs.counter_inc("stream.windows", len(sources))
                apps = []
                for i, (source, (_, sums)) in enumerate(
                        zip(sources, aligned)):
                    apps.append(AppWindow(
                        profile=source.to_profile(sums, model=active[i]),
                        model=active[i]))
                result = self.contention.resolve(
                    apps, self.device, strict=cfg.strict)
                converged = converged and result.converged
                max_iterations = max(max_iterations, result.iterations)
                for i, decision in enumerate(result.decisions):
                    decisions[i] += 1
                    last_threshold[i] = \
                        decision.effective_gpu_threshold_pct
                    committed = hysteresis[i].observe(
                        decision.proposed, active[i])
                    if committed is not None:
                        emission = aligned[i][0]
                        flips[i].append(self._flip(
                            sources[i], emission, active[i], committed,
                            aligned[i][1]))
                        active[i] = committed
            elapsed = time.perf_counter() - start
            total = sum(decisions)
            obs.counter_inc("stream.decisions", total)
            rate = total / elapsed if elapsed > 0 else 0.0
            obs.gauge_set("stream.decisions_per_sec", rate)
            run_span.set(windows=windows, decisions=total,
                         flips=sum(len(f) for f in flips),
                         converged=converged)
        return MultiStreamResult(
            board_name=self.device.board_name,
            apps=tuple(
                AppStreamResult(
                    workload_name=source.workload_name,
                    initial_model=source.initial_model,
                    final_model=active[i],
                    decisions=decisions[i],
                    flips=tuple(flips[i]),
                    effective_gpu_threshold_pct=last_threshold[i],
                )
                for i, source in enumerate(self.sources)
            ),
            windows=windows,
            converged=converged,
            max_fixed_point_iterations=max_iterations,
            elapsed_s=elapsed,
            decisions_per_sec=rate,
        )

    def _flip(self, source, emission: int, from_model: str,
              to_model: str, sums: np.ndarray) -> FlipEvent:
        profile = source.to_profile(sums, model=from_model)
        report = self.framework.retune(
            profile, device=self.device, strict=self.config.strict)
        obs.counter_inc("stream.flips")
        obs.event("stream.flip", workload=source.workload_name,
                  board=source.board_name, emission=emission,
                  from_model=from_model, to_model=to_model, drift=False)
        return FlipEvent(emission=emission, from_model=from_model,
                         to_model=to_model, drift=False, report=report)
