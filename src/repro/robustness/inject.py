"""Fault-injection harness: apply a :class:`FaultPlan` to live runs.

The injector patches these methods, and no others, for the duration
of a ``with`` block (``tests/robustness/test_seams.py`` pins the list):

- :meth:`SoC._copy_time` — copy-engine stalls (``COPY_STALL``), placed
  *below* the invariant guards so a stalled transfer is observable by
  :meth:`SoCGuards.on_copy`;
- :meth:`SoC.flush_cpu_caches` / :meth:`SoC.flush_gpu_caches` —
  dropped software flushes (``FLUSH_DROP``); the patched method skips
  the real flush, so the SoC's needs-flush bookkeeping keeps marking
  the hierarchy dirty and the coherence guard can detect the handoff
  violation;
- :meth:`Profiler.from_report` — counter corruption at
  :class:`AppProfile` construction (``COUNTER_NOISE`` / ``COUNTER_NAN``
  / ``COUNTER_DROP`` / ``CACHE_MISREPORT``).  Invalid results trip the
  profile validation (structured :class:`ProfilingError`); missing
  counters raise ``PROFILE_COUNTER_MISSING`` directly.
- :meth:`MicrobenchmarkSuite.run_all` / :meth:`Profiler.profile` —
  stage-level timing faults (``STAGE_DELAY`` / ``STAGE_HANG``): real
  wall-clock stalls that the cooperative deadline layer
  (:mod:`repro.resilience.deadline`) must observe.  A hang loops on
  deadline checkpoints, so an active deadline converts it into a
  structured ``DEADLINE_EXCEEDED``; without a deadline a safety cap
  (the spec's magnitude, in seconds) raises ``STAGE_HANG_UNBOUNDED``
  so the process can never truly wedge.

All randomness comes from the plan's single seeded stream, consumed in
simulation order — the same plan on the same scenario reproduces the
identical fault sequence and report.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.errors import ProfilingError, SimulationError
from repro.profiling.counters import AppProfile
from repro.robustness.faults import (
    COUNTER_TARGETS,
    FaultKind,
    FaultPlan,
    FaultSpec,
)

#: Only one injector may be active at a time (module-level seam patching).
_ACTIVE: List["FaultInjector"] = []


def injection_active() -> Optional["FaultInjector"]:
    """The fault injector currently patched in, or ``None``.

    Only code that computes *around* a patched seam consults this: the
    suite's caches (a cached or memoized answer skips the seams), the
    MB2 batch engine (closed forms skip the copy and flush seams) and
    process pools (workers escape the patches).  Everything else
    reaches the seams, or none of them, the same way with or without an
    injector.
    """
    return _ACTIVE[0] if _ACTIVE else None


@dataclass(frozen=True)
class InjectionEvent:
    """One fault that actually fired."""

    kind: FaultKind
    site: str
    detail: str


@dataclass
class InjectionLog:
    """Deterministic record of what a plan did during one application."""

    events: List[InjectionEvent] = field(default_factory=list)

    def record(self, kind: FaultKind, site: str, detail: str) -> None:
        """Append one fired fault (and mirror it into the obs layer)."""
        self.events.append(InjectionEvent(kind=kind, site=site, detail=detail))
        obs.event("robustness.fault_fired", kind=kind.value, site=site,
                  detail=detail)
        obs.counter_inc(f"robustness.fault.{kind.value}")

    def counts(self) -> Dict[str, int]:
        """Fired-fault counts by kind (stable ordering)."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind.value] = out.get(event.kind.value, 0) + 1
        return out

    def render(self) -> str:
        """Stable multi-line summary for reports."""
        if not self.events:
            return "no faults fired"
        lines = [f"{len(self.events)} fault(s) fired:"]
        for kind, count in sorted(self.counts().items()):
            lines.append(f"  {kind}: {count}")
        return "\n".join(lines)


class FaultInjector:
    """Applies a :class:`FaultPlan` while active as a context manager."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.log = InjectionLog()
        self._rng = None
        #: ``(owner, attribute, original)`` of every patched seam.
        self._saved: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    # activation
    # ------------------------------------------------------------------

    def __enter__(self) -> "FaultInjector":
        if _ACTIVE:
            raise SimulationError(
                "a fault injector is already active; nest plans by "
                "combining their fault specs instead",
                code="INJECTOR_NESTED",
            )
        self._rng = self.plan.rng()
        self.log = InjectionLog()
        self._patch()
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self._unpatch()
        finally:
            if self in _ACTIVE:
                _ACTIVE.remove(self)

    def _patch(self) -> None:
        # The patch targets load here, not with this module: reading
        # injection_active() must not import the simulator.
        from repro.microbench.suite import MicrobenchmarkSuite
        from repro.profiling.profiler import Profiler
        from repro.soc.soc import SoC

        injector = self
        original_copy_time = SoC._copy_time
        original_flush_cpu = SoC.flush_cpu_caches
        original_flush_gpu = SoC.flush_gpu_caches
        original_from_report = Profiler.from_report  # unwrapped function
        original_run_all = MicrobenchmarkSuite.run_all
        original_profile = Profiler.profile

        def copy_time(soc, num_bytes, rate):
            time_s = original_copy_time(soc, num_bytes, rate)
            return injector._maybe_stall_copy(num_bytes, time_s)

        def flush_cpu(soc):
            if injector._maybe_drop_flush("cpu"):
                from repro.soc.hierarchy import FlushResult
                return FlushResult(time_s=0.0, writeback_bytes=0)
            return original_flush_cpu(soc)

        def flush_gpu(soc):
            if injector._maybe_drop_flush("gpu"):
                from repro.soc.hierarchy import FlushResult
                return FlushResult(time_s=0.0, writeback_bytes=0)
            return original_flush_gpu(soc)

        def from_report(report):
            return injector._perturb_profile(original_from_report(report))

        def run_all(suite, board):
            injector._maybe_stage_fault("characterize")
            return original_run_all(suite, board)

        def profile(profiler, workload, model="SC", mode="auto"):
            injector._maybe_stage_fault("profile")
            return original_profile(profiler, workload, model=model,
                                    mode=mode)

        patches = [
            (SoC, "_copy_time", copy_time),
            (SoC, "flush_cpu_caches", flush_cpu),
            (SoC, "flush_gpu_caches", flush_gpu),
            (Profiler, "from_report", staticmethod(from_report)),
            (MicrobenchmarkSuite, "run_all", run_all),
            (Profiler, "profile", profile),
        ]
        self._saved = [(owner, name, vars(owner)[name])
                       for owner, name, _ in patches]
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)

    def _unpatch(self) -> None:
        for owner, name, original in self._saved:
            setattr(owner, name, original)
        self._saved = []

    # ------------------------------------------------------------------
    # fault application
    # ------------------------------------------------------------------

    def _fires(self, spec: FaultSpec) -> bool:
        """One deterministic probability draw."""
        if spec.probability >= 1.0:
            return True
        return self._rng.random() < spec.probability

    def _maybe_stall_copy(self, num_bytes: int, time_s: float) -> float:
        for spec in self.plan.specs_for(FaultKind.COPY_STALL):
            if self._fires(spec):
                stalled = time_s * spec.magnitude
                self.log.record(
                    FaultKind.COPY_STALL, "soc.copy",
                    f"{num_bytes} B transfer stretched x{spec.magnitude:g}",
                )
                return stalled
        return time_s

    def _maybe_stage_fault(self, stage: str) -> None:
        """Apply timing faults (delay/hang) targeting ``stage``.

        Both sleep in small cooperative ticks so an active deadline
        (:mod:`repro.resilience.deadline`) observes them; that is the
        property the chaos harness asserts.
        """
        from repro.resilience.deadline import (
            checkpoint,
            now,
            sleep_cooperatively,
        )

        for spec in self.plan.specs_for(FaultKind.STAGE_DELAY):
            if spec.matches(stage) and self._fires(spec):
                self.log.record(
                    FaultKind.STAGE_DELAY, f"stage.{stage}",
                    f"{stage} delayed {spec.magnitude:.3f}s",
                )
                sleep_cooperatively(spec.magnitude, f"fault.delay.{stage}")
        for spec in self.plan.specs_for(FaultKind.STAGE_HANG):
            if spec.matches(stage) and self._fires(spec):
                self.log.record(
                    FaultKind.STAGE_HANG, f"stage.{stage}",
                    f"{stage} hung (safety cap {spec.magnitude:.1f}s)",
                )
                # The safety cap runs on the ambient deadline's clock.
                start = now()
                while True:
                    # An active deadline raises DEADLINE_EXCEEDED here.
                    checkpoint(f"fault.hang.{stage}")
                    if now() - start >= spec.magnitude:
                        raise SimulationError(
                            f"injected hang at stage {stage!r} ran "
                            f"unbounded for {spec.magnitude:.1f}s with no "
                            f"deadline to cut it short",
                            code="STAGE_HANG_UNBOUNDED",
                            details={"stage": stage,
                                     "cap_s": spec.magnitude},
                        )
                    time.sleep(0.002)

    def _maybe_drop_flush(self, side: str) -> bool:
        for spec in self.plan.specs_for(FaultKind.FLUSH_DROP):
            if spec.matches(side) and self._fires(spec):
                self.log.record(
                    FaultKind.FLUSH_DROP, f"soc.flush_{side}_caches",
                    f"{side} flush silently dropped",
                )
                return True
        return False

    def _perturb_profile(self, profile: AppProfile) -> AppProfile:
        values = {name: getattr(profile, name) for name in COUNTER_TARGETS}

        for spec in self.plan.specs_for(FaultKind.COUNTER_DROP):
            if self._fires(spec):
                target = self._concrete_counter(spec)
                self.log.record(
                    FaultKind.COUNTER_DROP, "profiler",
                    f"counter {target} missing from profiler output",
                )
                raise ProfilingError(
                    f"profiler did not report counter {target!r}",
                    code="PROFILE_COUNTER_MISSING",
                    details={"counter": target,
                             "workload": profile.workload_name},
                )

        for spec in self.plan.specs_for(FaultKind.COUNTER_NOISE):
            for name in COUNTER_TARGETS:
                if spec.matches(name) and self._fires(spec):
                    factor = math.exp(self._rng.gauss(0.0, spec.magnitude))
                    values[name] = values[name] * factor
                    self.log.record(
                        FaultKind.COUNTER_NOISE, "profiler",
                        f"{name} scaled x{factor:.4f}",
                    )

        for spec in self.plan.specs_for(FaultKind.COUNTER_NAN):
            if self._fires(spec):
                target = self._concrete_counter(spec)
                values[target] = float("nan")
                self.log.record(
                    FaultKind.COUNTER_NAN, "profiler", f"{target} = NaN"
                )

        for spec in self.plan.specs_for(FaultKind.CACHE_MISREPORT):
            if self._fires(spec):
                target = spec.target if spec.target != "*" else "gpu_transactions"
                values[target] = values[target] * spec.magnitude
                self.log.record(
                    FaultKind.CACHE_MISREPORT, "profiler",
                    f"{target} mis-scaled x{spec.magnitude:g}",
                )

        # Reconstruction revalidates: NaN / negative / inconsistent
        # counters surface as structured ProfilingErrors here.
        return dataclasses.replace(profile, **values)

    def _concrete_counter(self, spec: FaultSpec) -> str:
        if spec.target != "*":
            return spec.target
        return self._rng.choice(COUNTER_TARGETS)


@contextlib.contextmanager
def inject_faults(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Apply ``plan`` to everything executed inside the block.

    ::

        plan = FaultPlan.standard(seed=7)
        with inject_faults(plan) as injector:
            report = Framework().tune(workload, board, strict=False)
        print(injector.log.render())
    """
    with FaultInjector(plan) as injector:
        yield injector
