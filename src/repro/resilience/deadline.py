"""Cooperative deadlines for the tuning pipeline.

A hung profiler seam must not stall ``tune`` forever.  A
:class:`Deadline` is a monotonic-clock budget shared by every stage of
one logical operation; the stages *cooperate* by calling
:func:`checkpoint` at their boundaries (between micro-benchmarks,
between tune stages, between retry attempts, between serial fan-out
items), and the first checkpoint past the budget raises a structured
:class:`~repro.errors.DeadlineError` with
``code="DEADLINE_EXCEEDED"`` and partial-progress details.

In-process work is checkpoint-based; pool workers cannot be
checkpointed from the parent, so :class:`~repro.perf.parallel.
ParallelRunner` converts the ambient deadline into *hard* future
timeouts instead (``future.result(timeout=remaining)``).

The active deadline propagates ambiently through a
:mod:`contextvars` context variable::

    from repro.resilience import Deadline, deadline_scope

    with deadline_scope(Deadline.after(2.0)):
        framework.tune(workload, board)          # bounded end to end

so deeply nested seams (and injected hang faults) observe it without
any parameter threading.  When no deadline is active every helper is a
single context-variable read — effectively free, preserving the <2 %
disabled-overhead budget.
"""

from __future__ import annotations

import contextlib
import time
from contextvars import ContextVar
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro import obs
from repro.errors import DeadlineError

#: The ambient deadline of the current execution context (None = none).
_ACTIVE: ContextVar[Optional["Deadline"]] = ContextVar(
    "repro_resilience_deadline", default=None
)


class Deadline:
    """A monotonic wall-clock budget for one logical operation.

    Args:
        budget_s: seconds the operation may take, measured from
            construction.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(self, budget_s: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if budget_s <= 0:
            raise DeadlineError(
                f"deadline budget must be positive, got {budget_s}",
                code="DEADLINE_INVALID",
                details={"budget_s": budget_s},
            )
        self.budget_s = float(budget_s)
        self._clock = clock
        self._start = clock()
        #: Stages that completed a checkpoint before expiry, in order —
        #: the partial progress a DEADLINE_EXCEEDED error reports.
        self.completed: List[str] = []

    @classmethod
    def after(cls, budget_s: float,
              clock: Callable[[], float] = time.monotonic) -> "Deadline":
        """A deadline ``budget_s`` seconds from now."""
        return cls(budget_s, clock=clock)

    def now(self) -> float:
        """A reading of this deadline's clock."""
        return self._clock()

    def elapsed_s(self) -> float:
        """Seconds since the deadline started."""
        return self._clock() - self._start

    def remaining_s(self) -> float:
        """Budget left (negative once expired)."""
        return self.budget_s - self.elapsed_s()

    def expired(self) -> bool:
        """Whether the budget is spent."""
        return self.remaining_s() <= 0.0

    def check(self, stage: str, **progress: Any) -> None:
        """Checkpoint: record ``stage`` or raise if the budget is spent.

        On expiry raises :class:`DeadlineError` whose details carry the
        tripping stage, the budget, the elapsed time, the stages that
        did complete, and any extra ``progress`` the caller knew.
        """
        if not self.expired():
            self.completed.append(stage)
            return
        details: Dict[str, Any] = {
            "stage": stage,
            "budget_s": self.budget_s,
            "elapsed_s": self.elapsed_s(),
            "completed": list(self.completed),
        }
        details.update(progress)
        obs.event("resilience.deadline_exceeded", stage=stage,
                  budget_s=self.budget_s, elapsed_s=details["elapsed_s"])
        obs.counter_inc("resilience.deadline.exceeded")
        raise DeadlineError(
            f"deadline of {self.budget_s:g}s exceeded after "
            f"{details['elapsed_s']:.3f}s at stage {stage!r} "
            f"({len(self.completed)} stage(s) completed)",
            code="DEADLINE_EXCEEDED",
            details=details,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Deadline(budget_s={self.budget_s!r}, "
                f"remaining_s={self.remaining_s():.3f})")


@contextlib.contextmanager
def deadline_scope(deadline: Optional[Deadline]) -> Iterator[Optional[Deadline]]:
    """Make ``deadline`` the ambient deadline inside the block.

    ``None`` is accepted and simply clears the scope, so callers can
    pass an optional deadline through unconditionally.
    """
    token = _ACTIVE.set(deadline)
    try:
        yield deadline
    finally:
        _ACTIVE.reset(token)


def active_deadline() -> Optional[Deadline]:
    """The ambient deadline of this execution context, if any."""
    return _ACTIVE.get()


def checkpoint(stage: str, **progress: Any) -> None:
    """Cooperative checkpoint against the ambient deadline.

    A no-op (one context-variable read) when no deadline is active;
    otherwise :meth:`Deadline.check`.
    """
    deadline = _ACTIVE.get()
    if deadline is not None:
        deadline.check(stage, **progress)


def remaining_s() -> Optional[float]:
    """Budget left on the ambient deadline, or ``None`` without one."""
    deadline = _ACTIVE.get()
    return deadline.remaining_s() if deadline is not None else None


def now() -> float:
    """A reading of the ambient deadline's clock, or ``time.monotonic()``.

    Waits that checkpoint against the deadline measure themselves on
    this clock, so a deadline driven by a logical clock (the chaos soak)
    sees the same elapsed time however fast the host runs.
    """
    deadline = _ACTIVE.get()
    return deadline.now() if deadline is not None else time.monotonic()


def sleep_cooperatively(duration_s: float, stage: str,
                        tick_s: float = 0.005) -> None:
    """Sleep ``duration_s`` in small ticks, checkpointing between them.

    This is how injected delay faults (and any long in-process wait)
    stay observable by the deadline layer: a sleep longer than the
    remaining budget raises ``DEADLINE_EXCEEDED`` at the next tick
    instead of overshooting.  The duration is measured on the ambient
    deadline's clock (:func:`now`).
    """
    end = now() + max(0.0, duration_s)
    while True:
        checkpoint(stage)
        left = end - now()
        if left <= 0:
            return
        time.sleep(min(tick_s, left))
