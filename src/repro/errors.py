"""Exception hierarchy for the repro package.

Every error raised by the package derives from :class:`ReproError` so
that callers can catch framework problems without masking unrelated
bugs.  The subclasses mirror the major subsystems.

Errors are *structured*: each carries a machine-readable ``code`` (a
stable SCREAMING_SNAKE string, defaulting to the class's
``default_code``) and a ``details`` dict with whatever context the
raise site can attach (counter names, measured values, board names).
Degraded-mode consumers (:mod:`repro.model.decision`,
:mod:`repro.robustness`) surface these instead of free-form text, and
``to_dict()`` serializes an error for reports and logs.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro package.

    Args:
        message: human-readable description.
        code: machine-readable error code; defaults to the class's
            ``default_code``.
        details: arbitrary JSON-friendly context about the failure.
    """

    default_code = "REPRO_ERROR"

    def __init__(
        self,
        message: str = "",
        *,
        code: Optional[str] = None,
        details: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.code = code if code is not None else type(self).default_code
        self.details: Dict[str, Any] = dict(details) if details else {}

    def to_dict(self) -> Dict[str, Any]:
        """Serializable view of the error (for reports and logs)."""
        return {
            "type": type(self).__name__,
            "code": self.code,
            "message": self.message,
            "details": dict(self.details),
        }

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.message!r}, code={self.code!r}, "
                f"details={self.details!r})")


class ConfigurationError(ReproError):
    """A board, cache, or model configuration is inconsistent.

    Raised eagerly at construction time (e.g. a cache whose size is not
    a multiple of ``line_size * ways``) so that invalid hardware
    descriptions never reach the simulator.
    """

    default_code = "CONFIG_INVALID"


class AddressError(ReproError):
    """An address or buffer operation is out of range or misaligned."""

    default_code = "ADDRESS_INVALID"


class AllocationError(ReproError):
    """A memory region cannot satisfy an allocation request."""

    default_code = "ALLOC_FAILED"


class SimulationError(ReproError):
    """The simulator reached an inconsistent runtime state."""

    default_code = "SIM_STATE"


class CoherenceError(SimulationError):
    """A coherence invariant was violated (e.g. dirty lines at a
    zero-copy handoff on a board without hardware I/O coherence)."""

    default_code = "COHERENCE_VIOLATION"


class RaceConditionError(SimulationError):
    """The concurrency checker detected CPU and iGPU touching the same
    tile inside one phase of the zero-copy communication pattern."""

    default_code = "RACE_DETECTED"


class InvariantError(SimulationError):
    """A runtime invariant guard tripped (non-monotonic phase clock,
    negative energy, buffer escaping its region, stalled copy engine).

    Raised by :mod:`repro.robustness.guards`; the ``code`` narrows the
    invariant (``GUARD_PHASE_TIMING``, ``GUARD_COPY_STALL``, ...).
    """

    default_code = "GUARD_VIOLATION"


class ProfilingError(ReproError):
    """A profile is missing counters required by the performance model,
    or carries values (NaN, negative, infinite) no real profiler run
    could produce."""

    default_code = "PROFILE_INVALID"


class ModelError(ReproError):
    """The performance model was given inconsistent measurements
    (e.g. a copy time larger than the total runtime)."""

    default_code = "MODEL_INCONSISTENT"


class WorkloadError(ReproError):
    """A workload description is malformed (unknown buffer, empty task
    graph, mismatched footprint)."""

    default_code = "WORKLOAD_MALFORMED"


class MicrobenchmarkError(ReproError):
    """A micro-benchmark could not produce a usable characterization
    (e.g. a sweep too short to locate a threshold)."""

    default_code = "MICROBENCH_FAILED"


class DeadlineError(ReproError):
    """A cooperative deadline expired before the work completed.

    Raised by :mod:`repro.resilience.deadline` checkpoints and by the
    hard future-timeouts in :class:`~repro.perf.parallel.ParallelRunner`.
    ``details`` always carries the stage that tripped, the budget, the
    elapsed time and whatever partial progress the raise site knew
    about (completed stages, finished items)."""

    default_code = "DEADLINE_EXCEEDED"


class CircuitOpenError(ReproError):
    """A circuit breaker is open for the requested seam.

    The call was shed without being attempted; ``details`` carries the
    seam name, the consecutive-failure count that tripped the breaker
    and the time remaining until the half-open probe."""

    default_code = "BREAKER_OPEN"


class ServeError(ReproError):
    """A tune-serving request could not be accepted or executed.

    Raised by :mod:`repro.serve` for structural problems (submitting to
    a stopped server, malformed requests).  Overload is *not* an error:
    the server sheds it into a degraded ``KEEP_CURRENT`` answer with a
    ``SERVE_OVERLOADED`` caveat instead of raising."""

    default_code = "SERVE_ERROR"


class ExploreError(ReproError):
    """A design-space sweep failed structurally.

    Raised by :mod:`repro.explore` when a sweep has no grid boards to
    characterize.  ``repro explore`` reports an ``--axis`` spec that is
    not a valid axis as ``EXPLORE_BAD_AXIS``."""

    default_code = "EXPLORE_FAILED"


class StreamError(ReproError):
    """A streaming re-tune run is misconfigured or structurally broken.

    Raised by :mod:`repro.stream` for bad knobs (window/stride/
    hysteresis/chunk-size out of range — ``STREAM_BAD_*`` codes),
    mismatched feature schemas, and contention passes over inconsistent
    app sets.  Drift, flips and non-converged contention fixed points
    are *results*, not errors — they come back in the
    :class:`~repro.stream.engine.StreamResult`."""

    default_code = "STREAM_ERROR"
