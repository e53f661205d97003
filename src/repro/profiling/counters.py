"""Profiler counter records.

:class:`AppProfile` is everything the paper's performance model needs
about one (application, board, communication model) run — the output of
the "standard profiling tool" box in Fig. 2.

Real profiling tools emit garbage under contention (Ali & Yun, 2017):
NaN counters, negative times, impossibly large values.  Validation here
is the first guard of the robustness stack — a profile that would feed
garbage into eqns 1–4 is rejected at construction with a structured
:class:`~repro.errors.ProfilingError` instead of propagating downstream.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping

from repro.errors import ProfilingError

#: Counter fields that must be rates in [0, 1].
_RATE_FIELDS = ("cpu_l1_miss_rate", "cpu_llc_miss_rate", "gpu_l1_hit_rate")

#: Counter fields that must be non-negative times in seconds.
_TIME_FIELDS = ("cpu_time_s", "kernel_runtime_s", "copy_time_s", "total_runtime_s")


@dataclass(frozen=True)
class AppProfile:
    """Counters of one profiled application run."""

    workload_name: str
    board_name: str
    model: str

    # CPU-side counters
    cpu_l1_miss_rate: float
    cpu_llc_miss_rate: float
    cpu_time_s: float

    # GPU-side counters
    gpu_l1_hit_rate: float
    gpu_transactions: int
    gpu_transaction_size: float
    kernel_runtime_s: float

    # communication
    copy_time_s: float
    total_runtime_s: float

    def __post_init__(self) -> None:
        # NaN/inf first: a non-finite counter fails every comparison
        # below silently, so it must be rejected explicitly.
        for name in _RATE_FIELDS + _TIME_FIELDS + (
                "gpu_transactions", "gpu_transaction_size"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ProfilingError(
                    f"{name} must be finite, got {value}",
                    code="PROFILE_COUNTER_NONFINITE",
                    details={"counter": name, "value": repr(value)},
                )
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ProfilingError(
                    f"{name} must be a rate in [0, 1], got {value}",
                    code="PROFILE_COUNTER_RANGE",
                    details={"counter": name, "value": value},
                )
        if self.gpu_transactions < 0:
            raise ProfilingError(
                "transaction count cannot be negative",
                code="PROFILE_COUNTER_NEGATIVE",
                details={"counter": "gpu_transactions",
                         "value": self.gpu_transactions},
            )
        if self.gpu_transaction_size < 0:
            raise ProfilingError(
                "transaction size cannot be negative",
                code="PROFILE_COUNTER_NEGATIVE",
                details={"counter": "gpu_transaction_size",
                         "value": self.gpu_transaction_size},
            )
        for name in _TIME_FIELDS:
            if getattr(self, name) < 0:
                raise ProfilingError(
                    f"{name} cannot be negative",
                    code="PROFILE_COUNTER_NEGATIVE",
                    details={"counter": name, "value": getattr(self, name)},
                )
        if self.copy_time_s > self.total_runtime_s > 0:
            raise ProfilingError(
                f"copy time ({self.copy_time_s}) exceeds total runtime "
                f"({self.total_runtime_s})",
                code="PROFILE_TIME_INCONSISTENT",
                details={"copy_time_s": self.copy_time_s,
                         "total_runtime_s": self.total_runtime_s},
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly view (round-trips exactly: JSON floats are
        ``repr``-exact)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AppProfile":
        """Rebuild a profile from :meth:`to_dict` (re-validated)."""
        names = [f.name for f in dataclasses.fields(cls)]
        missing = [name for name in names if name not in data]
        if missing:
            raise ProfilingError(
                f"profile record misses counter(s): {', '.join(missing)}",
                code="PROFILE_COUNTER_MISSING",
                details={"missing": missing},
            )
        return cls(**{name: data[name] for name in names})

    @property
    def gpu_bytes_requested(self) -> float:
        """Kernel memory demand: ``t_n * t_size`` (bytes)."""
        return self.gpu_transactions * self.gpu_transaction_size

    @property
    def cpu_gpu_time_ratio(self) -> float:
        """``CPU_time / GPU_time`` — the overlap potential used by the
        speedup equations (3)-(4)."""
        if self.kernel_runtime_s <= 0:
            raise ProfilingError(
                "kernel runtime must be positive for the time ratio",
                code="PROFILE_TIME_INCONSISTENT",
                details={"kernel_runtime_s": self.kernel_runtime_s},
            )
        return self.cpu_time_s / self.kernel_runtime_s
