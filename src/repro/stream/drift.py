"""Vectorized drift detection over window statistics.

The detector watches the per-window usage metrics (eqns 1-2) and flags
an emission as *drifted* when the current value deviates from a
fixed-lag rolling reference by more than a relative tolerance (with an
absolute floor, since usages near zero make relative bounds
meaningless).  The lag keeps the reference from chasing the drift it
is supposed to expose: the reference window ends ``lag`` emissions in
the past.

Drift is advisory — the hysteresis logic in
:class:`~repro.stream.engine.StreamTuner` is what actually gates
flips — but every flip records whether drift was flagged at its
emission, so a flip without drift (or drift without a flip) is visible
in the stream report.

The whole update is vectorized over each block of emissions (one
prefix-sum over the extended metric history).  It is a pure function
of the metric sequence — determinism is pinned by property tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import StreamError


@dataclass(frozen=True)
class DriftConfig:
    """Shape of the fixed-lag rolling reference.

    ``reference`` emissions ending ``lag`` emissions ago form the
    baseline; an emission drifts when any metric deviates from the
    baseline mean by more than ``max(rel_threshold * |mean|,
    abs_floor_pct)``.
    """

    lag: int = 4
    reference: int = 16
    rel_threshold: float = 0.25
    abs_floor_pct: float = 0.5
    enabled: bool = True

    def validated(self) -> "DriftConfig":
        if self.lag < 1:
            raise StreamError(
                f"drift lag must be >= 1 emission, got {self.lag}",
                code="STREAM_BAD_DRIFT",
                details={"lag": self.lag},
            )
        if self.reference < 1:
            raise StreamError(
                f"drift reference must cover >= 1 emission, got "
                f"{self.reference}",
                code="STREAM_BAD_DRIFT",
                details={"reference": self.reference},
            )
        if self.rel_threshold < 0 or self.abs_floor_pct < 0:
            raise StreamError(
                "drift tolerances cannot be negative",
                code="STREAM_BAD_DRIFT",
                details={"rel_threshold": self.rel_threshold,
                         "abs_floor_pct": self.abs_floor_pct},
            )
        return self


class DriftDetector:
    """Flags emissions whose metrics left the rolling reference band.

    Feed :meth:`update` blocks of per-emission metric rows (any number
    per call); it returns one boolean per row.  The first
    ``lag + reference`` emissions are warm-up and never flag.
    """

    def __init__(self, config: DriftConfig, num_metrics: int) -> None:
        self.config = config.validated()
        if num_metrics < 1:
            raise StreamError(
                f"need at least one metric, got {num_metrics}",
                code="STREAM_BAD_DRIFT",
                details={"num_metrics": num_metrics},
            )
        self.num_metrics = num_metrics
        self._history = np.empty((0, num_metrics), dtype=np.float64)

    def update(self, metrics: np.ndarray) -> np.ndarray:
        """Classify a block of emissions; returns a bool array."""
        metrics = np.asarray(metrics, dtype=np.float64)
        if metrics.ndim != 2 or metrics.shape[1] != self.num_metrics:
            raise StreamError(
                f"expected (emissions, {self.num_metrics}) metrics, got "
                f"shape {metrics.shape}",
                code="STREAM_BAD_DRIFT",
                details={"shape": list(metrics.shape)},
            )
        cfg = self.config
        n = len(metrics)
        flags = np.zeros(n, dtype=bool)
        if n == 0:
            return flags
        need = cfg.lag + cfg.reference
        ext = np.concatenate([self._history, metrics])
        offset = len(self._history)
        self._history = ext[-need:].copy()
        if not cfg.enabled:
            return flags
        # Global emission index of row j is offset + j; its reference
        # rows are [g - lag - reference, g - lag).
        hi = offset + np.arange(n) - cfg.lag
        lo = hi - cfg.reference
        valid = lo >= 0
        if not valid.any():
            return flags
        cum = np.zeros((len(ext) + 1, self.num_metrics), dtype=np.float64)
        np.cumsum(ext, axis=0, out=cum[1:])
        ref = (cum[hi[valid]] - cum[lo[valid]]) / cfg.reference
        dev = np.abs(metrics[valid] - ref)
        tol = np.maximum(cfg.rel_threshold * np.abs(ref), cfg.abs_floor_pct)
        flags[valid] = (dev > tol).any(axis=1)
        return flags
