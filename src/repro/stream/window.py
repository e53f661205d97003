"""Incremental sliding-window aggregation over integer feature streams.

The streaming engine evaluates the paper's cache-usage metrics (eqns
1-2) over a trailing window of events at every decision stride.  Naively
that is a full re-sum of the window per emission — O(window) per
decision, the hot path at production rate.  This module replaces it
with a prefix-sum formulation: each pushed chunk is extended with the
retained window tail, cumulative sums are built once, and every window
sum inside the chunk is two gathers and a subtraction — O(1) amortized
per event.

All features are **int64 counts** (accesses, hits, bytes, integer
nanoseconds).  Integer addition is exact and associative, so a
prefix-sum difference is *bit-identical* to directly summing the same
window slice — the property the equivalence tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import StreamError


@dataclass(frozen=True)
class WindowSpec:
    """Shape of the trailing evaluation window.

    ``window`` is the number of events each metric window covers;
    ``stride`` is how many events pass between decision emissions.  The
    first emission fires once ``window`` events have been seen, then
    every ``stride`` events after that.
    """

    window: int = 2048
    stride: int = 64

    def validated(self) -> "WindowSpec":
        if self.window < 1:
            raise StreamError(
                f"window must be >= 1 event, got {self.window}",
                code="STREAM_BAD_WINDOW",
                details={"window": self.window},
            )
        if self.stride < 1:
            raise StreamError(
                f"stride must be >= 1 event, got {self.stride}",
                code="STREAM_BAD_STRIDE",
                details={"stride": self.stride},
            )
        if self.stride > self.window:
            raise StreamError(
                f"stride ({self.stride}) cannot exceed the window "
                f"({self.window}): emissions would skip events entirely",
                code="STREAM_BAD_STRIDE",
                details={"stride": self.stride, "window": self.window},
            )
        return self


class SlidingWindow:
    """Bounded-memory sliding sums over a chunked int64 feature stream.

    Feed :meth:`push` feature chunks of shape ``(events, features)``;
    each call returns the window sums for every emission point the
    chunk completed.  Memory held between pushes is the window tail
    (``window - 1`` rows) — never the stream.
    """

    def __init__(self, spec: WindowSpec, num_features: int) -> None:
        self.spec = spec.validated()
        if num_features < 1:
            raise StreamError(
                f"need at least one feature column, got {num_features}",
                code="STREAM_BAD_FEATURES",
                details={"num_features": num_features},
            )
        self.num_features = num_features
        self._seen = 0
        self._tail = np.empty((0, num_features), dtype=np.int64)

    @property
    def events_seen(self) -> int:
        """Events pushed so far."""
        return self._seen

    def _check_features(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features)
        if features.ndim != 2 or features.shape[1] != self.num_features:
            raise StreamError(
                f"expected a (events, {self.num_features}) feature "
                f"matrix, got shape {features.shape}",
                code="STREAM_BAD_FEATURES",
                details={"shape": list(features.shape),
                         "num_features": self.num_features},
            )
        if not np.issubdtype(features.dtype, np.integer):
            raise StreamError(
                f"features must be integer counts (exact window sums), "
                f"got dtype {features.dtype}",
                code="STREAM_BAD_FEATURES",
                details={"dtype": str(features.dtype)},
            )
        return features.astype(np.int64, copy=False)

    def push(self, features: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Ingest one chunk; returns ``(emissions, sums)``.

        ``emissions`` holds the absolute event count at each emission
        point this chunk completed (1-based, so the first possible
        value is ``window``); ``sums`` is the matching
        ``(len(emissions), features)`` int64 window-sum matrix.  Both
        are empty when the chunk completed no emission (including an
        empty chunk).
        """
        features = self._check_features(features)
        window, stride = self.spec.window, self.spec.stride
        prev = self._seen
        n = len(features)
        self._seen = prev + n
        emissions = self._emission_points(prev, n, window, stride)
        tail = self._tail
        if n == 0:
            return emissions, np.empty((0, self.num_features),
                                       dtype=np.int64)
        ext = np.concatenate([tail, features]) if len(tail) else features
        base = prev - len(tail)  # ext[i] is event number base + i + 1
        if len(emissions):
            hi = emissions - base
            lo = hi - window
            sums = self._incremental_sums(ext, lo, hi)
        else:
            sums = np.empty((0, self.num_features), dtype=np.int64)
        keep = min(window - 1, len(ext))
        self._tail = ext[len(ext) - keep:].copy() if keep else \
            np.empty((0, self.num_features), dtype=np.int64)
        return emissions, sums

    @staticmethod
    def _emission_points(prev: int, n: int, window: int,
                         stride: int) -> np.ndarray:
        """Absolute event counts of the emissions inside ``(prev, prev+n]``."""
        first_k = max(0, -(-(prev + 1 - window) // stride))
        last_k = (prev + n - window) // stride
        if last_k < first_k:
            return np.empty(0, dtype=np.int64)
        return window + stride * np.arange(first_k, last_k + 1,
                                           dtype=np.int64)

    @staticmethod
    def _incremental_sums(ext: np.ndarray, lo: np.ndarray,
                          hi: np.ndarray) -> np.ndarray:
        """Prefix-sum differences: O(chunk) total for all emissions."""
        cum = np.zeros((len(ext) + 1, ext.shape[1]), dtype=np.int64)
        np.cumsum(ext, axis=0, out=cum[1:])
        return cum[hi] - cum[lo]


def sliding_window_sums(features: np.ndarray, spec: WindowSpec,
                        chunk_size: int = 8192
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """One-shot convenience: window a whole feature matrix in chunks."""
    windower = SlidingWindow(spec, features.shape[1])
    emissions = []
    sums = []
    for start in range(0, len(features), chunk_size):
        emitted, summed = windower.push(features[start:start + chunk_size])
        if len(emitted):
            emissions.append(emitted)
            sums.append(summed)
    if not emissions:
        return (np.empty(0, dtype=np.int64),
                np.empty((0, features.shape[1]), dtype=np.int64))
    return np.concatenate(emissions), np.concatenate(sums)
