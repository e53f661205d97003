"""Per-emission and per-access references the stream fast paths are
pinned to (the window sums' reference is ``direct_sums`` in
``test_window.py``)."""

from typing import Tuple

import numpy as np

from repro.stream.drift import DriftConfig
from repro.stream.sources import TraceWindowSource


def drift_flags_per_emission(metrics: np.ndarray,
                             config: DriftConfig) -> np.ndarray:
    """Each emission against the mean of its own lagged reference rows."""
    metrics = np.asarray(metrics, dtype=np.float64)
    flags = np.zeros(len(metrics), dtype=bool)
    if not config.enabled:
        return flags
    for g in range(config.lag + config.reference, len(metrics)):
        hi = g - config.lag
        ref = metrics[hi - config.reference:hi].sum(axis=0) / config.reference
        dev = np.abs(metrics[g] - ref)
        tol = np.maximum(config.rel_threshold * np.abs(ref),
                         config.abs_floor_pct)
        flags[g] = bool((dev > tol).any())
    return flags


def classify_per_access(source: TraceWindowSource, lines: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """The source's locality model, one access at a time (advances the
    source's carried state exactly like its production path)."""
    loc = source.locality
    recent = list(source._recent)
    n = len(lines)
    l1_hit = np.zeros(n, dtype=bool)
    llc_hit = np.zeros(n, dtype=bool)
    for i in range(n):
        line = int(lines[i])
        l1_hit[i] = line in recent
        cache_set = line % loc.llc_sets
        llc_hit[i] = source._set_lines[cache_set] == line
        source._set_lines[cache_set] = line
        recent.append(line)
        if len(recent) > loc.l1_recent:
            recent.pop(0)
    source._recent = np.asarray(recent, dtype=np.int64)
    return l1_hit, llc_hit & ~l1_hit
