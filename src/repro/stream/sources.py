"""Feature sources for the streaming re-tuning engine.

A *source* turns some event stream into chunked **int64 feature
matrices** the :class:`~repro.stream.window.SlidingWindow` can
aggregate, and knows how to turn a window's integer sums back into the
per-window :class:`~repro.profiling.counters.AppProfile` the Fig-2
decision flow consumes.  Two sources are provided:

- :class:`TraceWindowSource` — replays a
  :class:`~repro.profiling.trace.RecordedTrace` (in memory or straight
  off a CSV via the bounded-memory ``iter_chunks`` reader) through a
  small deterministic cache-locality model, producing per-access GPU
  counters (L1 hits via recent-line reuse, LLC hits via a direct-mapped
  set map, latency-weighted kernel nanoseconds).

- :class:`CounterWindowSource` — ingests pre-aggregated profiler
  counter samples (integer deltas per sampling tick), the shape a real
  perf/tegrastats pipeline would deliver.  Its
  :meth:`CounterWindowSource.from_profile` constructor synthesizes a
  stationary stream whose every window reconstructs a reference
  profile's rates — the fidelity tests stream the paper workloads this
  way and assert zero spurious flips.

Trace features are computed in exact integer arithmetic, bit-identical
to a one-access-at-a-time replay of the locality model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.errors import StreamError
from repro.profiling.counters import AppProfile
from repro.profiling.trace import RecordedTrace


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise ``num / den`` with 0 where ``den`` is 0."""
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    out = np.zeros(np.broadcast(num, den).shape, dtype=np.float64)
    np.divide(num, den, out=out, where=den != 0)
    return out


# ----------------------------------------------------------------------
# counter samples
# ----------------------------------------------------------------------

#: Column order of a counter-sample feature row.  Every value is an
#: integer *delta* over one sampling tick; times are nanoseconds.
COUNTER_COLUMNS: Tuple[str, ...] = (
    "cpu_l1_refs", "cpu_l1_miss", "cpu_llc_refs", "cpu_llc_miss",
    "gpu_accesses", "gpu_l1_hits", "gpu_bytes",
    "kernel_ns", "cpu_ns", "copy_ns", "total_ns",
)

#: Synthetic accesses per sample used by :meth:`from_profile` — large
#: enough that rounding a rate to a count loses < 5e-7 of the rate.
_SYNTH_SCALE = 1_000_000


class CounterWindowSource:
    """Windowed profiler-counter samples for one application.

    ``samples`` is an ``(ticks, len(COUNTER_COLUMNS))`` int64 matrix of
    per-tick counter deltas.  The feature matrix *is* the sample matrix
    — windowing sums ticks — so :meth:`to_profile` reconstructs rates
    and times from pure integer window sums.
    """

    columns = COUNTER_COLUMNS

    def __init__(self, samples: np.ndarray, workload_name: str,
                 board_name: str, initial_model: str = "SC") -> None:
        samples = np.asarray(samples)
        if samples.ndim != 2 or samples.shape[1] != len(COUNTER_COLUMNS):
            raise StreamError(
                f"counter samples must be (ticks, {len(COUNTER_COLUMNS)}), "
                f"got shape {samples.shape}",
                code="STREAM_BAD_FEATURES",
                details={"shape": list(samples.shape)},
            )
        if not np.issubdtype(samples.dtype, np.integer):
            raise StreamError(
                f"counter samples must be integer deltas, got dtype "
                f"{samples.dtype}",
                code="STREAM_BAD_FEATURES",
                details={"dtype": str(samples.dtype)},
            )
        if np.any(samples < 0):
            raise StreamError(
                "counter deltas cannot be negative",
                code="STREAM_BAD_FEATURES",
            )
        self.samples = samples.astype(np.int64, copy=False)
        self.workload_name = workload_name
        self.board_name = board_name
        self.initial_model = initial_model.upper()

    def __len__(self) -> int:
        return len(self.samples)

    def feature_chunks(self, chunk_size: int) -> Iterator[np.ndarray]:
        """Yield the sample matrix in ``chunk_size``-tick slices."""
        for start in range(0, len(self.samples), chunk_size):
            yield self.samples[start:start + chunk_size]

    def to_profile(self, sums: np.ndarray, model: str) -> AppProfile:
        """Reconstruct one window's :class:`AppProfile` from its sums."""
        s = {name: int(sums[i]) for i, name in enumerate(COUNTER_COLUMNS)}
        if s["gpu_accesses"] <= 0 or s["kernel_ns"] <= 0:
            raise StreamError(
                "window has no GPU activity (zero accesses or kernel "
                "time); cannot evaluate eqn 2",
                code="STREAM_EMPTY_WINDOW",
                details={"gpu_accesses": s["gpu_accesses"],
                         "kernel_ns": s["kernel_ns"]},
            )
        total_ns = max(s["total_ns"], s["copy_ns"])
        return AppProfile(
            workload_name=self.workload_name,
            board_name=self.board_name,
            model=model,
            cpu_l1_miss_rate=float(_safe_div(s["cpu_l1_miss"],
                                             s["cpu_l1_refs"])),
            cpu_llc_miss_rate=float(_safe_div(s["cpu_llc_miss"],
                                              s["cpu_llc_refs"])),
            cpu_time_s=s["cpu_ns"] * 1e-9,
            gpu_l1_hit_rate=float(_safe_div(s["gpu_l1_hits"],
                                            s["gpu_accesses"])),
            gpu_transactions=s["gpu_accesses"],
            gpu_transaction_size=s["gpu_bytes"] / s["gpu_accesses"],
            kernel_runtime_s=s["kernel_ns"] * 1e-9,
            copy_time_s=s["copy_ns"] * 1e-9,
            total_runtime_s=total_ns * 1e-9,
        )

    def usage_series(self, sums: np.ndarray, device) -> np.ndarray:
        """Vectorized eqns 1-2 over a block of window sums.

        Returns a ``(windows, 2)`` float matrix of
        ``(cpu_usage_pct, gpu_usage_pct)`` — the drift detector's
        inputs.
        """
        col = {name: sums[:, i].astype(np.float64)
               for i, name in enumerate(COUNTER_COLUMNS)}
        cpu = 100.0 * _safe_div(col["cpu_l1_miss"], col["cpu_l1_refs"]) * (
            1.0 - _safe_div(col["cpu_llc_miss"], col["cpu_llc_refs"]))
        hit = _safe_div(col["gpu_l1_hits"], col["gpu_accesses"])
        kernel_s = col["kernel_ns"] * 1e-9
        gpu = 100.0 * _safe_div(col["gpu_bytes"] * (1.0 - hit),
                                kernel_s * device.gpu_peak_throughput)
        return np.stack([cpu, gpu], axis=1)

    # ------------------------------------------------------------------
    # synthesis
    # ------------------------------------------------------------------

    @staticmethod
    def _sample_row(profile: AppProfile) -> np.ndarray:
        """One constant counter tick reproducing ``profile``'s rates.

        The tick carries ``_SYNTH_SCALE`` GPU accesses; every other
        count is scaled to preserve the profile's *rates and
        per-access times* (absolute totals are per-window, so the
        usage metrics — which only consume ratios — match the
        reference within rounding of one part in ``_SYNTH_SCALE``).
        """
        if profile.gpu_transactions <= 0 or profile.kernel_runtime_s <= 0:
            raise StreamError(
                "reference profile has no GPU activity to synthesize "
                "a stream from",
                code="STREAM_EMPTY_WINDOW",
                details={"workload": profile.workload_name},
            )
        per_access = _SYNTH_SCALE / profile.gpu_transactions
        l1_refs = _SYNTH_SCALE
        l1_miss = round(profile.cpu_l1_miss_rate * l1_refs)
        llc_refs = max(1, l1_miss)
        row = np.array([[
            l1_refs,
            l1_miss,
            llc_refs,
            round(profile.cpu_llc_miss_rate * llc_refs),
            _SYNTH_SCALE,
            round(profile.gpu_l1_hit_rate * _SYNTH_SCALE),
            round(profile.gpu_transaction_size * _SYNTH_SCALE),
            round(profile.kernel_runtime_s * 1e9 * per_access),
            round(profile.cpu_time_s * 1e9 * per_access),
            round(profile.copy_time_s * 1e9 * per_access),
            round(profile.total_runtime_s * 1e9 * per_access),
        ]], dtype=np.int64)
        # Rounding must not invert the copy <= total invariant.
        row[0, COUNTER_COLUMNS.index("total_ns")] = max(
            row[0, COUNTER_COLUMNS.index("total_ns")],
            row[0, COUNTER_COLUMNS.index("copy_ns")],
        )
        return row

    @classmethod
    def from_profile(cls, profile: AppProfile, samples: int = 4096
                     ) -> "CounterWindowSource":
        """A stationary stream reproducing one profile every window.

        Every tick is the same integer row, so every window sum is
        exactly ``window * row``: the reconstructed usages are
        identical floats at every emission (zero drift by
        construction) and match the reference profile's within
        ~1e-6 relative.
        """
        if samples < 1:
            raise StreamError(
                f"need at least one sample, got {samples}",
                code="STREAM_BAD_FEATURES",
                details={"samples": samples},
            )
        rows = np.repeat(cls._sample_row(profile), samples, axis=0)
        return cls(rows, workload_name=profile.workload_name,
                   board_name=profile.board_name,
                   initial_model=profile.model)

    @classmethod
    def drifting(cls, before: AppProfile, after: AppProfile,
                 samples: int = 4096, switch_at: Optional[int] = None
                 ) -> "CounterWindowSource":
        """A stream that switches behaviour mid-flight.

        The first ``switch_at`` ticks (default: half) reproduce
        ``before``, the rest ``after`` — the canonical drift/flip test
        input.
        """
        if before.board_name != after.board_name:
            raise StreamError(
                f"drifting stream phases are for different boards: "
                f"{before.board_name!r} vs {after.board_name!r}",
                code="STREAM_BAD_APPSET",
            )
        if switch_at is None:
            switch_at = samples // 2
        if not 0 < switch_at < samples:
            raise StreamError(
                f"switch_at must fall inside the stream (0, {samples}), "
                f"got {switch_at}",
                code="STREAM_BAD_FEATURES",
                details={"switch_at": switch_at, "samples": samples},
            )
        rows = np.concatenate([
            np.repeat(cls._sample_row(before), switch_at, axis=0),
            np.repeat(cls._sample_row(after), samples - switch_at, axis=0),
        ])
        return cls(rows, workload_name=before.workload_name,
                   board_name=before.board_name,
                   initial_model=before.model)


# ----------------------------------------------------------------------
# trace replay
# ----------------------------------------------------------------------

#: Column order of a trace-replay feature row (one row per access).
TRACE_COLUMNS: Tuple[str, ...] = (
    "accesses", "writes", "bytes", "l1_hits", "llc_hits", "kernel_ns",
)


@dataclass(frozen=True)
class LocalityModel:
    """Deterministic per-access cache model for trace replay.

    Small on purpose: recent-line reuse approximates the GPU L1
    (an access hits L1 when its cache line was touched within the
    last ``l1_recent`` accesses), a direct-mapped set map approximates
    the LLC, and fixed per-level latencies turn the hit ladder into
    integer kernel nanoseconds.
    """

    line_size: int = 64
    l1_recent: int = 8
    llc_sets: int = 4096
    l1_ns: int = 2
    llc_ns: int = 12
    dram_ns: int = 80

    def validated(self) -> "LocalityModel":
        for name in ("line_size", "l1_recent", "llc_sets",
                     "l1_ns", "llc_ns", "dram_ns"):
            if getattr(self, name) < 1:
                raise StreamError(
                    f"{name} must be >= 1, got {getattr(self, name)}",
                    code="STREAM_BAD_FEATURES",
                    details={name: getattr(self, name)},
                )
        return self


@dataclass(frozen=True)
class CpuSideModel:
    """Constant CPU-side counters accompanying a GPU trace.

    A recorded trace only covers the GPU's accesses; the decision flow
    still needs eqn-1 inputs and task times.  These ride along as
    fixed rates/ratios (the trace drives everything GPU-side).
    """

    cpu_l1_miss_rate: float = 0.05
    cpu_llc_miss_rate: float = 0.4
    cpu_time_ratio: float = 0.5
    copy_bytes_per_s: float = 8e9


class TraceWindowSource:
    """Per-access features replayed from a :class:`RecordedTrace`.

    Chunks come either from an in-memory trace (sliced) or straight
    from a CSV through :meth:`RecordedTrace.iter_chunks` (bounded
    memory end to end).  Locality state (recent lines, LLC set map)
    carries across chunk boundaries, so features are independent of the
    chunking.
    """

    columns = TRACE_COLUMNS

    def __init__(self, trace_chunks: Union[RecordedTrace,
                                           Iterable[np.ndarray]],
                 workload_name: str, board_name: str,
                 initial_model: str = "SC",
                 access_size: int = 4,
                 locality: LocalityModel = LocalityModel(),
                 cpu_side: CpuSideModel = CpuSideModel()) -> None:
        self._trace: Optional[RecordedTrace] = None
        self._chunks: Optional[Iterable[np.ndarray]] = None
        if isinstance(trace_chunks, RecordedTrace):
            self._trace = trace_chunks
            access_size = trace_chunks.access_size
        else:
            self._chunks = trace_chunks
        self.workload_name = workload_name
        self.board_name = board_name
        self.initial_model = initial_model.upper()
        self.access_size = access_size
        self.locality = locality.validated()
        self.cpu_side = cpu_side
        self._reset_state()

    @classmethod
    def from_csv(cls, path, chunk_size: int = 65536, **kwargs
                 ) -> "TraceWindowSource":
        """Stream a trace CSV without materializing it (single-pass)."""
        return cls(RecordedTrace.iter_chunks(path, chunk_size=chunk_size),
                   **kwargs)

    def _reset_state(self) -> None:
        self._recent = np.empty(0, dtype=np.int64)
        self._set_lines = np.full(self.locality.llc_sets, -1, dtype=np.int64)

    def feature_chunks(self, chunk_size: int) -> Iterator[np.ndarray]:
        """Yield per-access feature matrices, carrying locality state."""
        self._reset_state()
        if self._trace is not None:
            offsets, writes = self._trace.offsets, self._trace.is_write
            for start in range(0, len(offsets), chunk_size):
                yield self._extract(offsets[start:start + chunk_size],
                                    writes[start:start + chunk_size])
        else:
            if self._chunks is None:
                raise StreamError(
                    "this trace source was already consumed (CSV "
                    "streams are single-pass)",
                    code="STREAM_SOURCE_CONSUMED",
                )
            chunks, self._chunks = self._chunks, None
            for rows in chunks:
                yield self._extract(rows["offset"], rows["write"])

    # -- feature extraction --------------------------------------------

    def _extract(self, offsets: np.ndarray, writes: np.ndarray
                 ) -> np.ndarray:
        lines = np.asarray(offsets, dtype=np.int64) // self.locality.line_size
        if len(lines) == 0:
            return np.empty((0, len(TRACE_COLUMNS)), dtype=np.int64)
        l1_hit, llc_hit = self._classify(lines)
        loc = self.locality
        n = len(lines)
        features = np.empty((n, len(TRACE_COLUMNS)), dtype=np.int64)
        features[:, 0] = 1
        features[:, 1] = np.asarray(writes, dtype=np.int64)
        features[:, 2] = self.access_size
        features[:, 3] = l1_hit
        features[:, 4] = llc_hit
        features[:, 5] = np.where(
            l1_hit, loc.l1_ns, np.where(llc_hit, loc.llc_ns, loc.dram_ns))
        return features

    def _classify(self, lines: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(L1 hit, LLC hit) per access, carrying locality state."""
        loc = self.locality
        n = len(lines)
        # L1: line seen within the last `l1_recent` accesses.  Pad the
        # carried history to exactly `l1_recent` entries with a -1
        # sentinel (offsets are non-negative, so it never matches);
        # then "k accesses back" is a constant shift.
        k = loc.l1_recent
        pad = np.full(k - len(self._recent), -1, dtype=np.int64)
        ext = np.concatenate([pad, self._recent, lines])
        l1_hit = np.zeros(n, dtype=bool)
        for back in range(1, k + 1):
            l1_hit |= ext[k - back:k - back + n] == lines
        self._recent = ext[-min(k, len(self._recent) + n):]

        # LLC: direct-mapped set map.  Stable-sort by set; inside the
        # chunk the previous same-set access is the previous sorted
        # row, and the first access of each set compares against the
        # carried resident line.
        sets = lines % loc.llc_sets
        order = np.argsort(sets, kind="stable")
        s_sorted = sets[order]
        l_sorted = lines[order]
        prev = np.empty(n, dtype=np.int64)
        same_set = np.empty(n, dtype=bool)
        same_set[0] = False
        same_set[1:] = s_sorted[1:] == s_sorted[:-1]
        prev[1:] = l_sorted[:-1]
        first = ~same_set
        prev[first] = self._set_lines[s_sorted[first]]
        hit_sorted = prev == l_sorted
        llc_hit = np.empty(n, dtype=bool)
        llc_hit[order] = hit_sorted
        last = np.flatnonzero(np.concatenate([first[1:],
                                              np.ones(1, dtype=bool)]))
        self._set_lines[s_sorted[last]] = l_sorted[last]
        return l1_hit, llc_hit & ~l1_hit

    # -- window -> profile ---------------------------------------------

    def to_profile(self, sums: np.ndarray, model: str) -> AppProfile:
        accesses = int(sums[0])
        total_bytes = int(sums[2])
        l1_hits = int(sums[3])
        kernel_ns = int(sums[5])
        if accesses <= 0 or kernel_ns <= 0:
            raise StreamError(
                "window has no accesses; cannot evaluate eqn 2",
                code="STREAM_EMPTY_WINDOW",
                details={"accesses": accesses, "kernel_ns": kernel_ns},
            )
        cpu = self.cpu_side
        model = model.upper()
        kernel_s = kernel_ns * 1e-9
        copy_s = (total_bytes / cpu.copy_bytes_per_s
                  if model in ("SC", "UM") else 0.0)
        cpu_s = cpu.cpu_time_ratio * kernel_s
        return AppProfile(
            workload_name=self.workload_name,
            board_name=self.board_name,
            model=model,
            cpu_l1_miss_rate=cpu.cpu_l1_miss_rate,
            cpu_llc_miss_rate=cpu.cpu_llc_miss_rate,
            cpu_time_s=cpu_s,
            gpu_l1_hit_rate=l1_hits / accesses,
            gpu_transactions=accesses,
            gpu_transaction_size=total_bytes / accesses,
            kernel_runtime_s=kernel_s,
            copy_time_s=copy_s,
            total_runtime_s=max(cpu_s, kernel_s) + copy_s,
        )

    def usage_series(self, sums: np.ndarray, device) -> np.ndarray:
        """Vectorized eqns 1-2 over a block of window sums."""
        cpu = self.cpu_side
        accesses = sums[:, 0].astype(np.float64)
        total_bytes = sums[:, 2].astype(np.float64)
        l1_hits = sums[:, 3].astype(np.float64)
        kernel_s = sums[:, 5].astype(np.float64) * 1e-9
        cpu_usage = np.full(len(sums), 100.0 * cpu.cpu_l1_miss_rate *
                            (1.0 - cpu.cpu_llc_miss_rate))
        hit = _safe_div(l1_hits, accesses)
        gpu_usage = 100.0 * _safe_div(
            total_bytes * (1.0 - hit),
            kernel_s * device.gpu_peak_throughput)
        return np.stack([cpu_usage, gpu_usage], axis=1)
