"""Closed-form cache behaviour estimators for regular access patterns.

Exact set-associative simulation costs O(accesses) in Python; the
paper's third micro-benchmark streams 2^27 floats, which would take
minutes per run.  For the regular patterns the micro-benchmarks use
(linear sweeps, single-address loops, max-miss sparse walks), LRU
behaviour has a well-known closed form:

- a cyclic sweep whose footprint fits in the cache hits on every warm
  access and misses once per line on the cold pass;
- a cyclic sweep larger than the cache thrashes: with true LRU every
  line misses on *every* pass;
- a single-address loop misses once, then always hits;
- a distinct-line random walk misses everywhere (until the footprint
  fits and the pass repeats).

Exact vs analytic
-----------------

Each closed form exists once, over a :class:`SummaryBatch` — N stream
summaries sharing one pattern, as parallel arrays.  A single stream is
a batch of one (:meth:`SummaryBatch.from_stream`), so the hierarchy's
per-stream analytic path and the micro-benchmark sweeps
(:mod:`repro.perf.batch`) run the same arithmetic.  The estimators are
cross-validated against the exact LRU simulator in
``tests/soc/test_analytic.py`` — that validation tolerance is the
contract letting the benchmarks trust the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import SimulationError
from repro.soc.cache import CacheConfig
from repro.soc.stream import AccessStream, PatternKind

#: Fraction of nominal capacity a sweep can occupy before conflict
#: misses appear.  1.0 is the fully-associative ideal; the exact
#: simulator shows sequential sweeps suffer no set imbalance, so the
#: ideal is also the correct value here.
CAPACITY_FACTOR = 1.0

_SWEEP_PATTERNS = (
    PatternKind.LINEAR,
    PatternKind.FRACTION,
    PatternKind.TILED,
    PatternKind.STRIDED,
)


def supports(pattern: PatternKind) -> bool:
    """True when the analytic path can handle ``pattern``."""
    return pattern in _SWEEP_PATTERNS or pattern in (
        PatternKind.SINGLE_ADDRESS,
        PatternKind.SPARSE,
    )


@dataclass(frozen=True)
class SummaryBatch:
    """N stream summaries sharing one pattern, as parallel arrays.

    Summaries chain: the miss traffic one cache level emits is itself a
    batch of summaries (see :func:`derive_miss_batches`), which is how
    the hierarchy estimates multi-level behaviour without materializing
    intermediate traces.
    """

    pattern: PatternKind
    per_pass: np.ndarray
    repeats: np.ndarray
    footprint_bytes: np.ndarray
    write_fraction: np.ndarray
    transaction_size: np.ndarray

    @classmethod
    def build(
        cls,
        pattern: PatternKind,
        per_pass,
        repeats,
        footprint_bytes,
        write_fraction,
        transaction_size,
    ) -> "SummaryBatch":
        """Broadcast scalars/sequences into aligned int64/float arrays."""
        per_pass = np.atleast_1d(np.asarray(per_pass, dtype=np.int64))
        n = len(per_pass)

        def as_int(value):
            return np.broadcast_to(
                np.asarray(value, dtype=np.int64), (n,)
            ).copy()

        return cls(
            pattern=pattern,
            per_pass=per_pass,
            repeats=as_int(repeats),
            footprint_bytes=as_int(footprint_bytes),
            write_fraction=np.broadcast_to(
                np.asarray(write_fraction, dtype=np.float64), (n,)
            ).copy(),
            transaction_size=as_int(transaction_size),
        )

    @classmethod
    def from_stream(cls, stream: AccessStream) -> "SummaryBatch":
        """The batch of one summarizing ``stream`` (addresses dropped)."""
        return cls.build(
            pattern=stream.pattern,
            per_pass=stream.transactions_per_pass,
            repeats=stream.repeats,
            footprint_bytes=stream.footprint_bytes or 0,
            write_fraction=stream.write_fraction,
            transaction_size=stream.transaction_size,
        )

    def __len__(self) -> int:
        return len(self.per_pass)

    @property
    def total(self) -> np.ndarray:
        """Transactions across all replays, per stream."""
        return self.per_pass * self.repeats

    @property
    def total_bytes(self) -> np.ndarray:
        """Bytes moved across all replays, per stream."""
        return self.total * self.transaction_size


@dataclass(frozen=True)
class LevelEstimate:
    """Estimated behaviour of one cache level, per stream of a batch.

    Counts are totals across every replay.  ``cold_misses`` and
    ``warm_misses_per_pass`` decompose the total so the next level's
    incoming traffic can be derived.
    """

    accesses: np.ndarray
    hits: np.ndarray
    misses: np.ndarray
    writeback_lines: np.ndarray
    cold_misses: np.ndarray
    warm_misses_per_pass: np.ndarray


def _ceil_div(numerator: np.ndarray, denominator: int) -> np.ndarray:
    return -(-numerator // denominator)


def _estimate_disabled(batch: SummaryBatch) -> LevelEstimate:
    total = batch.total
    return LevelEstimate(
        accesses=total,
        hits=np.zeros_like(total),
        misses=total,
        writeback_lines=np.zeros_like(total),
        cold_misses=batch.per_pass.copy(),
        warm_misses_per_pass=batch.per_pass.copy(),
    )


def _estimate_single_address(
    batch: SummaryBatch, cold_start: bool
) -> LevelEstimate:
    total = batch.total
    misses = np.where(total > 0, 1 if cold_start else 0, 0).astype(np.int64)
    return LevelEstimate(
        accesses=total,
        hits=total - misses,
        misses=misses,
        writeback_lines=np.zeros_like(total),
        cold_misses=misses,
        warm_misses_per_pass=np.zeros_like(total),
    )


def _estimate_sparse(
    batch: SummaryBatch, config: CacheConfig, cold_start: bool
) -> LevelEstimate:
    total = batch.total
    footprint = batch.footprint_bytes
    lines = np.where(footprint > 0, _ceil_div(footprint, config.line_size), 0)
    fits = footprint <= config.size_bytes * CAPACITY_FACTOR
    cold_fit = (
        np.minimum(batch.per_pass, lines) if cold_start else np.zeros_like(lines)
    )
    cold = np.where(fits, cold_fit, batch.per_pass)
    warm = np.where(fits, 0, batch.per_pass)
    misses = np.where(fits, cold_fit, total)
    if config.write_back:
        writebacks = np.where(
            fits, 0, (total * batch.write_fraction).astype(np.int64)
        )
    else:
        writebacks = np.zeros_like(total)
    return LevelEstimate(
        accesses=total,
        hits=total - misses,
        misses=misses,
        writeback_lines=writebacks,
        cold_misses=cold,
        warm_misses_per_pass=warm,
    )


def _estimate_sweep(
    batch: SummaryBatch, config: CacheConfig, cold_start: bool
) -> LevelEstimate:
    total = batch.total
    footprint = batch.footprint_bytes
    lines = np.where(
        footprint > 0,
        np.minimum(
            batch.per_pass,
            np.maximum(1, _ceil_div(footprint, config.line_size)),
        ),
        0,
    )
    # A sequential sweep spreads its lines uniformly over the sets.
    # A set holding more lines than its ways thrashes under true LRU
    # (every one of its lines misses every pass); a set within its ways
    # keeps them all resident after the cold pass.  Near the capacity
    # boundary only the ceil-loaded sets thrash — the exact simulator
    # confirms this per-set granularity.
    sets = config.num_sets
    ways = config.ways
    floor_lines = lines // sets
    overfull_sets = lines % sets
    fits = floor_lines + (overfull_sets > 0) <= ways
    full_thrash = floor_lines > ways
    thrashing_lines = np.where(
        fits, 0, np.where(full_thrash, lines, overfull_sets * (floor_lines + 1))
    )
    thrashing_sets = np.where(
        fits, 0, np.where(full_thrash, sets, overfull_sets)
    )
    cold = lines if cold_start else thrashing_lines
    warm = thrashing_lines
    misses = np.minimum(cold + warm * (batch.repeats - 1), total)
    # Each thrashing dirty line is evicted before reuse; the lines still
    # resident in the thrashing sets when the run ends (ways per set)
    # are flushed later, not written back here.
    has_writes = (batch.write_fraction > 0.0) & config.write_back
    writebacks = np.where(
        has_writes & (thrashing_lines > 0),
        np.maximum(0, thrashing_lines * batch.repeats - thrashing_sets * ways),
        0,
    )
    return LevelEstimate(
        accesses=total,
        hits=total - misses,
        misses=misses,
        writeback_lines=writebacks,
        cold_misses=cold,
        warm_misses_per_pass=warm,
    )


def estimate_level(
    batch: SummaryBatch,
    config: CacheConfig,
    enabled: bool = True,
    cold_start: bool = True,
) -> LevelEstimate:
    """Estimate one cache level's response to each summary of ``batch``.

    Streams with zero transactions contribute all-zero rows.  An idle
    stream is idle regardless of its pattern tag, so an all-idle batch
    of an unsupported pattern (an empty ``CUSTOM`` stream: a task with
    no memory pattern) estimates as zeros instead of being rejected.
    """
    idle = batch.total == 0
    if not supports(batch.pattern):
        if idle.all():
            zeros = np.zeros(len(batch), dtype=np.int64)
            return LevelEstimate(zeros, zeros, zeros, zeros, zeros, zeros)
        raise SimulationError(
            f"analytic estimator does not support pattern {batch.pattern}"
        )
    if not enabled:
        est = _estimate_disabled(batch)
    elif batch.pattern is PatternKind.SINGLE_ADDRESS:
        est = _estimate_single_address(batch, cold_start)
    elif batch.pattern is PatternKind.SPARSE:
        est = _estimate_sparse(batch, config, cold_start)
    else:
        est = _estimate_sweep(batch, config, cold_start)
    if not idle.any():
        return est
    keep = ~idle
    return LevelEstimate(
        accesses=est.accesses * keep,
        hits=est.hits * keep,
        misses=est.misses * keep,
        writeback_lines=est.writeback_lines * keep,
        cold_misses=est.cold_misses * keep,
        warm_misses_per_pass=est.warm_misses_per_pass * keep,
    )


def derive_miss_batches(
    batch: SummaryBatch,
    estimate: LevelEstimate,
    level_config: CacheConfig,
    level_enabled: bool,
) -> List[SummaryBatch]:
    """The batch(es) a level's misses present to the level below.

    An enabled cache refills at line granularity, so the downstream
    transaction size is its line size.  A partially-thrashing footprint
    emits two distinct components: the *recurring* traffic of the
    overfull sets (small footprint, repeats every pass — it will hit in
    the next level once warm) and the *one-shot* cold fills of the
    lines that stay resident afterwards.  A disabled cache passes the
    batch through unchanged.

    Components keep the full batch width with zeroed rows: a row with
    ``per_pass == 0`` is estimated as all-zero downstream.  A component
    that is zero in every row is dropped, so a level without misses
    emits an empty list.
    """
    if not level_enabled:
        return [batch]
    line = level_config.line_size
    # Refills are reads; dirty evictions are tracked separately as
    # writeback traffic by the hierarchy.
    pattern = batch.pattern
    if pattern is PatternKind.SINGLE_ADDRESS:
        pattern = PatternKind.LINEAR

    def component(per_pass: np.ndarray, repeats: np.ndarray) -> SummaryBatch:
        return SummaryBatch(
            pattern=pattern,
            per_pass=per_pass,
            repeats=repeats,
            footprint_bytes=per_pass * line,
            write_fraction=np.zeros(len(batch), dtype=np.float64),
            transaction_size=np.full(len(batch), line, dtype=np.int64),
        )

    components: List[SummaryBatch] = []
    warm = estimate.warm_misses_per_pass
    if warm.any():
        components.append(component(warm, batch.repeats))
    cold_only = np.maximum(estimate.cold_misses - warm, 0)
    if cold_only.any():
        components.append(component(cold_only, np.ones_like(cold_only)))
    return components
