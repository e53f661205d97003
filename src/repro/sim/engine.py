"""Bit-PLRU set-associative cache simulation.

The event-driven backend replays access streams through this engine
instead of the true-LRU :class:`~repro.soc.cache.SetAssociativeCache`.
The replacement policy is *bit-PLRU* (MRU-bit pseudo-LRU), the policy
embedded caches actually implement and the one that works for any way
count (the boards have 4/6/16-way caches; 6 is not a power of two, so a
tree PLRU would not fit):

- each set keeps one MRU bit per way; an access sets the way's bit;
- when all bits would be set, every other bit clears (the accessed way
  keeps its bit);
- the victim is the first invalid way, else the lowest way with a clear
  MRU bit.

Two cores share the same :class:`CacheSimState`:

- :func:`_core_scalar` — a plain temporal-order loop, which answers
  short or set-skewed segments;
- a NumPy *lockstep-over-sets* core — accesses are stably grouped
  by set and round ``r`` retires the ``r``-th access of every active
  set at once (sets are independent, so per-set temporal order is all
  that matters).

:func:`access_trace` first collapses runs of consecutive same-line
accesses (guaranteed hits on a write-allocate cache) so
element-granularity CPU sweeps cost line-granularity work, then picks
the core.  Property tests in ``tests/sim`` pin the result bit-identical
(hit masks, miss order, writebacks, final state) to a scalar replay of
the raw trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.units import is_power_of_two


#: Below this many (collapsed) accesses per segment, or when one set
#: receives more than 1/8 of them, lockstep rounds degenerate and the
#: scalar core is faster; the results are bit-identical either way.
_LOCKSTEP_MIN_ACCESSES = 64
_LOCKSTEP_SKEW_FACTOR = 8


class CacheSimState:
    """Mutable tag/MRU/dirty state of one simulated cache level."""

    def __init__(self, num_sets: int, ways: int, line_size: int) -> None:
        if not is_power_of_two(num_sets):
            raise ConfigurationError(
                f"simulated cache needs power-of-two sets, got {num_sets}"
            )
        if not is_power_of_two(line_size):
            raise ConfigurationError(
                f"simulated cache needs a power-of-two line, got {line_size}"
            )
        if ways <= 0 or ways > 62:
            raise ConfigurationError(f"ways must be in [1, 62], got {ways}")
        self.num_sets = num_sets
        self.ways = ways
        self.line_size = line_size
        self.line_shift = line_size.bit_length() - 1
        self.set_mask = num_sets - 1
        self.set_bits = num_sets.bit_length() - 1
        self.full_mask = (1 << ways) - 1
        #: (num_sets, ways) resident line tags, -1 = invalid way.
        self.tags = np.full((num_sets, ways), -1, dtype=np.int64)
        #: per-set MRU bitmask (bit w set = way w recently used).
        self.mru = np.zeros(num_sets, dtype=np.int64)
        #: per-set dirty bitmask.
        self.dirty = np.zeros(num_sets, dtype=np.int64)

    @property
    def resident_lines(self) -> int:
        """Valid lines currently held."""
        return int(np.count_nonzero(self.tags != -1))

    @property
    def dirty_lines(self) -> int:
        """Dirty lines currently held."""
        nonzero = self.dirty[self.dirty != 0]
        return int(sum(bin(int(v)).count("1") for v in nonzero))

    def invalidate(self) -> int:
        """Drop every line without writing back (returns lines dropped)."""
        count = self.resident_lines
        self.tags.fill(-1)
        self.mru.fill(0)
        self.dirty.fill(0)
        return count

    def flush(self) -> int:
        """Write back dirty lines and invalidate (returns dirty count)."""
        dirty = self.dirty_lines
        self.invalidate()
        return dirty

    def clone(self) -> "CacheSimState":
        """An independent copy (used by the equivalence tests)."""
        copy = CacheSimState(self.num_sets, self.ways, self.line_size)
        copy.tags = self.tags.copy()
        copy.mru = self.mru.copy()
        copy.dirty = self.dirty.copy()
        return copy

    def state_equal(self, other: "CacheSimState") -> bool:
        """Bit-exact state comparison."""
        return (
            np.array_equal(self.tags, other.tags)
            and np.array_equal(self.mru, other.mru)
            and np.array_equal(self.dirty, other.dirty)
        )


@dataclass
class SimAccessResult:
    """Outcome of replaying one trace segment through the simulator.

    Mirrors :class:`repro.soc.cache.AccessResult`: per-access hit flags
    in original order, missing line addresses in temporal order
    (line-aligned, for the next level), and the dirty writeback count.
    """

    hits: np.ndarray
    miss_line_addresses: np.ndarray
    writeback_lines: int

    @property
    def num_hits(self) -> int:
        """Number of hits in the segment."""
        return int(np.count_nonzero(self.hits))

    @property
    def num_misses(self) -> int:
        """Number of misses in the segment."""
        return len(self.hits) - self.num_hits


def access_trace(
    state: CacheSimState,
    addresses: np.ndarray,
    is_write: np.ndarray,
    write_back: bool = True,
    write_allocate: bool = True,
) -> SimAccessResult:
    """Replay a trace segment through the bit-PLRU cache.

    Runs of same-line accesses collapse to one access, then the
    lockstep core (or, for short or set-skewed segments, the scalar
    core) replays what is left.
    """
    n = len(addresses)
    if n == 0:
        return SimAccessResult(
            hits=np.empty(0, dtype=bool),
            miss_line_addresses=np.empty(0, dtype=np.int64),
            writeback_lines=0,
        )
    lines = np.asarray(addresses, dtype=np.int64) >> state.line_shift
    writes = np.ascontiguousarray(is_write, dtype=bool)
    core_lines = lines
    core_writes = writes
    keep_idx = None
    if write_back and write_allocate and n > 1:
        # Consecutive same-line accesses after the first are guaranteed
        # hits on a write-allocate cache (the first access leaves the
        # line resident): collapse each run to one access whose write
        # flag is the OR of the run (dirty state is preserved).
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
        idx = np.flatnonzero(keep)
        if len(idx) < n:
            keep_idx = idx
            core_lines = lines[idx]
            core_writes = np.logical_or.reduceat(writes, idx)

    m = len(core_lines)
    if m < _LOCKSTEP_MIN_ACCESSES:
        core_hits, miss_lines, writebacks = _core_scalar(
            state, core_lines, core_writes, write_back, write_allocate
        )
    else:
        core_hits, miss_lines, writebacks = _core_lockstep(
            state, core_lines, core_writes, write_back, write_allocate
        )

    if keep_idx is None:
        hits = core_hits
    else:
        hits = np.ones(n, dtype=bool)
        hits[keep_idx] = core_hits
    return SimAccessResult(
        hits=hits,
        miss_line_addresses=miss_lines << state.line_shift,
        writeback_lines=writebacks,
    )


def _core_scalar(
    state: CacheSimState,
    lines: np.ndarray,
    writes: np.ndarray,
    write_back: bool,
    write_allocate: bool,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Temporal-order replay; the semantics the lockstep core matches."""
    n = len(lines)
    hits = np.zeros(n, dtype=bool)
    misses: List[int] = []
    writebacks = 0
    tags = state.tags
    mru = state.mru
    dirty = state.dirty
    ways = state.ways
    full = state.full_mask
    set_mask = state.set_mask
    set_bits = state.set_bits
    line_list = lines.tolist()
    write_list = writes.tolist()
    for i in range(n):
        line = line_list[i]
        set_i = line & set_mask
        tag = line >> set_bits
        row = tags[set_i]
        way = -1
        for w in range(ways):
            if row[w] == tag:
                way = w
                break
        make_dirty = write_list[i] and write_back
        if way >= 0:
            hits[i] = True
        else:
            misses.append(line)
            if not (write_allocate or not write_list[i]):
                continue  # no-allocate write miss: bypass untouched
            # victim: first invalid way, else first clear MRU bit
            way = 0
            for w in range(ways):
                if row[w] == -1:
                    way = w
                    break
            else:
                m = int(mru[set_i])
                for w in range(ways):
                    if not (m >> w) & 1:
                        way = w
                        break
            if row[way] != -1 and (int(dirty[set_i]) >> way) & 1:
                writebacks += 1
            row[way] = tag
            dirty[set_i] &= ~(1 << way)
        if make_dirty:
            dirty[set_i] |= 1 << way
        m = int(mru[set_i]) | (1 << way)
        mru[set_i] = (1 << way) if m == full and ways > 1 else m
    miss_lines = (
        np.array(misses, dtype=np.int64) if misses else np.empty(0, dtype=np.int64)
    )
    return hits, miss_lines, writebacks


def _core_lockstep(
    state: CacheSimState,
    lines: np.ndarray,
    writes: np.ndarray,
    write_back: bool,
    write_allocate: bool,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Lockstep-over-sets replay.

    A stable argsort groups accesses by set while preserving temporal
    order inside each set; round ``r`` then retires the ``r``-th access
    of every set that still has one, as one batch of NumPy bit-ops.
    Sets are independent, so the result is bit-identical to the scalar
    temporal replay.
    """
    n = len(lines)
    sets_idx = lines & state.set_mask
    tags_in = lines >> state.set_bits
    order = np.argsort(sets_idx, kind="stable")
    s_sets = sets_idx[order]
    s_tags = tags_in[order]
    s_writes = writes[order]
    uniq, starts, counts = np.unique(s_sets, return_index=True, return_counts=True)
    desc = np.argsort(-counts, kind="stable")
    uniq = uniq[desc]
    starts = starts[desc]
    counts = counts[desc]
    if int(counts[0]) * _LOCKSTEP_SKEW_FACTOR > n:
        return _core_scalar(state, lines, writes, write_back, write_allocate)
    neg_counts = -counts
    hits = np.zeros(n, dtype=bool)
    writebacks = 0
    tags = state.tags
    mru = state.mru
    dirty = state.dirty
    ways = state.ways
    full = state.full_mask
    way_range = np.arange(ways, dtype=np.int64)
    one = np.int64(1)
    for r in range(int(counts[0])):
        active = int(np.searchsorted(neg_counts, -r, side="left"))
        su = uniq[:active]
        pos = starts[:active] + r
        t = s_tags[pos]
        w = s_writes[pos]
        rows = tags[su]  # (active, ways)
        hit_ways = rows == t[:, None]
        hit = hit_ways.any(axis=1)
        hit_way = np.argmax(hit_ways, axis=1)
        if write_allocate:
            alloc = ~hit
        else:
            alloc = ~hit & ~w
        # victim: first invalid way, else first clear MRU bit
        m = mru[su]
        invalid = rows == -1
        has_invalid = invalid.any(axis=1)
        invalid_way = np.argmax(invalid, axis=1)
        mru_clear = ((m[:, None] >> way_range) & 1) == 0
        clear_way = np.argmax(mru_clear, axis=1)
        victim = np.where(has_invalid, invalid_way, clear_way)
        way = np.where(hit, hit_way, victim)
        bit = one << way
        touched = hit | alloc
        evicted = rows[np.arange(active), victim]
        evict_dirty = alloc & (evicted != -1) & (((dirty[su] >> victim) & 1) != 0)
        writebacks += int(np.count_nonzero(evict_dirty))
        tags[su[alloc], way[alloc]] = t[alloc]
        d = dirty[su]
        d = np.where(alloc, d & ~bit, d)
        if write_back:
            d = np.where(touched & w, d | bit, d)
        dirty[su] = d
        new_m = m | bit
        if ways > 1:
            new_m = np.where(new_m == full, bit, new_m)
        mru[su] = np.where(touched, new_m, m)
        hits[order[pos]] = hit
    miss_lines = lines[~hits]
    return hits, miss_lines, writebacks
