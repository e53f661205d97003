"""Exact set-associative cache simulation.

:class:`SetAssociativeCache` replays an address trace through a
write-back, write-allocate, true-LRU cache and reports hits, misses and
writebacks.  This is the reference model: the closed-form estimators in
:mod:`repro.soc.analytic` are validated against it.

A cache can be *disabled* — every access then misses and bypasses the
array without allocating.  This is how the zero-copy communication model
is realized on boards that turn off the last-level caches (Jetson
Nano/TX2, and the GPU LLC on Xavier).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterator, List, Set

import numpy as np

from repro.soc.config import CacheConfig


@dataclass
class CacheStats:
    """Aggregate counters for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    read_accesses: int = 0
    write_accesses: int = 0
    writebacks: int = 0
    flush_writebacks: int = 0
    invalidations: int = 0
    bypassed: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over accesses (0 when idle)."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        """Misses over accesses (0 when idle)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Element-wise sum, returned as a new object."""
        return CacheStats(
            accesses=self.accesses + other.accesses,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            read_accesses=self.read_accesses + other.read_accesses,
            write_accesses=self.write_accesses + other.write_accesses,
            writebacks=self.writebacks + other.writebacks,
            flush_writebacks=self.flush_writebacks + other.flush_writebacks,
            invalidations=self.invalidations + other.invalidations,
            bypassed=self.bypassed + other.bypassed,
        )

    def snapshot(self) -> "CacheStats":
        """A copy of the current counters."""
        return CacheStats(**vars(self))

    def delta_since(self, earlier: "CacheStats") -> "CacheStats":
        """Counters accumulated since ``earlier`` was snapshotted."""
        return CacheStats(
            accesses=self.accesses - earlier.accesses,
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            read_accesses=self.read_accesses - earlier.read_accesses,
            write_accesses=self.write_accesses - earlier.write_accesses,
            writebacks=self.writebacks - earlier.writebacks,
            flush_writebacks=self.flush_writebacks - earlier.flush_writebacks,
            invalidations=self.invalidations - earlier.invalidations,
            bypassed=self.bypassed - earlier.bypassed,
        )


@dataclass
class AccessResult:
    """Outcome of replaying one trace segment through a cache."""

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


class SetAssociativeCache:
    """Write-back, write-allocate, true-LRU set-associative cache.

    The tag store is one :class:`collections.OrderedDict` per set,
    mapping tag → dirty flag, ordered LRU-first.  All operations are
    O(1) per access, which keeps exact simulation usable up to a few
    million transactions.  The indices of the sets touched since the
    last clear are kept too, so occupancy queries, flushes and
    invalidations cost O(touched sets), not O(all sets).
    """

    def __init__(self, config: CacheConfig, enabled: bool = True) -> None:
        self.config = config
        self.enabled = enabled
        self.stats = CacheStats()
        self._line_shift = config.line_size.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(config.num_sets)]
        self._touched: Set[int] = set()

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------

    @property
    def resident_lines(self) -> int:
        """Lines currently valid in the cache."""
        return sum(len(s) for s in self._touched_sets())

    @property
    def dirty_lines(self) -> int:
        """Lines currently dirty."""
        return sum(1 for s in self._touched_sets() for dirty in s.values() if dirty)

    def _touched_sets(self) -> Iterator[OrderedDict]:
        """The sets accessed since the last clear (all others are empty)."""
        return (self._sets[i] for i in self._touched)

    def contains(self, address: int) -> bool:
        """True when the line holding ``address`` is resident."""
        line = address >> self._line_shift
        tag = line >> self._set_mask.bit_length()
        return tag in self._sets[line & self._set_mask]

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def access_trace(
        self, addresses: np.ndarray, is_write: np.ndarray
    ) -> AccessResult:
        """Replay a trace segment.

        Returns per-access hit flags, the line addresses that missed (in
        order, for the next level), and the number of dirty writebacks
        evicted during the segment.
        """
        n = len(addresses)
        if n == 0:
            return AccessResult(
                hits=np.empty(0, dtype=bool),
                miss_line_addresses=np.empty(0, dtype=np.int64),
                writeback_lines=0,
            )
        writes = int(np.count_nonzero(is_write))
        self.stats.accesses += n
        self.stats.write_accesses += writes
        self.stats.read_accesses += n - writes

        lines = np.asarray(addresses, dtype=np.int64) >> self._line_shift
        if not self.enabled:
            # Disabled caches pass accesses through untouched, at the
            # original (transaction) granularity — this is the zero-copy
            # uncached path.
            self.stats.misses += n
            self.stats.bypassed += n
            return AccessResult(
                hits=np.zeros(n, dtype=bool),
                miss_line_addresses=np.asarray(addresses, dtype=np.int64),
                writeback_lines=0,
            )

        set_bits = self._set_mask.bit_length()
        set_idx = (lines & self._set_mask).tolist() if self._set_mask else [0] * n
        tags = (lines >> set_bits).tolist()
        write_list = np.asarray(is_write, dtype=bool).tolist()
        line_list = lines.tolist()
        self._touched.update(set_idx)

        hits = np.zeros(n, dtype=bool)
        misses: List[int] = []
        writebacks = 0
        ways = self.config.ways
        sets = self._sets

        write_back = self.config.write_back
        write_allocate = self.config.write_allocate
        for i in range(n):
            s = sets[set_idx[i]]
            tag = tags[i]
            dirty = write_list[i] and write_back
            if tag in s:
                hits[i] = True
                s[tag] = s.pop(tag) or dirty  # move to MRU, accumulate dirty
            else:
                misses.append(line_list[i])
                if write_allocate or not write_list[i]:
                    if len(s) >= ways:
                        _evicted_tag, was_dirty = s.popitem(last=False)
                        if was_dirty:
                            writebacks += 1
                    s[tag] = dirty

        num_hits = int(np.count_nonzero(hits))
        self.stats.hits += num_hits
        self.stats.misses += n - num_hits
        self.stats.writebacks += writebacks
        miss_addresses = (np.array(misses, dtype=np.int64) << self._line_shift
                          if misses else np.empty(0, dtype=np.int64))
        return AccessResult(
            hits=hits,
            miss_line_addresses=miss_addresses,
            writeback_lines=writebacks,
        )

    def access_single(self, address: int, is_write: bool = False) -> bool:
        """Replay one access; returns True on hit."""
        result = self.access_trace(
            np.array([address], dtype=np.int64), np.array([is_write])
        )
        return bool(result.hits[0])

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def flush(self) -> int:
        """Write back all dirty lines and invalidate everything.

        Returns the number of lines written back.  This is the software
        coherence action the standard-copy model performs around each
        GPU kernel invocation.
        """
        dirty = self.dirty_lines
        invalidated = self.resident_lines
        self._clear()
        self.stats.flush_writebacks += dirty
        self.stats.invalidations += invalidated
        return dirty

    def invalidate(self) -> int:
        """Drop all lines without writing back (returns lines dropped)."""
        count = self.resident_lines
        self._clear()
        self.stats.invalidations += count
        return count

    def _clear(self) -> None:
        """Empty every touched set."""
        for s in self._touched_sets():
            s.clear()
        self._touched.clear()

    def warm_with(self, addresses: np.ndarray) -> None:
        """Pre-load lines (reads) without counting statistics."""
        saved = self.stats
        self.stats = CacheStats()
        self.access_trace(
            np.asarray(addresses, dtype=np.int64),
            np.zeros(len(addresses), dtype=bool),
        )
        self.stats = saved

    def reset(self) -> None:
        """Clear contents and statistics."""
        self._clear()
        self.stats = CacheStats()
