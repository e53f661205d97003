"""DDR row-buffer (open-page) simulation.

Each DRAM bank holds one open row; an access to the open row is a
row-buffer *hit* (CAS only), any other row is a *miss* (precharge +
activate + CAS).  The simulator tracks the open row per bank across an
access trace and reports:

- exact integer hit/miss and command-cycle counts (pinned bit-identical
  to a temporal-order scalar replay by property tests), and
- a *mix efficiency* — the sustained fraction of peak pin bandwidth for
  the observed hit/miss blend — which the hierarchy turns into wall
  time.  Row-hit-heavy streaming sustains
  :attr:`~repro.sim.config.SimConfig.row_hit_efficiency` of peak;
  row-miss-heavy (random) traffic only
  :attr:`~repro.sim.config.SimConfig.row_miss_efficiency`.  The blend
  brackets the analytic model's flat ``DRAMConfig.efficiency`` and is
  deliberately board-independent so calibration stays stable.

The replay exploits bank independence the same way the cache engine
exploits set independence: a stable argsort by bank makes every row
transition a pairwise comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.config import SimConfig


class DRAMSimState:
    """Open-row tracking for every bank (-1 = all banks precharged)."""

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.bank_mask = config.dram_banks - 1
        self.bank_bits = config.dram_banks.bit_length() - 1
        self.row_shift = config.dram_row_bytes.bit_length() - 1
        self.open_rows = np.full(config.dram_banks, -1, dtype=np.int64)

    def reset(self) -> None:
        """Precharge every bank."""
        self.open_rows.fill(-1)

    def clone(self) -> "DRAMSimState":
        """An independent copy (used by the equivalence tests)."""
        copy = DRAMSimState(self.config)
        copy.open_rows = self.open_rows.copy()
        return copy


@dataclass(frozen=True)
class DRAMAccessResult:
    """Outcome of one trace segment against the row buffers."""

    row_hits: int
    row_misses: int
    hit_mask: np.ndarray

    @property
    def accesses(self) -> int:
        """Total accesses in the segment."""
        return self.row_hits + self.row_misses

    def busy_cycles(self, config: SimConfig) -> int:
        """Exact DRAM command cycles for the segment."""
        return (
            self.row_hits * config.row_hit_cycles
            + self.row_misses * config.row_miss_cycles
        )

    def mix_efficiency(self, config: SimConfig) -> float:
        """Sustained fraction of peak bandwidth for this hit/miss mix."""
        if self.accesses == 0:
            return config.row_hit_efficiency
        hit_fraction = self.row_hits / self.accesses
        return (
            hit_fraction * config.row_hit_efficiency
            + (1.0 - hit_fraction) * config.row_miss_efficiency
        )


def access(state: DRAMSimState, addresses: np.ndarray) -> DRAMAccessResult:
    """Replay ``addresses`` (byte addresses) through the row buffers."""
    n = len(addresses)
    if n == 0:
        return DRAMAccessResult(
            row_hits=0, row_misses=0, hit_mask=np.empty(0, dtype=bool)
        )
    rows_global = np.asarray(addresses, dtype=np.int64) >> state.row_shift
    banks = rows_global & state.bank_mask
    rows = rows_global >> state.bank_bits
    hit_mask = _access_by_bank(state, banks, rows)
    hits = int(np.count_nonzero(hit_mask))
    return DRAMAccessResult(row_hits=hits, row_misses=n - hits, hit_mask=hit_mask)


def _access_by_bank(
    state: DRAMSimState, banks: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Banks are independent: group by bank (stable, so per-bank
    temporal order survives) and compare each access with its
    predecessor in the same bank; the first access per bank compares
    with the carried-in open row."""
    n = len(banks)
    order = np.argsort(banks, kind="stable")
    b_s = banks[order]
    r_s = rows[order]
    same_bank = np.empty(n, dtype=bool)
    same_bank[0] = False
    np.equal(b_s[1:], b_s[:-1], out=same_bank[1:])
    hit_s = np.empty(n, dtype=bool)
    hit_s[0] = False
    np.equal(r_s[1:], r_s[:-1], out=hit_s[1:])
    hit_s &= same_bank
    first = ~same_bank
    hit_s[first] = state.open_rows[b_s[first]] == r_s[first]
    last = np.empty(n, dtype=bool)
    last[-1] = True
    np.not_equal(b_s[1:], b_s[:-1], out=last[:-1])
    state.open_rows[b_s[last]] = r_s[last]
    hit_mask = np.empty(n, dtype=bool)
    hit_mask[order] = hit_s
    return hit_mask
