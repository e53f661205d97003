"""Scalar references the simulated backend's replays are pinned to.

Each replays a trace one access at a time in temporal order.  The
production engines (:func:`repro.sim.engine.access_trace`,
:func:`repro.sim.dramsim.access`) must match them bit for bit; the
property tests in this package and ``benchmarks/bench_sim.py`` call
them directly.
"""

import numpy as np

from repro.sim.dramsim import DRAMAccessResult, DRAMSimState
from repro.sim.engine import CacheSimState, SimAccessResult, _core_scalar


def access_trace_scalar(
    state: CacheSimState,
    addresses: np.ndarray,
    is_write: np.ndarray,
    write_back: bool = True,
    write_allocate: bool = True,
) -> SimAccessResult:
    """The raw trace through the scalar bit-PLRU core (no run collapse)."""
    lines = np.asarray(addresses, dtype=np.int64) >> state.line_shift
    writes = np.ascontiguousarray(is_write, dtype=bool)
    hits, miss_lines, writebacks = _core_scalar(
        state, lines, writes, write_back, write_allocate
    )
    return SimAccessResult(
        hits=hits,
        miss_line_addresses=miss_lines << state.line_shift,
        writeback_lines=writebacks,
    )


def dram_access_scalar(
    state: DRAMSimState, addresses: np.ndarray
) -> DRAMAccessResult:
    """Row-buffer replay, one access at a time."""
    rows_global = np.asarray(addresses, dtype=np.int64) >> state.row_shift
    bank_list = (rows_global & state.bank_mask).tolist()
    row_list = (rows_global >> state.bank_bits).tolist()
    n = len(bank_list)
    hit_mask = np.zeros(n, dtype=bool)
    open_rows = state.open_rows
    for i in range(n):
        bank = bank_list[i]
        row = row_list[i]
        hit_mask[i] = open_rows[bank] == row
        open_rows[bank] = row
    hits = int(np.count_nonzero(hit_mask))
    return DRAMAccessResult(row_hits=hits, row_misses=n - hits,
                            hit_mask=hit_mask)
