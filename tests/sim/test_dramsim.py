"""Unit tests of the DDR row-buffer model."""

import numpy as np

from repro.sim import dramsim
from repro.sim.config import SimConfig

CONFIG = SimConfig()


def replay(addrs, config=CONFIG, state=None):
    state = state or dramsim.DRAMSimState(config)
    return state, dramsim.access(state, np.asarray(addrs, dtype=np.int64))


class TestRowBuffer:
    def test_empty_trace(self):
        _, result = replay([])
        assert result.accesses == 0
        assert result.busy_cycles(CONFIG) == 0

    def test_first_access_misses_then_hits(self):
        _, result = replay([0, 64, 128])
        # All inside row 0 of bank 0: one activate, then CAS-only hits.
        assert result.row_misses == 1
        assert result.row_hits == 2
        assert list(result.hit_mask) == [False, True, True]

    def test_row_conflict_in_same_bank(self):
        row = CONFIG.dram_row_bytes
        stride = row * CONFIG.dram_banks  # same bank, different row
        _, result = replay([0, stride, 0])
        assert result.row_misses == 3
        assert result.row_hits == 0

    def test_banks_are_independent(self):
        row = CONFIG.dram_row_bytes
        # Alternating banks: each bank keeps its own open row.
        _, result = replay([0, row, 0, row])
        assert result.row_misses == 2
        assert result.row_hits == 2

    def test_open_rows_persist_across_segments(self):
        state, first = replay([0])
        assert first.row_misses == 1
        _, second = replay([32], state=state)
        assert second.row_hits == 1

    def test_reset_precharges(self):
        state, _ = replay([0])
        state.reset()
        _, result = replay([0], state=state)
        assert result.row_misses == 1

    def test_busy_cycles_exact(self):
        _, result = replay([0, 64, CONFIG.dram_row_bytes * CONFIG.dram_banks])
        expected = (
            result.row_hits * CONFIG.row_hit_cycles
            + result.row_misses * CONFIG.row_miss_cycles
        )
        assert result.busy_cycles(CONFIG) == expected
        assert isinstance(result.busy_cycles(CONFIG), int)


class TestMixEfficiency:
    def test_empty_defaults_to_hit_efficiency(self):
        _, result = replay([])
        assert result.mix_efficiency(CONFIG) == CONFIG.row_hit_efficiency

    def test_all_hits_and_all_misses_bracket(self):
        _, streaming = replay(list(range(0, 2048, 64)))
        row = CONFIG.dram_row_bytes
        stride = row * CONFIG.dram_banks
        _, hostile = replay([0, stride, 0, stride])
        assert hostile.mix_efficiency(CONFIG) < streaming.mix_efficiency(CONFIG)
        assert streaming.mix_efficiency(CONFIG) <= CONFIG.row_hit_efficiency
        assert hostile.mix_efficiency(CONFIG) >= CONFIG.row_miss_efficiency

    def test_blend_is_linear_in_hit_fraction(self):
        _, result = replay([0, 64])  # one miss, one hit
        expected = 0.5 * CONFIG.row_hit_efficiency + 0.5 * CONFIG.row_miss_efficiency
        assert result.mix_efficiency(CONFIG) == expected
