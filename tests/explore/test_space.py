"""Property and unit tests for the design-space generator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ReproError
from repro.explore import AXIS_NAMES, Axis, BoardSpace, default_axes
from repro.robustness.guards import validate
from repro.soc.board import derive_board, get_board


@pytest.fixture(scope="module")
def shwfs_workload_tx2():
    from repro.apps.shwfs import ShwfsPipeline

    return ShwfsPipeline().workload(board_name=get_board("tx2").name)


class TestAxis:
    def test_known_names_only(self):
        with pytest.raises(ReproError):
            Axis("warp_width", (0.5, 1.0))

    def test_values_strictly_increasing(self):
        with pytest.raises(ReproError):
            Axis("dram_bandwidth", (1.0, 1.0))
        with pytest.raises(ReproError):
            Axis("dram_bandwidth", (1.25, 0.8))

    def test_at_least_two_values(self):
        with pytest.raises(ReproError):
            Axis("gpu_clock", (1.0,))

    def test_lo_hi(self):
        axis = Axis("gpu_clock", (0.8, 1.0, 1.25))
        assert axis.lo == pytest.approx(0.8)
        assert axis.hi == pytest.approx(1.25)


class TestBoardSpace:
    def test_default_axes_cover_known_names(self):
        for axis in default_axes():
            assert axis.name in AXIS_NAMES

    def test_grid_shape_and_size(self):
        space = BoardSpace("tx2")
        assert space.grid_size == len(list(space.grid_points()))
        expected = 1
        for axis in space.axes:
            expected *= len(axis.values)
        assert space.grid_size == expected

    def test_duplicate_axes_rejected(self):
        with pytest.raises(ReproError):
            BoardSpace("tx2", axes=(
                Axis("gpu_clock", (0.8, 1.0)),
                Axis("gpu_clock", (1.0, 1.25)),
            ))

    def test_unknown_coherence_rejected(self):
        with pytest.raises(ReproError):
            BoardSpace("tx2", coherence=("write_through",))

    def test_board_names_unique(self):
        space = BoardSpace("tx2")
        names = [b.name for b in space.all_grid_boards()]
        assert len(names) == len(set(names))

    def test_base_point_reproduces_preset_fields(self):
        space = BoardSpace("tx2")
        board = space.board_at(tuple(1.0 for _ in space.axes))
        base = get_board("tx2")
        assert board.dram.peak_bandwidth == pytest.approx(
            base.dram.peak_bandwidth)
        assert board.gpu.frequency_hz == pytest.approx(base.gpu.frequency_hz)


class TestDerivedBoardProperties:
    @settings(max_examples=6, deadline=None)
    @given(ratios=st.tuples(*(st.floats(axis.lo, axis.hi)
                              for axis in default_axes())))
    def test_sampled_boards_pass_guard_suite(self, shwfs_workload_tx2,
                                             ratios):
        # Off-grid ratios anywhere inside each default axis's range.
        scales = {axis.name: ratio
                  for axis, ratio in zip(default_axes(), ratios)}
        board = derive_board(get_board("tx2"), "tx2-sampled", **scales)
        report = validate(board, shwfs_workload_tx2,
                          models=("SC", "ZC"), characterize=False)
        assert not report.violations, report.render()

    def test_grid_boards_pass_guard_suite(self, shwfs_workload_tx2):
        space = BoardSpace("tx2", axes=(
            Axis("dram_bandwidth", (0.8, 1.25)),
            Axis("zc_bandwidth", (0.5, 2.0)),
        ))
        for board in space.all_grid_boards():
            report = validate(board, shwfs_workload_tx2,
                              models=("SC", "ZC"), characterize=False)
            assert not report.violations, report.render()

    def test_llc_size_must_stay_power_of_two(self):
        base = get_board("tx2")
        with pytest.raises((ReproError, ConfigurationError)):
            derive_board(base, "bad-llc", llc_size=1.3)
