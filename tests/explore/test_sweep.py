"""``sweep_space``: one batch characterization of every grid board."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.explore import Axis, BoardSpace, sweep_space
from repro.microbench.suite import MicrobenchmarkSuite


class TestSweep:
    def test_sweep_covers_every_grid_board(self, tx2_space):
        suite = MicrobenchmarkSuite()
        sweep = sweep_space(tx2_space, suite, parallel=False)
        assert sweep.num_boards == tx2_space.grid_size
        (panel,) = sweep.panels
        assert len(panel.devices) == tx2_space.grid_size
        assert panel.boards == tx2_space.grid_boards()
        for board, device in zip(panel.boards, panel.devices):
            assert device == suite.characterize(board)  # a memo hit

    def test_every_coherence_panel_is_swept(self):
        space = BoardSpace("tx2", axes=(Axis("zc_bandwidth", (0.5, 2.0)),),
                           coherence=("inherit", "io_coherent"))
        sweep = sweep_space(space, parallel=False)
        assert [panel.coherence for panel in sweep.panels] == \
            ["inherit", "io_coherent"]
        assert [len(panel.devices) for panel in sweep.panels] == [2, 2]

    def test_empty_space_is_an_explore_error(self, tx2_space, monkeypatch):
        monkeypatch.setattr(BoardSpace, "all_grid_boards", lambda self: [])
        with pytest.raises(ReproError) as excinfo:
            sweep_space(tx2_space, parallel=False)
        assert excinfo.value.code == "EXPLORE_FAILED"
