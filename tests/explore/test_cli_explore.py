"""CLI surface of the explorer: ``repro explore`` and
``repro cache info --json``."""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from repro.analysis.tables import _cell
from repro.apps import build_workload
from repro.cli import build_parser, main
from repro.explore import Axis, BoardSpace
from repro.microbench.suite import MicrobenchmarkSuite
from repro.model.framework import Framework


class TestCacheInfoJson:
    def test_json_output_parses(self, tmp_path, capsys):
        assert main(["characterize", "tx2",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--dir", str(tmp_path),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["directory"] == str(tmp_path)
        assert payload["total_entries"] == 1
        assert payload["num_shards"] == 8
        assert len(payload["shards"]) == 8
        (entry,) = payload["entries"]
        assert entry["name"].startswith("tx2")
        assert entry["status"] == "ok"

    def test_json_on_empty_store(self, tmp_path, capsys):
        assert main(["cache", "info", "--dir", str(tmp_path),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_entries"] == 0
        assert payload["entries"] == []


class TestExploreParser:
    def test_defaults(self):
        args = build_parser().parse_args(["explore"])
        assert args.base == "tx2"
        assert args.app == "shwfs"
        assert args.coherence == ["inherit"]

    def test_axis_spec(self):
        args = build_parser().parse_args(
            ["explore", "--axis", "dram_bandwidth=0.8,1.0,1.25"])
        assert args.axis == ["dram_bandwidth=0.8,1.0,1.25"]

    def test_unknown_base_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explore", "--base", "orin"])


class TestExploreCommand:
    def test_malformed_axis_exits_with_code(self, capsys):
        assert main(["explore", "--axis", "dram_bandwidth"]) == 2
        err = capsys.readouterr().err
        assert "EXPLORE_BAD_AXIS" in err

    def test_unknown_axis_exits_with_code(self, capsys):
        assert main(["explore", "--axis", "warp_width=1,2"]) == 2
        assert "EXPLORE_BAD_AXIS" in capsys.readouterr().err


#: A 2x2 space around the TX2 preset, swept serially without a store.
SPACE = BoardSpace("tx2", axes=(Axis("dram_bandwidth", (0.8, 1.25)),
                                Axis("zc_bandwidth", (0.5, 2.0))))
SWEEP_ARGS = ["explore", "--base", "tx2",
              "--axis", "dram_bandwidth=0.8,1.25",
              "--axis", "zc_bandwidth=0.5,2.0",
              "--app", "orbslam", "--jobs", "1", "--no-cache"]


@pytest.fixture(scope="module")
def sweep_outputs():
    """Stdout of two identical ``repro explore`` runs."""
    outputs = []
    for _ in range(2):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(SWEEP_ARGS) == 0
        outputs.append(buffer.getvalue())
    return outputs


def _rows(text):
    """The table's data rows, as lists of stripped cells."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("-"))
    return [[cell.strip() for cell in line.split(" | ")]
            for line in lines[start + 1:] if " | " in line]


class TestExploreSweep:
    def test_one_row_per_grid_board(self, sweep_outputs):
        names = [row[0] for row in _rows(sweep_outputs[0])]
        assert names == [board.name for board in SPACE.all_grid_boards()]

    def test_rows_match_fresh_characterizations_and_tunes(self,
                                                           sweep_outputs):
        rows = _rows(sweep_outputs[0])
        assert len(rows) == SPACE.grid_size
        for board, row in zip(SPACE.all_grid_boards(), rows):
            device = MicrobenchmarkSuite().characterize(board)
            report = Framework().tune(
                build_workload("orbslam", board_name=board.name), board)
            assert row == [board.name,
                           _cell(device.gpu_threshold_pct),
                           _cell(device.cpu_threshold_pct),
                           report.recommendation.model.value]

    def test_two_runs_print_identical_output(self, sweep_outputs):
        first, second = sweep_outputs
        assert first == second
