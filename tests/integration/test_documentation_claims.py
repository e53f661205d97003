"""Documentation-drift guard.

README.md and EXPERIMENTS.md quote measured numbers.  These tests
recompute the headline figures and assert they still match what the
documents claim, so the docs cannot silently rot as the model evolves.
"""

import pathlib

import pytest

from repro.analysis.tables import paper_speedup_pct
from repro.apps.shwfs import ShwfsPipeline
from repro.model.framework import Framework
from repro.soc.board import get_board
from repro.units import to_gbps

ROOT = pathlib.Path(__file__).parent.parent.parent


@pytest.fixture(scope="module")
def framework(characterization_suite):
    return Framework(suite=characterization_suite)


class TestReadmeHeadlines:
    """The README's "Reproduction status" table."""

    def test_table1_tx2_row(self, tx2_device):
        # README claims: 1.28 / 97.07 / 103.84
        assert to_gbps(tx2_device.gpu_cache_throughput["ZC"]) == \
            pytest.approx(1.28, abs=0.02)
        assert to_gbps(tx2_device.gpu_cache_throughput["SC"]) == \
            pytest.approx(97.07, abs=1.0)
        assert to_gbps(tx2_device.gpu_cache_throughput["UM"]) == \
            pytest.approx(103.84, abs=1.0)

    def test_shwfs_speedups_row(self, framework):
        # README claims: −30 % / −5 % / +35 %
        claimed = {"nano": -30.0, "tx2": -5.0, "xavier": 35.0}
        pipeline = ShwfsPipeline()
        for board_name, expected in claimed.items():
            results = framework.compare_models(
                pipeline.workload(board_name=board_name),
                get_board(board_name),
            )
            measured = paper_speedup_pct(
                results["SC"].time_per_iteration_s,
                results["ZC"].time_per_iteration_s,
            )
            assert measured == pytest.approx(expected, abs=4.0), board_name

    def test_mb3_row(self, framework, xavier_device):
        # README claims: +165 % / +184 % on Xavier.
        raw = framework.suite.raw_results(get_board("xavier"))
        assert raw.third.zc_faster_than("SC") == pytest.approx(165.0, abs=15.0)
        assert raw.third.zc_faster_than("UM") == pytest.approx(184.0, abs=15.0)


class TestDocumentsMentionKeyFacts:
    """Sanity: the documents exist and state the load-bearing facts."""

    def test_readme_quotes_current_calibration(self):
        readme = (ROOT / "README.md").read_text()
        for token in ("97.07", "1.28", "DAC 2021", "EXPERIMENTS.md"):
            assert token in readme, token

    def test_experiments_covers_every_artefact(self):
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        for token in ("Table I", "Table II", "Table III", "Table IV",
                      "Table V", "Fig. 3", "Fig. 5", "Fig. 6", "Fig. 7",
                      "known deviations"):
            assert token in experiments, token

    def test_design_records_substitutions(self):
        design = (ROOT / "DESIGN.md").read_text()
        for token in ("Substitutions", "Per-experiment index",
                      "Jetson Nano/TX2/AGX Xavier".split("/")[0]):
            assert token in design, token

    def test_calibration_doc_lists_inputs(self):
        calibration = (ROOT / "docs" / "CALIBRATION.md").read_text()
        for token in ("Table I", "97.34", "emerge"):
            assert token in calibration, token
