"""One bundled-app workload builder: ``repro.apps.build_workload``."""

import pytest

from repro.apps import build_workload
from repro.apps.orbslam import OrbPipeline
from repro.apps.shwfs import ShwfsPipeline
from repro.errors import ConfigurationError
from repro.microbench.suite import MicrobenchmarkSuite
from repro.perf.cache import cache_key
from repro.soc.board import get_board

PIPELINES = {"shwfs": ShwfsPipeline, "orbslam": OrbPipeline}


@pytest.mark.parametrize("board_name", ["nano", "tx2", "xavier"])
@pytest.mark.parametrize("app", sorted(PIPELINES))
def test_key_equals_the_default_pipelines(app, board_name):
    board = get_board(board_name)
    signature = MicrobenchmarkSuite().profile_signature("SC")
    built = build_workload(app, board_name=board_name)
    expected = PIPELINES[app]().workload(board_name=board_name)
    assert built == expected
    assert cache_key(board, signature, built) == \
        cache_key(board, signature, expected)


def test_unknown_app_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="unknown application"):
        build_workload("doom")
