"""One bundled-app workload builder: ``repro.apps.build_workload``."""

import pytest

from repro.apps import APPS, build_workload
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


@pytest.mark.parametrize("app", APPS)
def test_every_bundled_app_builds(app):
    assert build_workload(app, board_name="tx2").name


def _app_arguments(parser):
    """``(command, dest)`` -> the action of every CLI argument that
    names bundled apps (``app``/``apps``, or an ``APP`` metavar)."""
    import argparse

    found = {}
    for action in parser._actions:
        if not isinstance(action, argparse._SubParsersAction):
            continue
        for command, sub in action.choices.items():
            for arg in sub._actions:
                if arg.dest in ("app", "apps") or arg.metavar == "APP":
                    found[(command, arg.dest)] = arg
    return found


def test_every_cli_app_argument_accepts_exactly_the_bundled_apps():
    from repro.cli import build_parser

    arguments = _app_arguments(build_parser())
    assert set(arguments) == {
        ("tune", "app"), ("compare", "app"), ("stream", "app"),
        ("stream", "drift_to"), ("stream", "contend"), ("explore", "app"),
        ("sweep", "app"), ("inject", "app"), ("validate", "app"),
        ("bench", "apps"), ("crosscheck", "apps"), ("chaos", "apps"),
    }
    for name, action in arguments.items():
        assert tuple(action.choices) == APPS, name
    for command in ("bench", "crosscheck", "chaos"):
        assert tuple(arguments[(command, "apps")].default) == APPS
