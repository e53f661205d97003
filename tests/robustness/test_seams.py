"""Fault injection stays at its seams.

The injector patches a fixed set of methods.  Only code that computes
*around* one of them (the suite's caches and process pools, the MB2
batch engine) may consult ``injection_active()``; every other
path reaches the seams, or none of them, the same way with or without
an injector.  These tests keep both lists from growing silently, and
pin the suite's cache rule: nothing computed inside an injection scope
answers outside it, and no clean memo entry answers inside one.
"""

import importlib
import inspect
import pathlib
import pkgutil

import pytest

import repro
from repro.microbench.suite import MicrobenchmarkSuite
from repro.perf.cache import characterization_to_dict
from repro.robustness import inject
from repro.robustness.faults import FaultPlan
from repro.robustness.inject import inject_faults
from repro.soc.board import get_board

#: ``(module, class, method)`` of every method the injector patches.
SEAMS = {
    ("repro.soc.soc", "SoC", "_copy_time"),
    ("repro.soc.soc", "SoC", "flush_cpu_caches"),
    ("repro.soc.soc", "SoC", "flush_gpu_caches"),
    ("repro.profiling.profiler", "Profiler", "from_report"),
    ("repro.profiling.profiler", "Profiler", "profile"),
    ("repro.microbench.suite", "MicrobenchmarkSuite", "run_all"),
}

#: Modules outside ``robustness/`` that may consult ``injection_active``.
INJECTION_AWARE = {"microbench/suite.py", "perf/batch.py"}


def _modules():
    modules = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        modules.append(importlib.import_module(info.name))
    return modules


def _bindings(modules):
    """Every module global and class attribute, by identity."""
    bound = {}
    for module in modules:
        for name, value in vars(module).items():
            bound[(module.__name__, None, name)] = value
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    bound[(module.__name__, name, attr)] = member
    return bound


def _changed(before, after):
    return {key for key in before.keys() | after.keys()
            if before.get(key) is not after.get(key)}


class TestPatchedSeams:
    def test_injector_patches_exactly_the_seams(self):
        modules = _modules()
        before = _bindings(modules)
        with inject_faults(FaultPlan(seed=0)):
            during = _bindings(modules)
        after = _bindings(modules)
        assert _changed(before, during) == SEAMS
        assert not _changed(before, after)

    def test_every_seam_is_documented(self):
        for _, cls, method in SEAMS:
            assert f":meth:`{cls}.{method}`" in inject.__doc__


class TestInjectionAwareModules:
    def test_only_seam_adjacent_modules_consult_injection(self):
        root = pathlib.Path(repro.__file__).parent
        aware = {
            path.relative_to(root).as_posix()
            for path in root.rglob("*.py")
            if "injection_active" in path.read_text(encoding="utf-8")
        }
        outside = {path for path in aware
                   if not path.startswith("robustness/")}
        assert outside == INJECTION_AWARE


@pytest.fixture(scope="module")
def stall_plan():
    return FaultPlan.from_cli(1, ["copy-stall::500"])


class TestCharacterizationScope:
    def test_scope_answer_never_answers_outside(self, stall_plan):
        board = get_board("tx2")
        suite = MicrobenchmarkSuite()
        with inject_faults(stall_plan) as injector:
            perturbed = suite.characterize(board)
            assert suite.characterize(board) is perturbed  # once per scope
            assert suite.memoized(board) is perturbed
        assert injector.log.counts().get("copy-stall")
        clean = suite.characterize(board)
        assert clean is not perturbed
        assert suite.memoized(board) is clean
        fresh = MicrobenchmarkSuite().characterize(board)
        assert characterization_to_dict(clean) == \
            characterization_to_dict(fresh)
        assert characterization_to_dict(perturbed) != \
            characterization_to_dict(fresh)

    def test_clean_memo_never_answers_inside(self, stall_plan):
        board = get_board("tx2")
        suite = MicrobenchmarkSuite()
        clean = suite.characterize(board)
        with inject_faults(stall_plan) as injector:
            perturbed = suite.characterize(board)
            assert suite.memoized(board) is perturbed
        assert injector.log.counts().get("copy-stall")
        assert perturbed is not clean
        assert suite.characterize(board) is clean

    def test_memo_keeps_only_the_latest_scope(self, stall_plan):
        board = get_board("tx2")
        suite = MicrobenchmarkSuite()
        clean = suite.characterize(board)
        for _ in range(3):
            with inject_faults(stall_plan) as injector:
                suite.characterize(board)
        for memo in (suite._cache, suite._raw):
            scopes = {key[1] for key in memo if isinstance(key, tuple)}
            assert scopes == {injector}
        assert suite.characterize(board) is clean
