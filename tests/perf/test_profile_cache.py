"""Profiles as content-keyed store entries.

An :class:`~repro.profiling.counters.AppProfile` is a pure function of
the workload's content, the board, the model, the timing backend and
the package version, so it is memoized and persisted under a hash of
exactly those: every input change must re-key the entry, equal content
must share it, and what the store hands back must be the computed
profile bit for bit.
"""

import copy
import dataclasses
import enum
import gc
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.apps import build_workload
from repro.apps.orbslam import build_orbslam_workload
from repro.apps.shwfs import build_shwfs_workload
from repro.kernels.ops import OpMix
from repro.kernels.patterns import LinearPattern
from repro.microbench.suite import MicrobenchmarkSuite
from repro.model.framework import Framework
from repro.obs import metrics, state, trace
from repro.perf import cache
from repro.perf.cache import ShardedCharacterizationStore, cache_key
from repro.profiling.profiler import Profiler
from repro.sim.backend import AnalyticBackend, SimulatedBackend
from repro.sim.config import SimConfig
from repro.soc.board import get_board


@dataclasses.dataclass(frozen=True)
class _OtherLinearPattern(LinearPattern):
    """A pattern type with exactly :class:`LinearPattern`'s fields."""


def profile_key(workload, board=None, model="SC", backend=None):
    suite = MicrobenchmarkSuite(backend=backend)
    return cache_key(board or get_board("tx2"),
                     suite.profile_signature(model), workload)


def _leaves(value, path=()):
    """``(path, value)`` of every non-dataclass field, recursively."""
    for f in dataclasses.fields(value):
        inner = getattr(value, f.name)
        if dataclasses.is_dataclass(inner):
            yield from _leaves(inner, path + (f.name,))
        else:
            yield path + (f.name,), inner


def _perturbed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, enum.Enum):
        return next(m for m in type(value) if m is not value)
    if isinstance(value, (int, float)):
        return value * 2 + 1
    if isinstance(value, str):
        return value + "-x"
    raise TypeError(f"no perturbation for {value!r}")


def _replaced(value, path, new):
    """A copy of ``value`` with the field at ``path`` set to ``new``
    (bypassing validation: the key only reads fields)."""
    out = copy.copy(value)
    inner = new if len(path) == 1 else \
        _replaced(getattr(value, path[0]), path[1:], new)
    object.__setattr__(out, path[0], inner)
    return out


class TestKeyCoverage:
    def test_every_board_field_rekeys(self):
        workload = build_shwfs_workload()
        board = get_board("tx2")
        base = profile_key(workload, board)
        keys = {base}
        leaves = list(_leaves(board))
        assert len(leaves) > 50
        for path, value in leaves:
            variant = _replaced(board, path, _perturbed(value))
            key = profile_key(workload, variant)
            assert key not in keys, f"BoardConfig.{'.'.join(path)} " \
                                    f"does not re-key the profile"
            keys.add(key)

    def test_every_simconfig_field_rekeys(self):
        workload = build_shwfs_workload()
        base = profile_key(workload, backend=SimulatedBackend())
        assert base != profile_key(workload, backend=AnalyticBackend())
        for f in dataclasses.fields(SimConfig):
            config = _replaced(SimConfig(), (f.name,),
                               _perturbed(getattr(SimConfig(), f.name)))
            key = profile_key(workload,
                              backend=SimulatedBackend(config=config))
            assert key != base, f"SimConfig.{f.name} does not re-key"

    @pytest.mark.parametrize("change", [
        "buffer_size", "op_count", "pattern_parameter", "pattern_class",
        "iterations",
    ])
    def test_workload_changes_rekey(self, change):
        workload = build_shwfs_workload()
        kernel = workload.gpu_kernel
        if change == "buffer_size":
            first = workload.buffers[0]
            changed = dataclasses.replace(workload, buffers=(
                dataclasses.replace(first,
                                    num_elements=first.num_elements + 1),
                *workload.buffers[1:]))
        elif change == "op_count":
            counts = dict(kernel.ops.counts)
            counts["add"] += 1
            changed = dataclasses.replace(workload, gpu_kernel=(
                dataclasses.replace(kernel, ops=OpMix(counts))))
        elif change == "pattern_parameter":
            changed = dataclasses.replace(workload, gpu_kernel=(
                dataclasses.replace(kernel, pattern=dataclasses.replace(
                    kernel.pattern, repeats=kernel.pattern.repeats + 1))))
        elif change == "pattern_class":
            # same fields and values, another shape: the type is content
            pattern = kernel.pattern
            assert type(pattern) is LinearPattern
            changed = dataclasses.replace(workload, gpu_kernel=(
                dataclasses.replace(kernel, pattern=_OtherLinearPattern(
                    **dataclasses.asdict(pattern)))))
        else:
            changed = dataclasses.replace(
                workload, iterations=workload.iterations + 1)
        assert profile_key(changed) != profile_key(workload)

    def test_model_rekeys(self):
        workload = build_shwfs_workload()
        keys = {profile_key(workload, model=m) for m in ("SC", "UM", "ZC")}
        assert len(keys) == 3
        assert profile_key(workload, model="zc") == \
            profile_key(workload, model="ZC")

    def test_version_rekeys(self, monkeypatch):
        workload = build_shwfs_workload()
        before = profile_key(workload)
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert profile_key(workload) != before

    @pytest.mark.parametrize("build", [build_shwfs_workload,
                                       build_orbslam_workload])
    def test_independent_builds_share_a_key(self, build):
        first, second = build(), build()
        assert first is not second
        assert profile_key(first) == profile_key(second)

    def test_profile_and_characterization_keys_differ(self):
        suite = MicrobenchmarkSuite()
        board = get_board("tx2")
        assert cache_key(board, suite.cache_signature()) != \
            profile_key(build_shwfs_workload(), board)


class TestKeyMemo:
    """A workload's content JSON is memoized per object; every key
    stays the text the parent serialization hashes."""

    def test_one_object_walks_its_content_once(self, monkeypatch):
        workload = build_shwfs_workload()
        walked = []
        content = cache._content

        def spy(value):
            if value is workload:
                walked.append(value)
            return content(value)

        monkeypatch.setattr(cache, "_content", spy)
        first = profile_key(workload)
        assert profile_key(workload) == first
        assert profile_key(workload, model="ZC") != first
        assert len(walked) == 1

    def test_rebuilt_equal_workload_gets_the_same_key(self):
        workload = build_workload("orbslam", board_name="xavier")
        key = profile_key(workload)
        assert profile_key(workload) == key
        rebuilt = build_workload("orbslam", board_name="xavier")
        assert rebuilt is not workload
        assert profile_key(rebuilt) == key

    def test_key_is_pinned(self, monkeypatch):
        """The key a package-version-1.0.0 store entry was written
        under: a changed serialization would orphan every stored
        profile."""
        monkeypatch.setattr(repro, "__version__", "1.0.0")
        workload = build_workload("orbslam", board_name="xavier")
        expected = ("96920163822beed7d042c3c08c4617292122469d57f7a3bd09c2"
                    "30939879ec08")
        assert profile_key(workload, get_board("xavier")) == expected
        assert profile_key(workload, get_board("xavier")) == expected

    def test_threads_keying_one_object_agree(self):
        expected = profile_key(build_shwfs_workload())
        workload = build_shwfs_workload()
        barrier = threading.Barrier(8)

        def key(_):
            barrier.wait(timeout=30)
            return profile_key(workload)

        # More threads than cores, switching as often as possible.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                keys = list(pool.map(key, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert keys == [expected] * 8
        assert profile_key(workload) == expected

    def test_memo_does_not_keep_a_workload_alive(self):
        workload = build_shwfs_workload()
        profile_key(workload)
        ident, alive = id(workload), weakref.ref(workload)
        assert ident in cache._WORKLOAD_JSON
        del workload
        gc.collect()
        assert alive() is None
        assert ident not in cache._WORKLOAD_JSON


def _bits(profile):
    """Every field, floats as their exact hex form."""
    return {name: (value.hex() if isinstance(value, float) else value)
            for name, value in dataclasses.asdict(profile).items()}


class TestRoundTrip:
    @pytest.mark.parametrize("build,board_name,model", [
        (build_shwfs_workload, "xavier", "SC"),
        (build_orbslam_workload, "tx2", "ZC"),
    ])
    def test_stored_profile_is_bit_equal(self, tmp_path, build, board_name,
                                         model):
        board = get_board(board_name)
        workload = build()
        computed, source = MicrobenchmarkSuite(cache_dir=tmp_path).profile(
            workload, board, model)
        assert source == "computed"
        loaded, source = MicrobenchmarkSuite(cache_dir=tmp_path).profile(
            workload, board, model)
        assert source == "store"
        assert loaded == computed
        assert _bits(loaded) == _bits(computed)
        store = ShardedCharacterizationStore(tmp_path)
        assert [e.name for e in store.entries()
                if "-profile-" in e.name]


@pytest.fixture
def clean_obs():
    saved = state.ENABLED
    state.enable()
    trace.clear()
    metrics.REGISTRY.reset()
    yield metrics.REGISTRY
    trace.clear()
    metrics.REGISTRY.reset()
    state.ENABLED = saved


class TestProfileOnce:
    def test_memo_then_store_then_memo(self, tmp_path, clean_obs,
                                       monkeypatch):
        board = get_board("nano")
        workload = build_shwfs_workload()
        framework = Framework(cache_dir=str(tmp_path))
        first = framework.tune(workload, board)
        again = framework.tune(build_shwfs_workload(), board)
        assert again == first
        assert clean_obs.counter("profiling.profile.memory_hit").value == 1

        def explode(*_a, **_k):  # pragma: no cover - must not run
            raise AssertionError("profiled again despite a stored profile")

        monkeypatch.setattr(Profiler, "profile", explode)
        fresh = Framework(cache_dir=str(tmp_path))
        assert fresh.tune(workload, board) == first
        assert fresh.tune(workload, board) == first
        assert clean_obs.counter("profiling.profile.store_hit").value == 1
        assert clean_obs.counter("profiling.profile.memory_hit").value == 2
        sources = [s.attributes["source"] for s in trace.get_spans()
                   if s.name == "profile"]
        assert sources == ["computed", "memo", "store", "memo"]

    def test_each_model_profiles_once(self, clean_obs):
        calls = []
        original = Profiler.profile

        def counting(profiler, workload, model="SC", mode="auto"):
            calls.append(model)
            return original(profiler, workload, model=model, mode=mode)

        framework = Framework()
        board = get_board("nano")
        workload = build_shwfs_workload()
        Profiler.profile = counting
        try:
            for _ in range(2):
                for model in ("SC", "UM", "ZC"):
                    framework.tune(workload, board, current_model=model)
        finally:
            Profiler.profile = original
        assert calls == ["SC", "UM", "ZC"]

    def test_simulated_and_analytic_profiles_are_separate(self, tmp_path):
        board = get_board("nano")
        workload = build_shwfs_workload()
        analytic, _ = MicrobenchmarkSuite(cache_dir=tmp_path).profile(
            workload, board)
        _, source = MicrobenchmarkSuite(
            cache_dir=tmp_path, backend="simulated").profile(workload, board)
        assert source == "computed"
        again, source = MicrobenchmarkSuite(cache_dir=tmp_path).profile(
            workload, board)
        assert (again, source) == (analytic, "store")
