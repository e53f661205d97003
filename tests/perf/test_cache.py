"""Persistent store of characterizations: hits, misses, invalidation."""

import dataclasses
import json
import subprocess
import sys

import pytest

from repro.microbench.suite import MicrobenchmarkSuite
from repro.perf.cache import (
    ShardedCharacterizationStore,
    cache_key,
    characterization_from_dict,
    characterization_to_dict,
    default_cache_dir,
)
from repro.robustness.faults import FaultPlan
from repro.robustness.inject import inject_faults
from repro.soc.board import get_board


@pytest.fixture(scope="module")
def tx2_characterization():
    """One real characterization to persist (computed once)."""
    suite = MicrobenchmarkSuite()
    return suite, suite.characterize(get_board("tx2"))


def _signature(suite):
    return suite.cache_signature()


class TestRoundTrip:
    def test_dict_round_trip_is_lossless(self, tx2_characterization):
        _, device = tx2_characterization
        data = characterization_to_dict(device)
        rebuilt = characterization_from_dict(json.loads(json.dumps(data)))
        assert characterization_to_dict(rebuilt) == data
        assert rebuilt.board_name == device.board_name
        assert rebuilt.gpu_thresholds.threshold_pct == \
            device.gpu_thresholds.threshold_pct

    def test_store_then_load(self, tx2_characterization, tmp_path):
        suite, device = tx2_characterization
        cache = ShardedCharacterizationStore(tmp_path)
        board = get_board("tx2")
        path = cache.store(board, _signature(suite), device)
        assert path.exists()
        loaded = cache.load(board, _signature(suite))
        assert loaded is not None
        assert characterization_to_dict(loaded) == \
            characterization_to_dict(device)

    def test_store_is_atomic(self, tx2_characterization, tmp_path):
        suite, device = tx2_characterization
        cache = ShardedCharacterizationStore(tmp_path)
        path = cache.store(get_board("tx2"), _signature(suite), device)
        # No stray temp files survive a successful store.
        assert path.exists()
        assert list(tmp_path.rglob("*.tmp")) == []


class TestInvalidation:
    def test_miss_on_different_board(self, tx2_characterization, tmp_path):
        suite, device = tx2_characterization
        cache = ShardedCharacterizationStore(tmp_path)
        cache.store(get_board("tx2"), _signature(suite), device)
        assert cache.load(get_board("nano"), _signature(suite)) is None

    def test_miss_on_board_parameter_change(self, tx2_characterization,
                                            tmp_path):
        suite, device = tx2_characterization
        cache = ShardedCharacterizationStore(tmp_path)
        board = get_board("tx2")
        cache.store(board, _signature(suite), device)
        tweaked = dataclasses.replace(
            board,
            zero_copy=dataclasses.replace(
                board.zero_copy, gpu_zc_bandwidth=board.zero_copy.gpu_zc_bandwidth * 2
            ),
        )
        assert cache.load(tweaked, _signature(suite)) is None

    def test_miss_on_signature_change(self, tx2_characterization, tmp_path):
        suite, device = tx2_characterization
        cache = ShardedCharacterizationStore(tmp_path)
        board = get_board("tx2")
        cache.store(board, _signature(suite), device)
        changed = _signature(suite)
        changed["second"] = dict(changed["second"], sweep_repeats=99)
        assert cache.load(board, changed) is None

    def test_key_covers_version(self, tx2_characterization, monkeypatch):
        suite, _ = tx2_characterization
        import repro

        board = get_board("tx2")
        before = cache_key(board, _signature(suite))
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert cache_key(board, _signature(suite)) != before

    def test_corrupt_entry_is_a_miss(self, tx2_characterization, tmp_path):
        suite, device = tx2_characterization
        cache = ShardedCharacterizationStore(tmp_path)
        board = get_board("tx2")
        path = cache.store(board, _signature(suite), device)
        path.write_text("{not json")
        assert cache.load(board, _signature(suite)) is None

    def test_key_mismatch_is_a_miss(self, tx2_characterization, tmp_path):
        suite, device = tx2_characterization
        cache = ShardedCharacterizationStore(tmp_path)
        board = get_board("tx2")
        path = cache.store(board, _signature(suite), device)
        data = json.loads(path.read_text())
        data["key"] = "0" * 64
        path.write_text(json.dumps(data))
        assert cache.load(board, _signature(suite)) is None

    def test_clear(self, tx2_characterization, tmp_path):
        suite, device = tx2_characterization
        cache = ShardedCharacterizationStore(tmp_path)
        cache.store(get_board("tx2"), _signature(suite), device)
        cache.store(get_board("nano"), _signature(suite), device)
        assert len(cache.entries()) == 2
        assert cache.clear() == 2
        assert cache.entries() == []
        assert cache.clear() == 0


class TestQuarantine:
    def _corrupt_entry(self, tx2_characterization, tmp_path):
        suite, device = tx2_characterization
        cache = ShardedCharacterizationStore(tmp_path)
        board = get_board("tx2")
        path = cache.store(board, _signature(suite), device)
        path.write_text("{not json")
        return cache, board, _signature(suite), path

    def test_corrupt_entry_is_moved_aside_on_load(self, tx2_characterization,
                                                  tmp_path):
        cache, board, sig, path = self._corrupt_entry(
            tx2_characterization, tmp_path)
        assert cache.load(board, sig) is None
        assert not path.exists()
        quarantined = cache.quarantined()
        assert quarantined == [path.with_suffix(".corrupt")]
        assert quarantined[0].read_text() == "{not json"

    def test_second_load_is_a_plain_miss(self, tx2_characterization,
                                         tmp_path):
        from repro.obs.metrics import REGISTRY

        cache, board, sig, _ = self._corrupt_entry(
            tx2_characterization, tmp_path)
        cache.load(board, sig)
        before = REGISTRY.counter("perf.cache.quarantined").value
        assert cache.load(board, sig) is None  # file is gone: a clean miss
        assert REGISTRY.counter("perf.cache.quarantined").value == before

    def test_quarantine_increments_counter(self, tx2_characterization,
                                           tmp_path):
        from repro.obs.metrics import REGISTRY

        cache, board, sig, _ = self._corrupt_entry(
            tx2_characterization, tmp_path)
        before = REGISTRY.counter("perf.cache.quarantined").value
        cache.load(board, sig)
        assert REGISTRY.counter("perf.cache.quarantined").value == before + 1

    def test_key_mismatch_is_not_quarantined(self, tx2_characterization,
                                             tmp_path):
        # A stale key is a miss, not corruption: the file stays put.
        suite, device = tx2_characterization
        cache = ShardedCharacterizationStore(tmp_path)
        board = get_board("tx2")
        path = cache.store(board, _signature(suite), device)
        data = json.loads(path.read_text())
        data["key"] = "0" * 64
        path.write_text(json.dumps(data))
        assert cache.load(board, _signature(suite)) is None
        assert path.exists()
        assert cache.quarantined() == []

    def test_clear_removes_quarantined_files(self, tx2_characterization,
                                             tmp_path):
        cache, board, sig, _ = self._corrupt_entry(
            tx2_characterization, tmp_path)
        cache.load(board, sig)
        assert cache.clear() == 1
        assert cache.quarantined() == []

    def test_quarantined_entry_does_not_block_refresh(
            self, tx2_characterization, tmp_path):
        suite, device = tx2_characterization
        cache, board, sig, _ = self._corrupt_entry(
            tx2_characterization, tmp_path)
        cache.load(board, sig)
        cache.store(board, sig, device)
        loaded = cache.load(board, sig)
        assert loaded is not None
        assert characterization_to_dict(loaded) == \
            characterization_to_dict(device)


class TestSuiteIntegration:
    def test_characterize_skips_suite_on_hit(self, tmp_path):
        board = get_board("tx2")
        warm = MicrobenchmarkSuite(cache_dir=str(tmp_path))
        first = warm.characterize(board)
        assert len(ShardedCharacterizationStore(tmp_path).entries()) == 1

        cold = MicrobenchmarkSuite(cache_dir=str(tmp_path))

        def explode(*_a, **_k):  # pragma: no cover - must not run
            raise AssertionError("suite re-ran despite a cache hit")

        cold.run_all = explode
        loaded = cold.characterize(board)
        assert characterization_to_dict(loaded) == \
            characterization_to_dict(first)

    def test_force_recomputes_and_refreshes(self, tmp_path):
        board = get_board("tx2")
        suite = MicrobenchmarkSuite(cache_dir=str(tmp_path))
        suite.characterize(board)
        entry = ShardedCharacterizationStore(tmp_path).entries()[0]
        before = entry.stat().st_mtime_ns
        suite.characterize(board, force=True)
        assert entry.stat().st_mtime_ns >= before

    def test_injection_bypasses_persistence(self, tmp_path):
        board = get_board("tx2")
        primed = MicrobenchmarkSuite(cache_dir=str(tmp_path))
        primed.characterize(board)

        fresh = MicrobenchmarkSuite(cache_dir=str(tmp_path))
        loads = []
        load = fresh.cache.load
        fresh.cache.load = lambda *args: loads.append(args) or load(*args)
        with inject_faults(FaultPlan(seed=0)):
            entries_before = ShardedCharacterizationStore(tmp_path).entries()
            fresh.characterize(board)  # recomputes under the injector
            assert loads == []  # the store is not read in the scope
            assert ShardedCharacterizationStore(tmp_path).entries() == entries_before
        # Outside the injector the persisted entry is visible again.
        assert fresh._persistent_load(board) is not None

    def test_default_directory_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert default_cache_dir() == tmp_path / "alt"


class TestLazyNamespace:
    def test_store_import_loads_no_process_pool(self):
        """``repro tune`` reaches the store through ``repro.perf``; the
        batch engine and the process pool stay unloaded until used."""
        code = ("import sys, repro.perf.cache; print(sorted(m for m in ("
                "'repro.perf.parallel', 'repro.perf.batch', "
                "'concurrent.futures.process') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "[]"

    def test_lazy_names_resolve(self):
        import repro.perf
        from repro.perf.parallel import ParallelRunner

        assert repro.perf.ParallelRunner is ParallelRunner
        assert set(repro.perf.__all__) <= set(dir(repro.perf))
        with pytest.raises(AttributeError):
            repro.perf.no_such_name
