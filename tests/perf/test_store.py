"""ShardedCharacterizationStore: routing, LRU eviction, stampedes.

Eviction must be a *pure function of the access history* — a fixed
insertion order always evicts the same entries — and the store must
keep the entries of the flat layout it replaced (legacy entries
migrate on first touch and are listed until then).
"""

import dataclasses
import json
import multiprocessing

import pytest

import repro
from repro import obs
from repro.errors import ReproError
from repro.microbench.suite import MicrobenchmarkSuite
from repro.perf.cache import (
    ShardedCharacterizationStore,
    cache_key,
    characterization_to_dict,
)
from repro.soc.board import get_board


@pytest.fixture(scope="module")
def characterized():
    """(suite signature, tx2 device) computed once for the module."""
    suite = MicrobenchmarkSuite()
    return suite.cache_signature(), suite.characterize(get_board("tx2"))


def _boards(count, prefix="board"):
    base = get_board("tx2")
    return [dataclasses.replace(base, name=f"{prefix}-{i:02d}")
            for i in range(count)]


def _write_flat_entry(directory, board, signature, device):
    """A characterization entry as the pre-shard flat layout wrote it:
    ``<board>-<key prefix>.json`` at the top of the store directory."""
    key = cache_key(board, signature)
    path = directory / f"{board.name}-{key[:16]}.json"
    path.write_text(json.dumps({
        "key": key,
        "kind": "characterization",
        "board": board.name,
        "version": repro.__version__,
        "device": characterization_to_dict(device),
    }, indent=2, sort_keys=True))
    return path


def _entry_size(tmp_path, signature, device):
    """Size of one stored entry, measured on a representative board
    (entries differ by a few bytes across board names)."""
    probe = ShardedCharacterizationStore(tmp_path / "probe", num_shards=1)
    path = probe.store(_boards(1)[0], signature, device)
    return path.stat().st_size


class TestShardRouting:
    def test_entry_lands_in_its_key_shard(self, tmp_path, characterized):
        signature, device = characterized
        store = ShardedCharacterizationStore(tmp_path)
        board = get_board("tx2")
        path = store.store(board, signature, device)
        shard = store.shard_of(cache_key(board, signature))
        assert path.parent.name == store.shard_name(shard)
        assert store.load(board, signature) is not None

    def test_invalid_shard_count_rejected(self, tmp_path):
        with pytest.raises(ReproError) as excinfo:
            ShardedCharacterizationStore(tmp_path, num_shards=0)
        assert excinfo.value.code == "CACHE_SHARDS_INVALID"

    def test_flat_view_sees_sharded_entries(self, tmp_path, characterized):
        signature, device = characterized
        store = ShardedCharacterizationStore(tmp_path)
        store.store(get_board("tx2"), signature, device)
        store.store(get_board("nano"), signature, device)
        legacy = _write_flat_entry(tmp_path, get_board("xavier"), signature,
                                   device)
        entries = ShardedCharacterizationStore(tmp_path).entries()
        assert len(entries) == 3
        assert legacy in entries
        # ...but never the private index files
        assert all("_index" not in path.name for path in entries)

    def test_legacy_flat_entry_migrates_on_load(self, tmp_path,
                                                characterized):
        signature, device = characterized
        flat_path = _write_flat_entry(tmp_path, get_board("tx2"), signature,
                                      device)

        store = ShardedCharacterizationStore(tmp_path)
        assert store.load(get_board("tx2"), signature) is not None
        assert not flat_path.exists()  # adopted into its shard
        assert len(store.entries()) == 1
        assert store.entries()[0].parent.name.startswith("shard-")

    def test_clear_removes_entries_and_indexes(self, tmp_path,
                                               characterized):
        signature, device = characterized
        store = ShardedCharacterizationStore(tmp_path)
        for board in _boards(3):
            store.store(board, signature, device)
        assert store.clear() == 3
        assert store.entries() == []
        assert list(tmp_path.glob("shard-*/_index.json")) == []


class TestLruEviction:
    def test_eviction_is_deterministic_for_fixed_order(self, tmp_path,
                                                       characterized):
        signature, device = characterized
        size = _entry_size(tmp_path, signature, device)
        boards = _boards(5)

        def fill(directory):
            store = ShardedCharacterizationStore(
                directory, num_shards=1, max_bytes=3 * size + size // 2)
            for board in boards:
                store.store(board, signature, device)
            return sorted(path.name for path in store.entries())

        first = fill(tmp_path / "run1")
        second = fill(tmp_path / "run2")
        assert first == second
        # pure insertion order: the three newest survive
        assert [name.rsplit("-", 1)[0] for name in first] == \
            ["board-02", "board-03", "board-04"]

    def test_newest_entry_is_never_evicted(self, tmp_path, characterized):
        signature, device = characterized
        store = ShardedCharacterizationStore(
            tmp_path, num_shards=1, max_bytes=1)
        for board in _boards(2):
            store.store(board, signature, device)
        names = [path.name for path in store.entries()]
        assert len(names) == 1 and names[0].startswith("board-01")

    def test_hit_recency_protects_an_entry(self, tmp_path, characterized):
        signature, device = characterized
        size = _entry_size(tmp_path, signature, device)
        store = ShardedCharacterizationStore(
            tmp_path / "store", num_shards=1,
            max_bytes=2 * size + size // 2)
        first, second, third = _boards(3)
        store.store(first, signature, device)
        store.store(second, signature, device)
        assert store.load(first, signature) is not None  # touch
        store.store(third, signature, device)  # evicts LRU = second
        survivors = {path.name.rsplit("-", 1)[0] for path in store.entries()}
        assert survivors == {"board-00", "board-02"}

    def test_eviction_increments_counter(self, tmp_path, characterized):
        signature, device = characterized

        def evicted():
            row = obs.REGISTRY.snapshot().get("perf.store.evicted")
            return int(row["value"]) if row else 0

        before = evicted()
        store = ShardedCharacterizationStore(
            tmp_path, num_shards=1, max_bytes=1)
        for board in _boards(3):
            store.store(board, signature, device)
        assert evicted() - before == 2

    def test_corrupt_index_is_rebuilt(self, tmp_path, characterized):
        signature, device = characterized
        store = ShardedCharacterizationStore(tmp_path, num_shards=1)
        store.store(get_board("tx2"), signature, device)
        index = tmp_path / "shard-00" / "_index.json"
        index.write_text("not json{{{")
        assert store.load(get_board("tx2"), signature) is not None
        for board in _boards(2, prefix="extra"):
            store.store(board, signature, device)
        rebuilt = json.loads(index.read_text())
        assert set(rebuilt) == {"seq", "entries"}
        assert len(rebuilt["entries"]) == len(store.entries())


@pytest.fixture(scope="module")
def profiled():
    """(profile signature, shwfs workload, its tx2 profile), computed
    once for the module."""
    from repro.apps.shwfs import build_shwfs_workload

    suite = MicrobenchmarkSuite()
    workload = build_shwfs_workload()
    profile, source = suite.profile(workload, get_board("tx2"))
    assert source == "computed"
    return suite.profile_signature("SC"), workload, profile


class TestProfileEntries:
    """The second entry kind: profiles share the store's tooling."""

    def test_profile_round_trips_through_its_shard(self, tmp_path,
                                                   profiled):
        signature, workload, profile = profiled
        store = ShardedCharacterizationStore(tmp_path)
        board = get_board("tx2")
        path = store.store(board, signature, profile, workload)
        shard = store.shard_of(cache_key(board, signature, workload))
        assert path.parent.name == store.shard_name(shard)
        assert json.loads(path.read_text())["kind"] == "profile"
        assert store.load(board, signature, workload) == profile
        assert store.last_outcome == "hit"

    def test_kinds_never_collide(self, tmp_path, characterized, profiled):
        char_signature, device = characterized
        signature, workload, profile = profiled
        store = ShardedCharacterizationStore(tmp_path)
        board = get_board("tx2")
        store.store(board, char_signature, device)
        assert store.load(board, signature, workload) is None
        store.store(board, signature, profile, workload)
        assert store.load(board, char_signature) == device
        assert store.load(board, signature, workload) == profile

    def test_scan_classifies_both_kinds(self, tmp_path, characterized,
                                        profiled):
        char_signature, device = characterized
        signature, workload, profile = profiled
        store = ShardedCharacterizationStore(tmp_path)
        store.store(get_board("tx2"), char_signature, device)
        store.store(get_board("tx2"), signature, profile, workload)
        reasons = sorted(reason for _, status, reason in store.scan()
                         if status == "ok")
        assert [r.split(",")[0] for r in reasons] == \
            ["characterization", "profile"]

    def test_entry_without_kind_is_a_characterization(self, tmp_path,
                                                      characterized):
        signature, device = characterized
        store = ShardedCharacterizationStore(tmp_path)
        board = get_board("tx2")
        path = store.store(board, signature, device)
        data = json.loads(path.read_text())
        del data["kind"]  # as written before profiles joined the store
        path.write_text(json.dumps(data))
        assert store.classify(path)[0] == "ok"
        assert store.load(board, signature) == device

    @pytest.mark.parametrize("kind", ["surprise", ["profile"]])
    def test_unknown_kind_is_corrupt(self, tmp_path, profiled, kind):
        signature, workload, profile = profiled
        store = ShardedCharacterizationStore(tmp_path)
        path = store.store(get_board("tx2"), signature, profile, workload)
        data = json.loads(path.read_text())
        data["kind"] = kind
        path.write_text(json.dumps(data))
        assert store.classify(path) == ("corrupt", f"unknown kind {kind!r}")

    @pytest.mark.parametrize("damage", ["{broken", "[]"])
    def test_corrupt_profile_is_quarantined_and_missed(self, tmp_path,
                                                       profiled, damage):
        signature, workload, profile = profiled
        store = ShardedCharacterizationStore(tmp_path)
        board = get_board("tx2")
        path = store.store(board, signature, profile, workload)
        path.write_text(damage)
        assert store.classify(path)[0] == "corrupt"
        assert store.load(board, signature, workload) is None
        assert store.last_outcome == "corrupt"
        assert not path.exists()
        assert [p.name for p in store.quarantined()] == \
            [path.with_suffix(".corrupt").name]
        # the next load is a plain miss; the next store rewrites it
        assert store.load(board, signature, workload) is None
        assert store.last_outcome == "miss"
        store.store(board, signature, profile, workload)
        assert store.load(board, signature, workload) == profile

    def test_broken_profile_payload_is_corrupt(self, tmp_path, profiled):
        signature, workload, profile = profiled
        store = ShardedCharacterizationStore(tmp_path)
        board = get_board("tx2")
        path = store.store(board, signature, profile, workload)
        data = json.loads(path.read_text())
        data["profile"]["gpu_l1_hit_rate"] = 7.0  # not a rate
        path.write_text(json.dumps(data))
        assert store.load(board, signature, workload) is None
        assert store.last_outcome == "corrupt"

    def test_clear_removes_both_kinds(self, tmp_path, characterized,
                                      profiled):
        char_signature, device = characterized
        signature, workload, profile = profiled
        store = ShardedCharacterizationStore(tmp_path)
        store.store(get_board("tx2"), char_signature, device)
        store.store(get_board("tx2"), signature, profile, workload)
        assert store.clear() == 2
        assert store.entries() == []

    def test_lru_budget_covers_profiles(self, tmp_path, characterized,
                                        profiled):
        char_signature, device = characterized
        signature, workload, profile = profiled
        store = ShardedCharacterizationStore(tmp_path, num_shards=1,
                                             max_bytes=1)
        store.store(get_board("tx2"), char_signature, device)
        store.store(get_board("tx2"), signature, profile, workload)
        # the newest entry survives; the older characterization goes
        (survivor,) = store.entries()
        assert "-profile-" in survivor.name
        index = json.loads((tmp_path / "shard-00" / "_index.json")
                           .read_text())
        assert list(index["entries"]) == [survivor.name]

    def test_cache_info_counts_each_kind(self, tmp_path, characterized,
                                         profiled, capsys):
        from repro.cli import main

        char_signature, device = characterized
        signature, workload, profile = profiled
        store = ShardedCharacterizationStore(tmp_path)
        store.store(get_board("tx2"), char_signature, device)
        store.store(get_board("tx2"), signature, profile, workload)
        assert main(["cache", "info", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert ("2 entry(ies), 0 corrupt — 1 characterization(s), "
                "1 profile(s)") in out
        assert main(["cache", "info", "--dir", str(tmp_path),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kinds"] == {"characterization": 1, "profile": 1}
        assert sorted(e["kind"] for e in payload["entries"]) == \
            ["characterization", "profile"]
        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        assert "removed 2 cached" in capsys.readouterr().out


def _stampede_worker(cache_dir, barrier, queue):
    """One process racing the others to characterize the same board."""
    suite = MicrobenchmarkSuite(cache_dir=cache_dir)
    barrier.wait(timeout=60)
    suite.characterize(get_board("tx2"))
    # raw results exist only when this process actually ran the suite
    queue.put(suite.raw_results(get_board("tx2")) is not None)


class TestStampedeProtection:
    def test_concurrent_cold_misses_compute_once(self, tmp_path):
        workers = 4
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(workers)
        queue = context.Queue()
        processes = [
            context.Process(target=_stampede_worker,
                            args=(str(tmp_path), barrier, queue))
            for _ in range(workers)
        ]
        for process in processes:
            process.start()
        computed = [queue.get(timeout=120) for _ in range(workers)]
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0
        assert sum(computed) == 1, \
            f"expected exactly one computation, got {computed}"


class TestGridReuse:
    def test_warm_store_computes_every_cold_board(self, tmp_path):
        from repro.perf.grid import warm_store

        assert warm_store(["tx2", "nano", "tx2"], str(tmp_path)) == 2

    def test_grid_cells_hit_the_warm_store(self, tmp_path, monkeypatch):
        from repro.perf.grid import run_grid, warm_store

        def counts():
            snapshot = obs.REGISTRY.snapshot()
            hits = sum(int(row["value"]) for name, row in snapshot.items()
                       if name.startswith("perf.store.shard.")
                       and name.endswith(".hit"))
            misses = sum(int(row["value"]) for name, row in snapshot.items()
                         if name.startswith("perf.store.shard.")
                         and name.endswith(".miss"))
            return hits, misses

        assert warm_store(["tx2"], str(tmp_path)) == 1
        assert warm_store(["tx2"], str(tmp_path)) == 0

        def explode(*_a, **_k):  # pragma: no cover - must not run
            raise AssertionError("a warm grid must never recharacterize")

        monkeypatch.setattr(MicrobenchmarkSuite, "run_all", explode)
        # The first pass profiles each cell once, into the store.
        first = run_grid(["shwfs", "orbslam"], ["tx2"],
                         cache_dir=str(tmp_path), parallel=False)
        hits_before, misses_before = counts()
        results = run_grid(["shwfs", "orbslam"], ["tx2"],
                           cache_dir=str(tmp_path), parallel=False)
        hits_after, misses_after = counts()
        assert len(results) == 2
        assert results == first
        assert misses_after == misses_before, \
            "a warm grid must never recharacterize or re-profile"
        # one characterization and one profile hit per cell
        assert hits_after - hits_before >= 2 * len(results)
