"""Cache outcomes: hit vs miss vs corrupt, the scan, and the CLI."""

import json

from repro.cli import main
from repro.microbench.suite import MicrobenchmarkSuite
from repro.obs.metrics import REGISTRY
from repro.obs.trace import get_spans
from repro.perf.cache import ShardedCharacterizationStore
from repro.soc.board import get_board


def _populated(tmp_path, board_name="nano"):
    suite = MicrobenchmarkSuite(cache_dir=tmp_path)
    board = get_board(board_name)
    device = suite.characterize(board)
    # the default persistent backend is the sharded store
    cache = ShardedCharacterizationStore(tmp_path)
    return cache, board, suite.cache_signature(), device


def _counter(name):
    return REGISTRY.counter(name).value


class TestOutcomes:
    def test_hit(self, tmp_path):
        cache, board, signature, device = _populated(tmp_path)
        loaded = cache.load(board, signature)
        assert loaded == device
        assert cache.last_outcome == "hit"
        assert _counter("perf.cache.hit") >= 1

    def test_absent_entry_is_a_miss(self, tmp_path):
        cache = ShardedCharacterizationStore(tmp_path / "empty")
        board = get_board("tx2")
        assert cache.load(board, {"k": 1}) is None
        assert cache.last_outcome == "miss"
        assert _counter("perf.cache.miss") == 1
        assert _counter("perf.cache.corrupt") == 0

    def test_key_mismatch_is_a_miss_not_corrupt(self, tmp_path):
        cache, board, signature, _ = _populated(tmp_path)
        entry = cache.entries()[0]
        data = json.loads(entry.read_text())
        data["key"] = "0" * 64  # a structurally fine but re-keyed entry
        entry.write_text(json.dumps(data))
        assert cache.load(board, signature) is None
        assert cache.last_outcome == "miss"
        assert _counter("perf.cache.corrupt") == 0

    def test_unparsable_entry_is_corrupt(self, tmp_path):
        cache, board, signature, _ = _populated(tmp_path)
        cache.entries()[0].write_text("{broken")
        assert cache.load(board, signature) is None
        assert cache.last_outcome == "corrupt"
        assert _counter("perf.cache.corrupt") == 1
        events = [s for s in get_spans() if s.name == "perf.cache.corrupt"]
        assert len(events) == 1
        assert events[0].attributes["reason"] == "invalid JSON"

    def test_broken_payload_is_corrupt(self, tmp_path):
        cache, board, signature, _ = _populated(tmp_path)
        entry = cache.entries()[0]
        data = json.loads(entry.read_text())
        data["device"] = {"board_name": "nano"}  # required fields gone
        entry.write_text(json.dumps(data))
        assert cache.load(board, signature) is None
        assert cache.last_outcome == "corrupt"


class TestScan:
    def test_scan_classifies_each_entry(self, tmp_path):
        cache, _, _, _ = _populated(tmp_path)
        (tmp_path / "nano-0000000000000000.json").write_text("{broken")
        results = cache.scan()
        statuses = {path.name: status for path, status, _ in results}
        assert statuses["nano-0000000000000000.json"] == "corrupt"
        assert sorted(statuses.values()) == ["corrupt", "ok"]

    def test_scan_empty_directory(self, tmp_path):
        assert ShardedCharacterizationStore(tmp_path / "nothing").scan() == []


class TestCli:
    def test_cache_info_surfaces_corrupt_entries(self, tmp_path, capsys):
        _populated(tmp_path)
        (tmp_path / "nano-0000000000000000.json").write_text("{broken")
        assert main(["cache", "info", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 entry(ies), 1 corrupt" in out
        assert "[corrupt: invalid JSON]" in out
        assert "[ok:" in out
        assert "repro cache clear" in out

    def test_cache_info_clean(self, tmp_path, capsys):
        _populated(tmp_path)
        assert main(["cache", "info", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 entry(ies), 0 corrupt" in out
        assert "corrupt entries are treated" not in out
        assert "[quarantined]" not in out
        assert "quarantined corrupt entry(ies)" not in out

    def test_cache_info_lists_quarantined_entries(self, tmp_path, capsys):
        cache, board, signature, _ = _populated(tmp_path)
        cache.entries()[0].write_text("{broken")
        cache.load(board, signature)  # detection moves the file aside
        assert main(["cache", "info", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 entry(ies), 0 corrupt" in out
        assert "1 quarantined corrupt entry(ies)" in out
        assert "[quarantined]" in out
