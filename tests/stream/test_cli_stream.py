"""CLI surface of the streaming engine: ``repro stream``."""

import json

from repro.cli import main


def test_stream_defaults_run(tmp_path, capsys):
    out_path = tmp_path / "run.json"
    assert main(["stream", "shwfs", "xavier",
                 "--samples", "3072", "--window", "1024",
                 "--stride", "256",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--json", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "Streamed shwfs-centroid" in out
    assert "decisions/sec" in out
    payload = json.loads(out_path.read_text())
    assert payload["board"] == "xavier"
    assert payload["decisions"] > 0


def test_stream_bad_window_is_coded_error(capsys):
    assert main(["stream", "shwfs", "xavier", "--window", "0"]) == 2
    err = capsys.readouterr().err
    assert "error[STREAM_BAD_WINDOW]" in err


def test_stream_bad_hysteresis_is_coded_error(capsys):
    assert main(["stream", "shwfs", "xavier", "--hysteresis", "0"]) == 2
    err = capsys.readouterr().err
    assert "error[STREAM_BAD_HYSTERESIS]" in err


def test_stream_bad_chunk_size_is_coded_error(capsys):
    assert main(["stream", "shwfs", "xavier", "--chunk-size", "0"]) == 2
    err = capsys.readouterr().err
    assert "error[STREAM_BAD_CHUNK]" in err


def test_stream_trace_csv(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    path.write_text("".join(f"{(i * 4) % 8192},{'w' if i % 3 else 'r'}\n"
                            for i in range(6000)))
    assert main(["stream", "shwfs", "xavier", "--trace", str(path),
                 "--window", "1024", "--stride", "512",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    out = capsys.readouterr().out
    assert "Streamed trace" in out


def test_stream_missing_trace_is_coded_error(tmp_path, capsys):
    assert main(["stream", "shwfs", "xavier",
                 "--trace", str(tmp_path / "nope.csv")]) == 2
    err = capsys.readouterr().err
    assert "error[STREAM_BAD_TRACE]" in err


def test_stream_trace_excludes_contention(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    path.write_text("0,r\n4,w\n")
    assert main(["stream", "shwfs", "xavier", "--trace", str(path),
                 "--contend", "orbslam"]) == 2
    err = capsys.readouterr().err
    assert "error[STREAM_BAD_APPSET]" in err


def test_stream_contention_mode(tmp_path, capsys):
    assert main(["stream", "shwfs", "xavier", "--contend", "orbslam",
                 "--samples", "3072", "--window", "1024",
                 "--stride", "512",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    out = capsys.readouterr().out
    assert "contending apps" in out
    assert "orbslam-features" in out
    assert "fixed point" in out
