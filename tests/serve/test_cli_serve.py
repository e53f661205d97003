"""CLI surface of the serving layer: ``repro serve``."""

import json

from repro.cli import main


def test_serve_requests_file(tmp_path, capsys):
    requests = [
        {"board": "tx2", "app": "shwfs", "tenant": "alice"},
        {"board": "tx2", "app": "shwfs", "tenant": "bob"},
    ]
    path = tmp_path / "requests.json"
    path.write_text(json.dumps(requests))
    assert main(["serve", str(path),
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    out = capsys.readouterr().out
    assert "Served 2 request(s)" in out
    assert "alice" in out and "bob" in out
    assert "shed: 0, errors: 0" in out


def test_serve_without_input_is_an_error(capsys):
    assert main(["serve"]) == 2
    err = capsys.readouterr().err
    assert "error[SERVE_BAD_REQUEST]" in err


def test_serve_rejects_unknown_fields(tmp_path, capsys):
    path = tmp_path / "requests.json"
    path.write_text(json.dumps([{"board": "tx2", "app": "shwfs",
                                 "frobnicate": True}]))
    assert main(["serve", str(path)]) == 2
    err = capsys.readouterr().err
    assert "frobnicate" in err

