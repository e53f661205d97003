"""CLI observability: tune artifacts, obs summary, the kill switch."""

import json

from repro.cli import build_parser, main
from repro.obs import state
from repro.obs.export import validate_chrome_trace


class TestTuneArtifacts:
    def test_trace_and_report_written(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        report_path = tmp_path / "r.json"
        assert main(["tune", "shwfs", "nano", "--no-cache",
                     "--trace", str(trace_path),
                     "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert f"trace written to {trace_path}" in out
        assert f"report written to {report_path}" in out

        doc = json.loads(trace_path.read_text())
        validate_chrome_trace(doc)
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"tune", "characterize", "profile", "decide"} <= names

        report = json.loads(report_path.read_text())
        assert report["workload"].startswith("shwfs")
        assert report["board"] == "nano"
        assert report["decision"]["model"]
        assert set(report["timings_s"]) == \
            {"characterize", "profile", "decide", "tune"}

    def test_trace_spans_nest(self, tmp_path):
        trace_path = tmp_path / "t.json"
        assert main(["tune", "shwfs", "nano", "--no-cache",
                     "--trace", str(trace_path)]) == 0
        doc = json.loads(trace_path.read_text())
        begins = {e["name"]: e for e in doc["traceEvents"]
                  if e["ph"] == "B"}
        tune_id = begins["tune"]["args"]["span_id"]
        assert begins["characterize"]["args"]["parent_id"] == tune_id
        assert begins["profile"]["args"]["parent_id"] == tune_id
        assert begins["decide"]["args"]["parent_id"] == tune_id

    def test_report_matches_printed_recommendation(self, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        assert main(["tune", "orbslam", "tx2", "--no-cache", "--model", "ZC",
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        out = capsys.readouterr().out
        assert report["decision"]["reason"] in out
        assert report["current_model"] == "ZC"


class TestObsSummary:
    def test_summary_of_artifact(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        main(["tune", "shwfs", "nano", "--no-cache",
              "--trace", str(trace_path)])
        capsys.readouterr()
        assert main(["obs", "summary", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert f"artifact: {trace_path}" in out
        assert "tune" in out
        assert "characterize" in out

    def test_summary_without_artifact_uses_live_buffers(self, capsys):
        assert main(["obs", "summary"]) == 0
        assert "observability summary" in capsys.readouterr().out

    def test_summary_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["obs", "summary", str(bad)]) == 2
        assert "error[OBS_ARTIFACT_PARSE]" in capsys.readouterr().err

    def test_summary_missing_file_is_a_structured_error(self, tmp_path,
                                                        capsys):
        assert main(["obs", "summary", str(tmp_path / "gone.json")]) == 2
        assert "error[OBS_ARTIFACT_IO]" in capsys.readouterr().err


class TestKillSwitch:
    def test_obs_off_produces_empty_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        assert main(["--obs-off", "tune", "shwfs", "nano", "--no-cache",
                     "--trace", str(trace_path)]) == 0
        doc = json.loads(trace_path.read_text())
        assert doc["traceEvents"] == []
        # main() flipped the module flag; the conftest fixture restores
        # it, but later assertions in this test still need it on.
        state.enable()

    def test_obs_off_still_writes_the_report(self, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        assert main(["--obs-off", "tune", "shwfs", "nano", "--no-cache",
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        # The tune report is decision data, not telemetry: it survives
        # the kill switch (timings come from plain perf_counter calls).
        assert report["decision"]["model"]
        assert report["timings_s"]["tune"] > 0.0
        state.enable()

    def test_parser_accepts_global_flag(self):
        args = build_parser().parse_args(["--obs-off", "boards"])
        assert args.obs_off is True
        args = build_parser().parse_args(["boards"])
        assert args.obs_off is False
