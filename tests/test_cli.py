"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_board_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["characterize", "orin"])

    def test_app_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "doom", "tx2"])

    def test_sweep_factors(self):
        args = build_parser().parse_args(
            ["sweep", "shwfs", "tx2", "--factors", "1", "2"]
        )
        assert args.factors == [1.0, 2.0]


class TestCommands:
    def test_boards(self, capsys):
        assert main(["boards"]) == 0
        out = capsys.readouterr().out
        assert "tx2" in out
        assert "xavier" in out

    def test_characterize(self, capsys):
        assert main(["characterize", "tx2"]) == 0
        out = capsys.readouterr().out
        assert "GPU LL-L1 peak throughput" in out
        assert "1.28" in out

    def test_tune(self, capsys):
        assert main(["tune", "shwfs", "xavier"]) == 0
        out = capsys.readouterr().out
        assert "recommendation" in out
        assert "ZC" in out

    def test_tune_with_current_model(self, capsys):
        assert main(["tune", "orbslam", "tx2", "--model", "ZC"]) == 0
        out = capsys.readouterr().out
        assert "SC/UM" in out  # cache-dependent ZC app -> switch to SC

    def test_compare(self, capsys):
        assert main(["compare", "shwfs", "tx2"]) == 0
        out = capsys.readouterr().out
        for model in ("SC", "UM", "ZC"):
            assert model in out

    def test_sweep(self, capsys):
        assert main(["sweep", "orbslam", "tx2",
                     "--factors", "1", "32"]) == 0
        out = capsys.readouterr().out
        assert "winner" in out


class TestFailurePaths:
    def test_unknown_board_rejected_by_parser(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["tune", "shwfs", "orin"])
        assert excinfo.value.code == 2

    def test_malformed_workload_exits_2_with_code(self, capsys, monkeypatch):
        from repro import cli
        from repro.errors import WorkloadError

        def broken_workload(app, board_name=""):
            raise WorkloadError("frames must be positive")

        monkeypatch.setattr(cli, "build_workload", broken_workload)
        assert main(["tune", "shwfs", "tx2"]) == 2
        err = capsys.readouterr().err
        assert "error[WORKLOAD_MALFORMED]" in err
        assert "frames must be positive" in err

    def test_malformed_fault_spec_exits_2(self, capsys):
        assert main(["inject", "shwfs", "tx2", "--fault", "bit-flip"]) == 2
        assert "error[FAULT_PLAN_INVALID]" in capsys.readouterr().err


class TestInjectCommand:
    def test_inject_is_deterministic(self, capsys):
        outputs = []
        for _ in range(2):
            assert main(["inject", "shwfs", "tx2", "--seed", "7"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_inject_different_seeds_differ(self, capsys):
        outputs = []
        for seed in ("7", "8"):
            assert main(["inject", "shwfs", "tx2", "--seed", seed]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1]

    def test_inject_reports_plan_and_confidence(self, capsys):
        assert main(["inject", "shwfs", "tx2", "--seed", "0",
                     "--fault", "counter-noise::0.01"]) == 0
        out = capsys.readouterr().out
        assert "plan(seed=0" in out
        assert "counter-noise" in out
        assert "confidence:" in out
        assert "recommendation:" in out

    def test_inject_strict_fails_fast_with_code(self, capsys):
        assert main(["inject", "shwfs", "tx2", "--seed", "3", "--strict",
                     "--fault", "counter-nan:kernel_runtime_s"]) == 2
        err = capsys.readouterr().err
        assert "error[PROFILE_COUNTER_NONFINITE]" in err

    def test_inject_degraded_keeps_current(self, capsys):
        assert main(["inject", "shwfs", "tx2", "--seed", "3",
                     "--fault", "counter-nan:kernel_runtime_s"]) == 0
        out = capsys.readouterr().out
        assert "recommendation: keep current" in out
        assert "confidence: low" in out
        assert "PROFILE_COUNTER_NONFINITE" in out


class TestValidateCommand:
    def test_validate_clean_exits_0(self, capsys):
        assert main(["validate", "tx2"]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out
        assert "[ OK ]" in out

    def test_validate_with_flush_drop_exits_3(self, capsys):
        assert main(["validate", "tx2",
                     "--fault", "flush-drop:cpu"]) == 3
        out = capsys.readouterr().out
        assert "GUARD_DIRTY_HANDOFF" in out
        assert "[FAIL]" in out

    def test_validate_with_copy_stall_exits_3(self, capsys):
        assert main(["validate", "tx2",
                     "--fault", "copy-stall::1000"]) == 3
        out = capsys.readouterr().out
        assert "GUARD_COPY_STALL" in out


class TestReportCommand:
    def test_report_from_tmp_dir(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "table1_tx2.txt").write_text("content\n")
        assert main(["report", str(results)]) == 0
        out = capsys.readouterr().out
        assert "included 1 artefacts" in out
        assert (results / "REPORT.md").is_file()

    def test_report_missing_dir_errors(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err
