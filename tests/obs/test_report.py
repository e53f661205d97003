"""TuneReport: exactness against a live tune and JSON round trips."""

import dataclasses
import json
import math

from repro.apps.shwfs import ShwfsPipeline
from repro.model.framework import Framework
from repro.obs.report import TUNE_REPORT_VERSION, TuneReport
from repro.soc.board import get_board


def _tune(suite, board_name="xavier"):
    framework = Framework(suite=suite)
    board = get_board(board_name)
    tuning = framework.tune(ShwfsPipeline().workload(board_name=board.name),
                            board, current_model="SC")
    return TuneReport.from_tuning(tuning), tuning


class TestExactness:
    def test_intermediates_match_the_decision(self, characterization_suite):
        report, tuning = _tune(characterization_suite)
        rec = tuning.recommendation
        # Every recorded intermediate equals the value the decision
        # actually consumed — nothing recomputed, nothing rounded.
        assert report.workload == tuning.workload_name
        assert report.board == tuning.board_name
        assert report.cpu_cache_usage_pct == tuning.cpu_cache_usage_pct
        assert report.gpu_cache_usage_pct == tuning.gpu_cache_usage_pct
        assert report.zone == int(rec.zone)
        assert report.decision["model"] == rec.model.value
        assert report.decision["reason"] == rec.reason
        assert report.decision["confidence"] == rec.confidence.value
        assert report.thresholds["gpu_threshold_pct"] == rec.gpu_threshold_pct
        assert report.thresholds["cpu_threshold_pct"] == rec.cpu_threshold_pct
        assert report.profile == dataclasses.asdict(tuning.profile)
        assert report.device["gpu_peak_throughput"] == \
            tuning.device.gpu_peak_throughput
        if rec.estimate is not None:
            assert report.estimate["raw"] == rec.estimate.raw
            assert report.estimate["capped"] == rec.estimate.capped

    def test_timings_cover_every_stage(self, characterization_suite):
        report, tuning = _tune(characterization_suite)
        timings = report.timings_s
        assert timings == tuning.timings_s
        assert set(timings) == {"characterize", "profile", "decide", "tune"}
        assert all(t >= 0.0 for t in timings.values())
        assert timings["tune"] >= timings["decide"]


class TestSerialization:
    def test_json_round_trip(self, characterization_suite):
        report, _ = _tune(characterization_suite)
        rebuilt = TuneReport.from_json(report.to_json())
        assert rebuilt == report

    def test_json_is_standard_and_stable(self, characterization_suite):
        report, _ = _tune(characterization_suite)
        text = report.to_json()
        doc = json.loads(text)  # would reject NaN/Infinity literals
        assert doc["version"] == TUNE_REPORT_VERSION
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text

    def test_degraded_report_scrubs_nan(self):
        framework = Framework()
        board = get_board("tx2")
        workload = ShwfsPipeline().workload(board_name="tx2")
        # Force profiling to fail so the usage metrics degrade to NaN.
        original = Framework.profile
        try:
            def broken(self, *args, **kwargs):
                from repro.errors import ProfilingError

                raise ProfilingError("no counters", code="PROFILE_BROKEN")

            Framework.profile = broken
            tuning = framework.tune(workload, board, strict=False)
        finally:
            Framework.profile = original
        assert tuning.degraded
        report = TuneReport.from_tuning(tuning)
        assert math.isnan(report.cpu_cache_usage_pct)
        doc = json.loads(report.to_json())
        assert doc["cpu_cache_usage_pct"] is None
        assert doc["profile"] is None
        rebuilt = TuneReport.from_json(report.to_json())
        assert math.isnan(rebuilt.cpu_cache_usage_pct)

    def test_unknown_keys_ignored_on_load(self):
        doc = {
            "workload": "w", "board": "b", "current_model": "SC",
            "degraded": False, "profile": None, "device": None,
            "cpu_cache_usage_pct": 1.0, "gpu_cache_usage_pct": 2.0,
            "thresholds": {}, "zone": 1,
            "decision": {"model": "SC"}, "estimate": None,
            "timings_s": {}, "version": 1,
            "added_by_a_future_version": True,
        }
        report = TuneReport.from_dict(doc)
        assert report.workload == "w"
