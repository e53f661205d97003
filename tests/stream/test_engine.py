"""Streaming engine: hysteresis semantics, flips, explainability."""

import numpy as np
import pytest

from repro.errors import StreamError
from repro.model.decision import (
    Recommendation,
    RecommendedModel,
    Zone,
    keep_current,
)
from repro.model.speedup import SpeedupEstimate
from repro.stream.engine import (
    StreamConfig,
    StreamTuner,
    _Hysteresis,
    proposed_model,
)
from repro.stream.sources import CounterWindowSource


def make_rec(model, speedup=None):
    estimate = None
    if speedup is not None:
        capped = 1.0 + speedup / 100.0
        estimate = SpeedupEstimate(raw=capped, capped=capped, cap=2.0,
                                   direction="SC->ZC")
    return Recommendation(
        model=model, zone=Zone.BELOW_THRESHOLD,
        cpu_cache_usage_pct=1.0, gpu_cache_usage_pct=1.0,
        cpu_threshold_pct=50.0, gpu_threshold_pct=10.0,
        gpu_zone2_pct=20.0, reason="test", estimate=estimate,
    )


class TestProposedModel:
    def test_zero_copy_proposes_zc(self):
        rec = make_rec(RecommendedModel.ZERO_COPY)
        assert proposed_model(rec, "SC") == "ZC"

    def test_copy_family_proposes_sc(self):
        rec = make_rec(RecommendedModel.STANDARD_COPY_OR_UM)
        assert proposed_model(rec, "ZC") == "SC"

    def test_no_change_keeps_active(self):
        rec = make_rec(RecommendedModel.NO_CHANGE)
        assert proposed_model(rec, "UM") == "UM"

    def test_keep_current_keeps_active(self):
        assert proposed_model(keep_current("ZC", "why"), "ZC") == "ZC"

    def test_conditional_needs_positive_estimate(self):
        conditional = RecommendedModel.ZERO_COPY_CONDITIONAL
        assert proposed_model(make_rec(conditional, speedup=12.0),
                              "SC") == "ZC"
        assert proposed_model(make_rec(conditional, speedup=0.0),
                              "SC") == "SC"
        assert proposed_model(make_rec(conditional), "SC") == "SC"


class TestHysteresis:
    def test_commits_after_threshold(self):
        h = _Hysteresis(3)
        assert h.observe("ZC", "SC") is None
        assert h.observe("ZC", "SC") is None
        assert h.observe("ZC", "SC") == "ZC"

    def test_matching_proposal_resets_streak(self):
        h = _Hysteresis(3)
        h.observe("ZC", "SC")
        h.observe("ZC", "SC")
        assert h.observe("SC", "SC") is None  # blip back to active
        assert h.observe("ZC", "SC") is None  # streak restarted
        assert h.observe("ZC", "SC") is None
        assert h.observe("ZC", "SC") == "ZC"

    def test_target_change_restarts_streak(self):
        h = _Hysteresis(2)
        assert h.observe("ZC", "SC") is None
        assert h.observe("UM", "SC") is None
        assert h.observe("UM", "SC") == "UM"

    def test_threshold_one_commits_immediately(self):
        assert _Hysteresis(1).observe("ZC", "SC") == "ZC"


class TestConfig:
    @pytest.mark.parametrize("kwargs,code", [
        ({"hysteresis": 0}, "STREAM_BAD_HYSTERESIS"),
        ({"chunk_size": 0}, "STREAM_BAD_CHUNK"),
        ({"window": 0}, "STREAM_BAD_WINDOW"),
        ({"stride": 0}, "STREAM_BAD_STRIDE"),
    ])
    def test_bad_values(self, kwargs, code):
        with pytest.raises(StreamError) as err:
            StreamConfig(**kwargs).validated()
        assert err.value.code == code


CONFIG = StreamConfig(window=1024, stride=128, hysteresis=3,
                      chunk_size=2048)


class TestSingleApp:
    def test_board_mismatch_rejected(self, framework, xavier_device,
                                     shwfs_profile):
        source = CounterWindowSource.from_profile(shwfs_profile,
                                                  samples=2048)
        source.board_name = "tx2"
        with pytest.raises(StreamError) as err:
            StreamTuner(framework, source, xavier_device, CONFIG)
        assert err.value.code == "STREAM_BAD_APPSET"

    def test_stationary_stream_flips_at_most_once(
            self, framework, xavier_device, shwfs_profile):
        # A stationary stream replays one behaviour; the only
        # legitimate flip is the initial correction onto the tuned
        # model, after which the stream must hold with zero drift.
        source = CounterWindowSource.from_profile(shwfs_profile,
                                                  samples=4096)
        result = StreamTuner(framework, source, xavier_device,
                             CONFIG).run()
        assert result.drift_windows == 0
        assert len(result.flips) <= 1
        assert result.decisions == result.windows > 0
        # The stream ends at equilibrium: the last decision (made
        # against the final active model) proposes no further change.
        assert proposed_model(result.last_recommendation,
                              result.final_model) == result.final_model
        if result.flips:
            assert result.flips[0].from_model == "SC"
            assert result.flips[0].to_model == result.final_model

    def test_flips_are_explainable(self, framework, xavier_device,
                                   shwfs_profile):
        source = CounterWindowSource.from_profile(shwfs_profile,
                                                  samples=4096)
        result = StreamTuner(framework, source, xavier_device,
                             CONFIG).run()
        for flip in result.flips:
            assert flip.report is not None
            assert flip.report.recommendation.reason
            assert flip.tune_report is not None
            d = flip.to_dict()
            assert d["reason"] and d["to"] == flip.to_model

    def test_runs_are_deterministic(self, framework, xavier_device,
                                    shwfs_profile):
        def run():
            source = CounterWindowSource.from_profile(shwfs_profile,
                                                      samples=4096)
            return StreamTuner(framework, source, xavier_device,
                               CONFIG).run()

        first, second = run(), run()
        assert first.final_model == second.final_model
        assert first.drift_windows == second.drift_windows
        assert [f.emission for f in first.flips] == \
            [f.emission for f in second.flips]
        assert [(f.from_model, f.to_model) for f in first.flips] == \
            [(f.from_model, f.to_model) for f in second.flips]

    def test_drifting_stream_flags_drift(self, framework, xavier_device,
                                         shwfs_profile, orbslam_profile):
        source = CounterWindowSource.drifting(shwfs_profile,
                                              orbslam_profile,
                                              samples=6144)
        result = StreamTuner(framework, source, xavier_device,
                             CONFIG).run()
        assert result.drift_windows > 0

    def test_high_hysteresis_suppresses_flips(self, framework,
                                              xavier_device,
                                              shwfs_profile):
        # More consecutive proposals required than the stream has
        # emissions: nothing may commit no matter what decide() says.
        source = CounterWindowSource.from_profile(shwfs_profile,
                                                  samples=2048)
        config = StreamConfig(window=1024, stride=128,
                              hysteresis=10_000)
        result = StreamTuner(framework, source, xavier_device,
                             config).run()
        assert result.flips == ()
        assert result.final_model == "SC"

    def test_obs_counters_advance(self, framework, xavier_device,
                                  shwfs_profile):
        from repro.obs.metrics import REGISTRY

        before = REGISTRY.counter("stream.decisions").value
        source = CounterWindowSource.from_profile(shwfs_profile,
                                                  samples=2048)
        result = StreamTuner(framework, source, xavier_device,
                             CONFIG).run()
        after = REGISTRY.counter("stream.decisions").value
        assert after - before == result.decisions
