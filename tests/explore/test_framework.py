"""Surrogate fast path through Framework.tune, warm_store and serving."""

from __future__ import annotations

import pytest

from repro.apps.orbslam import OrbPipeline
from repro.apps.shwfs import ShwfsPipeline
from repro.model.framework import Framework
from repro.obs import metrics, state


@pytest.fixture()
def obs_registry():
    saved = state.ENABLED
    state.enable()
    metrics.REGISTRY.reset()
    yield metrics.REGISTRY
    metrics.REGISTRY.reset()
    state.ENABLED = saved


def _tune(board, workload, surrogate=None, **kwargs):
    framework = Framework(surrogate=surrogate)
    return framework.tune(workload, board, **kwargs)


class TestTuneFastPath:
    def test_surrogate_hit_agrees_with_full_flow(self, tx2_space, surrogate):
        # ORB-SLAM on this board sits far from every threshold, so the
        # margin check passes and the surrogate answers from probes.
        board = tx2_space.board_at((0.9, 1.4))
        workload = OrbPipeline().workload(board_name=board.name)
        fast = _tune(board, workload, surrogate=surrogate)
        full = _tune(board, workload)
        assert fast.via_surrogate
        assert not full.via_surrogate
        assert fast.recommendation.model == full.recommendation.model
        assert fast.recommendation.zone == full.recommendation.zone

    def test_low_margin_falls_back_and_still_agrees(self, tx2_space,
                                                    surrogate):
        # SHWFS usages sit within ~1pp of the predicted thresholds on
        # the TX2 panel: the surrogate must refuse rather than risk a
        # decision flip, and the full flow answers instead.
        board = tx2_space.board_at((1.0, 1.0))
        workload = ShwfsPipeline().workload(board_name=board.name)
        fast = _tune(board, workload, surrogate=surrogate)
        full = _tune(board, workload)
        assert not fast.via_surrogate
        assert surrogate.last_fallback_reason == "low_margin"
        assert fast.recommendation.model == full.recommendation.model

    def test_out_of_hull_board_uses_full_flow(self, surrogate):
        from repro.soc.board import derive_board, get_board

        board = derive_board(get_board("tx2"), "tx2-ool", dram_bandwidth=3.0)
        workload = OrbPipeline().workload(board_name=board.name)
        report = _tune(board, workload, surrogate=surrogate)
        assert not report.via_surrogate
        assert report.recommendation.model is not None

    def test_degraded_mode_ignores_surrogate(self, tx2_space, surrogate,
                                             obs_registry):
        board = tx2_space.board_at((0.9, 1.4))
        workload = OrbPipeline().workload(board_name=board.name)
        report = _tune(board, workload, surrogate=surrogate, strict=False)
        assert not report.via_surrogate
        assert obs_registry.counter("surrogate.hit").value == 0

    def test_hit_counter_increments(self, tx2_space, surrogate,
                                    obs_registry):
        board = tx2_space.board_at((0.9, 1.4))
        workload = OrbPipeline().workload(board_name=board.name)
        report = _tune(board, workload, surrogate=surrogate)
        assert report.via_surrogate
        assert obs_registry.counter("surrogate.hit").value == 1

    def test_framework_level_surrogate_is_default(self, tx2_space,
                                                  surrogate):
        board = tx2_space.board_at((0.9, 1.4))
        workload = OrbPipeline().workload(board_name=board.name)
        framework = Framework(surrogate=surrogate)
        report = framework.tune(workload, board)
        assert report.via_surrogate

    def test_tune_many_uses_surrogate(self, tx2_space, surrogate):
        board = tx2_space.board_at((0.9, 1.4))
        workloads = [
            OrbPipeline().workload(board_name=board.name),
            ShwfsPipeline().workload(board_name=board.name),
        ]
        framework = Framework(surrogate=surrogate)
        reports = framework.tune_many(workloads, board)
        assert len(reports) == 2
        # ORB-SLAM rides the fast path; SHWFS may fall back on margin —
        # either way every report carries a real recommendation.
        assert reports[0].via_surrogate
        for report in reports:
            assert report.recommendation.model is not None


class TestDecisionAgreement:
    def test_heldout_boards_agree_everywhere(self, tx2_space, surrogate):
        # The acceptance bar: on held-out in-hull boards the surrogate
        # path and the full path must agree on every decision, whether
        # the surrogate answered or honestly fell back.
        boards = tx2_space.sample(3, seed=29)
        for board in boards:
            for pipeline in (OrbPipeline(), ShwfsPipeline()):
                workload = pipeline.workload(board_name=board.name)
                fast = _tune(board, workload, surrogate=surrogate)
                full = _tune(board, workload)
                assert fast.recommendation.model == \
                    full.recommendation.model, board.name
                assert fast.recommendation.zone == \
                    full.recommendation.zone, board.name


class TestWarmStore:
    def test_covered_boards_are_skipped(self, tmp_path, surrogate,
                                        obs_registry):
        from repro.perf.grid import warm_store

        # The tx2 preset lies at the hull centre (all ratios 1.0), so
        # the surrogate covers it; nano has a foreign panel fingerprint.
        computed = warm_store(["tx2", "nano"], str(tmp_path),
                              surrogate=surrogate)
        assert computed == 1
        assert obs_registry.counter("explore.warm_skip").value == 1

    def test_without_surrogate_everything_is_computed(self, tmp_path):
        from repro.perf.grid import warm_store

        assert warm_store(["tx2", "nano"], str(tmp_path)) == 2


class TestServe:
    def test_surrogate_reaches_batched_tunes(self, surrogate, obs_registry):
        from repro.model.framework import Framework
        from repro.serve import TuneRequest, serve_all

        # strict=True: serve's default degraded mode ignores the
        # surrogate on purpose (its guarantees cover the healthy flow).
        answers = serve_all(
            [TuneRequest(board="tx2", app="orbslam", tenant="a",
                         strict=True),
             TuneRequest(board="tx2", app="shwfs", tenant="b",
                         strict=True)],
            framework=Framework(surrogate=surrogate),
        )
        assert len(answers) == 2
        assert all(a.status == "ok" for a in answers)
        assert all(a.report.recommendation.model is not None
                   for a in answers)
        # The orbslam request rides the fast path (tx2 preset is the
        # hull centre), so at least one surrogate hit is recorded.
        assert obs_registry.counter("surrogate.hit").value >= 1
