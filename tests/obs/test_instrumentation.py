"""Instrumented seams: fault events, comm/microbench spans, and
tune_many/compare_models coverage."""

from repro.apps.shwfs import ShwfsPipeline
from repro.model.framework import Framework
from repro.obs.metrics import REGISTRY
from repro.obs.trace import get_spans
from repro.robustness.faults import FaultPlan
from repro.robustness.inject import inject_faults
from repro.soc.board import get_board
from repro.soc.soc import SoC


def _names():
    return [s.name for s in get_spans()]


class TestCommSpans:
    def test_every_model_emits_execute_and_phase_spans(self):
        from repro.comm.base import get_model

        workload = ShwfsPipeline().workload(board_name="tx2")
        board = get_board("tx2")
        for model in ("SC", "UM", "ZC"):
            get_model(model).execute(workload, SoC(board))
        executes = [s for s in get_spans() if s.name == "comm.execute"]
        assert sorted(s.attributes["model"] for s in executes) == \
            ["SC", "UM", "ZC"]
        phases = {s.name for s in get_spans() if "comm.phase" in s.name}
        assert {"comm.phase.cpu", "comm.phase.gpu",
                "comm.phase.copy"} <= phases
        # Phase spans nest inside their model's execute span.
        by_id = {s.span_id: s for s in get_spans()}
        for phase in (s for s in get_spans()
                      if s.name.startswith("comm.phase.")):
            node = phase
            while node.parent_id is not None:
                node = by_id[node.parent_id]
            assert node.name == "comm.execute"

    def test_execute_counters_and_histograms(self):
        from repro.comm.base import get_model

        workload = ShwfsPipeline().workload(board_name="nano")
        get_model("SC").execute(workload, SoC(get_board("nano")))
        assert REGISTRY.counter("comm.execute.SC").value == 1
        assert REGISTRY.histogram("comm.kernel_time_s").count == 1


class TestFrameworkSpans:
    def test_tune_span_tree(self, characterization_suite):
        framework = Framework(suite=characterization_suite)
        board = get_board("xavier")
        framework.tune(ShwfsPipeline().workload(board_name="xavier"), board)
        names = _names()
        for expected in ("tune", "characterize", "profile", "decide"):
            assert expected in names
        tune_span = next(s for s in get_spans() if s.name == "tune")
        assert tune_span.attributes["recommendation"]
        assert REGISTRY.counter("framework.tune").value == 1

    def test_degraded_tune_emits_stage_failed_event(self, monkeypatch):
        framework = Framework()
        board = get_board("tx2")

        def broken(self, *args, **kwargs):
            from repro.errors import ProfilingError

            raise ProfilingError("boom", code="PROFILE_BROKEN")

        monkeypatch.setattr(Framework, "profile", broken)
        report = framework.tune(ShwfsPipeline().workload(board_name="tx2"),
                                board, strict=False)
        assert report.degraded
        events = [s for s in get_spans() if s.name == "tune.stage_failed"]
        assert events
        assert events[0].attributes == {"stage": "profile",
                                        "code": "PROFILE_BROKEN"}
        assert REGISTRY.counter("framework.tune.degraded").value == 1


class TestFaultEvents:
    def test_fired_faults_mirror_into_obs(self):
        plan = FaultPlan.from_cli(0, ["copy-stall:*:3.0:1.0"])
        framework = Framework()
        board = get_board("tx2")
        with inject_faults(plan) as injector:
            framework.tune(ShwfsPipeline().workload(board_name="tx2"), board,
                           strict=False)
        fired = [s for s in get_spans()
                 if s.name == "robustness.fault_fired"]
        assert len(fired) == len(injector.log.events)
        assert fired[0].attributes["kind"] == "copy-stall"
        assert fired[0].attributes["site"] == "soc.copy"
        assert REGISTRY.counter("robustness.fault.copy-stall").value == \
            len(injector.log.events)


class TestMicrobenchSpans:
    def test_suite_run_emits_per_microbench_spans(self):
        from repro.microbench.suite import MicrobenchmarkSuite

        MicrobenchmarkSuite().characterize(get_board("nano"))
        names = _names()
        assert "microbench.suite" in names
        for mb in ("microbench.mb1", "microbench.mb2", "microbench.mb3"):
            assert mb in names
