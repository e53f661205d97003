"""The disabled-mode overhead guarantee.

The tentpole contract: with the kill switch off, the instrumented hot
paths must cost within 2 % of what they would cost with no
instrumentation at all.  "No instrumentation at all" is simulated by
monkeypatching the obs entry points to bare no-ops — one Python-level
call, strictly cheaper than any real implementation could be.  Each
attempt times baseline and disabled runs in interleaved pairs (the
order alternating pair by pair), so a slow spell of a shared host hits
both sides instead of whichever block ran during it, and the
comparison retries a few times so one noisy scheduler tick cannot fail
CI.  An absolute per-call bound backstops the relative check.
"""

import time

import pytest

from repro import obs
from repro.obs import state
from repro.obs.trace import NULL_SPAN
from repro.soc.board import get_board
from repro.soc.soc import SoC

#: The contract from the issue: < 2 % on the bench probes.
OVERHEAD_LIMIT = 0.02

#: Noisy-runner retries: one attempt inside the limit passes.
ATTEMPTS = 5


def _workload():
    from repro.apps.shwfs import ShwfsPipeline

    return ShwfsPipeline().workload(board_name="nano"), get_board("nano")


def _run_probe(workload, board):
    """One SC execution — crosses the instrumented comm seams
    (comm.execute span, per-phase spans, execute counters)."""
    from repro.comm.base import get_model

    return get_model("SC").execute(workload, SoC(board))


#: Baseline/disabled pairs per attempt; each side keeps its best run.
PAIRS = 3


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _noop_span(name, **attributes):
    return NULL_SPAN


def _noop(*args, **kwargs):
    return None


class TestDisabledOverhead:
    def test_bench_probe_within_two_percent(self, monkeypatch):
        workload, board = _workload()
        _run_probe(workload, board)  # warm every import and cache

        def baseline():
            # Instrumentation erased entirely.
            monkeypatch.setattr(obs, "span", _noop_span)
            monkeypatch.setattr(obs, "event", _noop)
            monkeypatch.setattr(obs, "counter_inc", _noop)
            monkeypatch.setattr(obs, "gauge_set", _noop)
            monkeypatch.setattr(obs, "observe", _noop)
            try:
                return _timed(lambda: _run_probe(workload, board))
            finally:
                monkeypatch.undo()

        def disabled():
            # The real call sites behind the kill switch.
            state.disable()
            try:
                return _timed(lambda: _run_probe(workload, board))
            finally:
                state.enable()

        last_ratio = None
        for _ in range(ATTEMPTS):
            baselines, disableds = [], []
            for pair in range(PAIRS):
                if pair % 2:
                    disableds.append(disabled())
                    baselines.append(baseline())
                else:
                    baselines.append(baseline())
                    disableds.append(disabled())
            last_ratio = min(disableds) / min(baselines)
            if last_ratio <= 1.0 + OVERHEAD_LIMIT:
                return
        pytest.fail(
            f"disabled-mode overhead {100 * (last_ratio - 1):.2f}% "
            f"exceeded {100 * OVERHEAD_LIMIT:.0f}% in every attempt"
        )

    def test_disabled_span_is_cheap_and_allocation_free(self):
        state.disable()
        try:
            assert obs.span("x", a=1) is obs.span("y", b=2)  # one object
            calls = 200_000
            start = time.perf_counter()
            for _ in range(calls):
                with obs.span("hot"):
                    pass
            per_call = (time.perf_counter() - start) / calls
        finally:
            state.enable()
        # Generous absolute backstop (~flag check + context manager):
        # catches an accidentally expensive disabled path outright.
        assert per_call < 5e-6

    def test_disabled_metrics_touch_nothing(self):
        from repro.obs.metrics import REGISTRY

        state.disable()
        try:
            obs.counter_inc("never")
            obs.gauge_set("never", 1.0)
            obs.observe("never", 1.0)
        finally:
            state.enable()
        assert len(REGISTRY) == 0
