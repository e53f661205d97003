"""TuneServer end-to-end: transparency, backpressure, deadlines,
error isolation.

The load-bearing invariant is *answer transparency*: a batched answer
must be bit-identical to what a serial ``Framework.tune`` returns for
the same request.  Reports carry NaN fields (degraded thresholds), so
identity is asserted on a JSON fingerprint — NaN serializes
deterministically — rather than dataclass ``==``.
"""

import asyncio
import dataclasses
import json

import pytest

from repro.errors import ReproError, ServeError
from repro.model.framework import Framework
from repro.serve import ServeConfig, TuneRequest, TuneServer, serve_all
from repro.soc.board import get_board

#: A window generous enough that every concurrently submitted request
#: lands in its key's first batch, keeping the tests deterministic.
WIDE = ServeConfig(window_s=0.1)


def fingerprint(report):
    """Bit-stable identity for a TuningReport (NaN-safe); the stage
    timings are wall-clock cost, not part of the answer."""
    fields = dataclasses.asdict(report)
    del fields["timings_s"]
    return json.dumps(fields, sort_keys=True, default=str)


@pytest.fixture(scope="module")
def warm_framework(tmp_path_factory):
    """One framework over a warm characterization store."""
    cache_dir = str(tmp_path_factory.mktemp("serve-store"))
    framework = Framework(cache_dir=cache_dir)
    for name in ("tx2", "xavier"):
        framework.characterize(get_board(name))
    return framework


class TestAnswerTransparency:
    def test_batched_answers_bit_identical_to_serial(self, warm_framework):
        from repro.apps import build_workload

        requests = [
            TuneRequest(board="tx2", app="shwfs", tenant="a"),
            TuneRequest(board="tx2", app="shwfs", tenant="b"),
            TuneRequest(board="tx2", app="orbslam", tenant="c"),
            TuneRequest(board="xavier", app="shwfs", tenant="d"),
            TuneRequest(board="tx2", app="shwfs", tenant="e"),
        ]
        serial = []
        for request in requests:
            workload = build_workload(request.app, board_name=request.board)
            serial.append(warm_framework.tune(
                workload, get_board(request.board),
                current_model=request.current_model,
                strict=request.strict))

        answers = serve_all(requests, warm_framework, WIDE)

        assert [answer.request.tenant for answer in answers] == \
            ["a", "b", "c", "d", "e"]
        assert all(answer.ok for answer in answers)
        for answer, report in zip(answers, serial):
            assert fingerprint(answer.report) == fingerprint(report)

    def test_duplicate_requests_share_one_tune(self, warm_framework):
        requests = [TuneRequest(board="tx2", app="shwfs",
                                tenant=f"t{i}") for i in range(4)]
        answers = serve_all(requests, warm_framework, WIDE)
        assert all(answer.batch_size == 4 for answer in answers)
        assert all(answer.coalesced_with == 3 for answer in answers)
        # dedup shares the very report object across the duplicates
        assert len({id(answer.report) for answer in answers}) == 1

    def test_incompatible_keys_never_share_a_batch(self, warm_framework):
        requests = (
            [TuneRequest(board="tx2", app="shwfs")] * 3
            + [TuneRequest(board="tx2", app="shwfs",
                           current_model="ZC")] * 2
            + [TuneRequest(board="xavier", app="shwfs")]
        )
        answers = serve_all(requests, warm_framework, WIDE)
        assert [answer.batch_size for answer in answers] == \
            [3, 3, 3, 2, 2, 1]
        assert answers[3].report.current_model == "ZC"
        assert answers[0].report.current_model == "SC"


class TestBackpressure:
    def test_overload_sheds_with_coded_caveat(self, warm_framework):
        config = ServeConfig(window_s=0.1, max_pending=2)
        requests = [TuneRequest(board="tx2", app="shwfs",
                                tenant=f"t{i}") for i in range(6)]
        answers = serve_all(requests, warm_framework, config)
        served = [answer for answer in answers if answer.ok]
        shed = [answer for answer in answers if answer.shed]
        assert len(served) == 2 and len(shed) == 4
        for answer in shed:
            rec = answer.report.recommendation
            assert rec.model.value == "keep current"
            assert any("SERVE_OVERLOADED" in caveat
                       for caveat in rec.caveats)

    def test_shed_answer_never_raises_in_strict_mode(self, warm_framework):
        config = ServeConfig(window_s=0.05, max_pending=1)
        requests = [TuneRequest(board="tx2", app="shwfs", strict=True),
                    TuneRequest(board="tx2", app="shwfs", strict=True)]
        answers = serve_all(requests, warm_framework, config)
        assert answers[0].ok and answers[1].shed


class TestDeadlines:
    def test_expired_queue_deadline_sheds(self, warm_framework):
        requests = [
            TuneRequest(board="tx2", app="shwfs", deadline_s=1e-4),
            TuneRequest(board="tx2", app="shwfs"),
        ]
        answers = serve_all(requests, warm_framework, WIDE)
        assert answers[0].shed
        caveats = answers[0].report.recommendation.caveats
        assert any("DEADLINE_EXCEEDED" in caveat for caveat in caveats)
        assert answers[1].ok

    def test_generous_deadline_is_served(self, warm_framework):
        answers = serve_all(
            [TuneRequest(board="tx2", app="shwfs", deadline_s=30.0)],
            warm_framework, WIDE)
        assert answers[0].ok


class TestErrorIsolation:
    def test_one_failing_job_spares_its_neighbours(
            self, warm_framework, monkeypatch):
        real_tune = warm_framework.tune

        def poisoned_tune_many(*args, **kwargs):
            raise ReproError("batched path poisoned", code="TEST_BOOM")

        def orb_hating_tune(workload, board, **kwargs):
            if "orb" in workload.name:
                raise ReproError("orb job fails", code="TEST_ORB")
            return real_tune(workload, board, **kwargs)

        monkeypatch.setattr(warm_framework, "tune_many",
                            poisoned_tune_many)
        monkeypatch.setattr(warm_framework, "tune", orb_hating_tune)
        requests = [TuneRequest(board="tx2", app="shwfs"),
                    TuneRequest(board="tx2", app="orbslam")]
        answers = serve_all(requests, warm_framework, WIDE)
        assert answers[0].ok
        assert answers[1].status == "error"
        assert answers[1].error["code"] == "TEST_ORB"
        assert answers[1].report is None


class TestLifecycle:
    def test_submit_after_stop_raises(self, warm_framework):
        async def _run():
            server = TuneServer(warm_framework, WIDE)
            async with server:
                pass
            with pytest.raises(ServeError) as excinfo:
                await server.submit(TuneRequest(board="tx2", app="shwfs"))
            assert excinfo.value.code == "SERVE_STOPPED"

        asyncio.run(_run())

    def test_stop_flushes_open_windows(self, warm_framework):
        async def _run():
            # a window far longer than the test: only the stop() flush
            # can possibly dispatch the batch
            config = ServeConfig(window_s=30.0)
            async with TuneServer(warm_framework, config) as server:
                task = asyncio.ensure_future(server.submit(
                    TuneRequest(board="tx2", app="shwfs")))
                await asyncio.sleep(0.01)
            return await task

        answer = asyncio.run(_run())
        assert answer.ok

    def test_bad_config_rejected_at_construction(self, warm_framework):
        with pytest.raises(ServeError):
            TuneServer(warm_framework, ServeConfig(max_pending=0))

    def test_stats_account_for_every_request(self, warm_framework):
        requests = [TuneRequest(board="tx2", app="shwfs",
                                tenant=f"t{i}") for i in range(5)]

        async def _run():
            async with TuneServer(warm_framework, WIDE) as server:
                answers = await server.submit_many(requests)
                return answers, server.stats

        answers, stats = asyncio.run(_run())
        assert stats.submitted == 5
        assert stats.answered == 5
        assert stats.batches == 1
        assert stats.coalesced == 4
        assert stats.errors == 0
        assert all(answer.ok for answer in answers)
