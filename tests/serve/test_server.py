"""TuneServer end-to-end: dispatch, transparency, backpressure,
deadlines, error isolation.

The load-bearing invariant is *answer transparency*: a batched answer
must be bit-identical to what a serial ``Framework.tune`` returns for
the same request.  Reports carry NaN fields (degraded thresholds), so
identity is asserted on a JSON fingerprint — NaN serializes
deterministically — rather than dataclass ``==``.

Dispatch is checked by the order of events, never by wall-clock
bounds: :class:`GatedServer` holds its worker threads on a
:class:`threading.Event`, so a test decides what is queued when a
worker frees up.
"""

import asyncio
import dataclasses
import json
import threading
import time

import pytest

from repro.errors import ReproError, ServeError
from repro.model.framework import Framework
from repro.serve import ServeConfig, TuneRequest, TuneServer, serve_all
from repro.soc.board import get_board

#: Requests that occupy both default dispatch workers: two batch keys.
BLOCKERS = [TuneRequest(board="xavier", app="shwfs", current_model=model,
                        tenant=f"blocker-{model}") for model in ("SC", "ZC")]


class GatedServer(TuneServer):
    """A server whose worker threads wait on ``gate`` before running a
    batch; ``held`` counts the batches that reached it."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()
        self.held = threading.Semaphore(0)

    def _execute_batch(self, batch):
        self.held.release()
        assert self.gate.wait(timeout=60), "gate never opened"
        return super()._execute_batch(batch)

    async def stop(self):
        # opens the gate first, so a failed test never leaves a worker
        # held
        self.gate.set()
        await super().stop()

    async def occupy_workers(self):
        """Submit :data:`BLOCKERS`; return their tasks once both workers
        hold one (the tasks resolve when the gate opens)."""
        tasks = [asyncio.ensure_future(self.submit(request))
                 for request in BLOCKERS]
        for _ in BLOCKERS:
            assert await asyncio.to_thread(self.held.acquire, True, 60)
        return tasks


async def settled(*awaitables):
    """Their results, in order; a request that is never dispatched
    fails the test instead of hanging it."""
    return await asyncio.wait_for(asyncio.gather(*awaitables), timeout=60)


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

        answers = serve_all(requests, warm_framework)

        assert [answer.request.tenant for answer in answers] == \
            ["a", "b", "c", "d", "e"]
        assert all(answer.ok for answer in answers)
        for answer, report in zip(answers, serial):
            assert fingerprint(answer.report) == fingerprint(report)

    def test_duplicate_requests_share_one_tune(self, warm_framework):
        requests = [TuneRequest(board="tx2", app="shwfs",
                                tenant=f"t{i}") for i in range(4)]
        answers = serve_all(requests, warm_framework)
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
        answers = serve_all(requests, warm_framework)
        assert [answer.batch_size for answer in answers] == \
            [3, 3, 3, 2, 2, 1]
        assert answers[3].report.current_model == "ZC"
        assert answers[0].report.current_model == "SC"


class TestDispatch:
    def test_lone_request_dispatches_on_the_first_drain(self,
                                                        warm_framework):
        async def _run():
            async with TuneServer(warm_framework) as server:
                events = []
                drain, launch = server._drain, server._launch

                def spy_drain():
                    events.append("drain")
                    drain()

                def spy_launch(batch):
                    events.append(("launch", len(batch)))
                    launch(batch)

                server._drain = spy_drain
                server._launch = spy_launch
                answer, = await settled(server.submit(
                    TuneRequest(board="tx2", app="shwfs")))
            return answer, events

        answer, events = asyncio.run(_run())
        assert answer.ok and answer.batch_size == 1
        # the first drain after the submit launches the batch; the
        # drain after the batch finished finds nothing queued
        assert events == ["drain", ("launch", 1), "drain"]

    def test_requests_queued_behind_busy_workers_form_one_batch(
            self, warm_framework):
        count = 5

        async def _run():
            async with GatedServer(warm_framework) as server:
                blockers = await server.occupy_workers()
                tasks = []
                for index in range(count):
                    # one arrival per loop iteration, each followed by
                    # a drain that finds no free worker
                    tasks.append(asyncio.ensure_future(server.submit(
                        TuneRequest(board="tx2", app="shwfs",
                                    tenant=f"t{index}"))))
                    await asyncio.sleep(0)
                    await asyncio.sleep(0)
                assert len(server._coalescer) == count
                server.gate.set()
                return await settled(settled(*blockers), settled(*tasks))

        blocked, answers = asyncio.run(_run())
        assert [answer.batch_size for answer in blocked] == [1, 1]
        assert all(answer.ok for answer in answers)
        assert [answer.batch_size for answer in answers] == [count] * count
        assert all(answer.coalesced_with == count - 1 for answer in answers)
        assert len({id(answer.report) for answer in answers}) == 1


class TestBackpressure:
    def test_overload_sheds_with_coded_caveat(self, warm_framework):
        config = ServeConfig(max_pending=2)
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
        config = ServeConfig(max_pending=1)
        requests = [TuneRequest(board="tx2", app="shwfs", strict=True),
                    TuneRequest(board="tx2", app="shwfs", strict=True)]
        answers = serve_all(requests, warm_framework, config)
        assert answers[0].ok and answers[1].shed


class TestDeadlines:
    def test_expired_queue_deadline_sheds(self, warm_framework):
        budget = 1e-4
        requests = [
            TuneRequest(board="tx2", app="shwfs", deadline_s=budget),
            TuneRequest(board="tx2", app="shwfs"),
        ]

        async def _run():
            async with GatedServer(warm_framework) as server:
                blockers = await server.occupy_workers()
                tasks = [asyncio.ensure_future(server.submit(request))
                         for request in requests]
                await asyncio.sleep(0)
                # both are queued behind the held workers ...
                assert len(server._coalescer) == len(requests)
                queued_at = time.monotonic()
                # ... until past the budget: no worker can take them
                # before the gate opens
                while time.monotonic() - queued_at <= budget:
                    await asyncio.sleep(budget)
                server.gate.set()
                await settled(*blockers)
                return await settled(*tasks)

        answers = asyncio.run(_run())
        assert answers[0].shed
        caveats = answers[0].report.recommendation.caveats
        assert any("DEADLINE_EXCEEDED" in caveat for caveat in caveats)
        assert answers[1].ok

    def test_generous_deadline_is_served(self, warm_framework):
        answers = serve_all(
            [TuneRequest(board="tx2", app="shwfs", deadline_s=30.0)],
            warm_framework)
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
        answers = serve_all(requests, warm_framework)
        assert answers[0].ok
        assert answers[1].status == "error"
        assert answers[1].error["code"] == "TEST_ORB"
        assert answers[1].report is None


class TestLifecycle:
    def test_submit_after_stop_raises(self, warm_framework):
        async def _run():
            server = TuneServer(warm_framework)
            async with server:
                pass
            with pytest.raises(ServeError) as excinfo:
                await server.submit(TuneRequest(board="tx2", app="shwfs"))
            assert excinfo.value.code == "SERVE_STOPPED"

        asyncio.run(_run())

    def test_stop_answers_batches_queued_behind_busy_workers(
            self, warm_framework):
        async def _run():
            server = GatedServer(warm_framework)
            await server.start()
            blockers = await server.occupy_workers()
            queued = asyncio.ensure_future(server.submit(
                TuneRequest(board="tx2", app="shwfs")))
            await asyncio.sleep(0)
            assert len(server._coalescer) == 1
            await server.stop()
            # stop() returns only once every request has its answer
            assert queued.done() and all(task.done() for task in blockers)
            return queued.result()

        answer = asyncio.run(_run())
        assert answer.ok

    def test_stop_before_the_first_drain_answers_the_request(
            self, warm_framework):
        async def _run():
            async with TuneServer(warm_framework) as server:
                task = asyncio.ensure_future(server.submit(
                    TuneRequest(board="tx2", app="shwfs")))
                await asyncio.sleep(0)
                # queued, its drain not yet run: stop() dispatches it
                assert len(server._coalescer) == 1
            assert task.done()
            return task.result()

        answer = asyncio.run(_run())
        assert answer.ok

    def test_bad_config_rejected_at_construction(self, warm_framework):
        with pytest.raises(ServeError):
            TuneServer(warm_framework, ServeConfig(max_pending=0))

    def test_stats_account_for_every_request(self, warm_framework):
        requests = [TuneRequest(board="tx2", app="shwfs",
                                tenant=f"t{i}") for i in range(5)]

        async def _run():
            async with TuneServer(warm_framework) as server:
                answers = await server.submit_many(requests)
                return answers, server.stats

        answers, stats = asyncio.run(_run())
        assert stats.submitted == 5
        assert stats.answered == 5
        assert stats.batches == 1
        assert stats.coalesced == 4
        assert stats.errors == 0
        assert all(answer.ok for answer in answers)
