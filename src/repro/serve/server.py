"""``TuneServer``: the asyncio, multi-tenant tuning front end.

Composition layer over the existing stack — nothing below it changes:

- requests enter :meth:`TuneServer.submit` and join the
  :class:`~repro.serve.coalescer.Coalescer`'s window for their batch
  key (characterization hash × model × strictness);
- a window closes by time (``window_s``) or size (``max_batch``) and
  the batch is dispatched to a worker thread, where duplicate requests
  collapse onto one ``Framework.tune`` and distinct workloads ride the
  characterize-once ``tune_many`` path (whose sweeps run on the
  vectorized ``run_batch`` engine, results straight from the sharded
  characterization store on a warm key);
- **backpressure**: at most ``max_pending`` requests may be in flight;
  overflow is load-shed *immediately* into degraded ``KEEP_CURRENT``
  answers carrying a ``SERVE_OVERLOADED`` caveat — the queue never
  grows without bound and a shed answer is always well-formed;
- **deadlines**: a request's ``deadline_s`` is measured from
  submission via :mod:`repro.resilience.deadline` semantics — expired
  while queued ⇒ shed with a ``DEADLINE_EXCEEDED`` caveat; still live
  at dispatch ⇒ the batch runs under a cooperative
  :func:`~repro.resilience.deadline.deadline_scope` when every rider
  carries a budget.

Everything is observable through :mod:`repro.obs`:
``serve.submitted`` / ``serve.shed`` / ``serve.batches`` /
``serve.answers`` / ``serve.coalesced`` counters, ``serve.pending``
gauge, and ``serve.wait_s`` / ``serve.service_s`` / ``serve.batch_size``
histograms.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.apps import build_workload
from repro.errors import ReproError, ServeError
from repro.model.framework import Framework
from repro.perf.cache import cache_key
from repro.resilience.deadline import Deadline, deadline_scope
from repro.serve.coalescer import (
    BatchKey,
    Coalescer,
    PendingBatch,
    PendingItem,
    TuneAnswer,
    TuneRequest,
    UniqueJob,
    plan_unique_jobs,
    shed_report,
)
from repro.soc.board import BoardConfig, get_board


@dataclass(frozen=True)
class ServeConfig:
    """The server's tuning knobs (documented in ``docs/serving.md``).

    ``window_s`` trades tail latency for batching opportunity;
    ``max_batch`` bounds one dispatch; ``max_pending`` is the
    backpressure limit past which submissions shed; ``dispatch_workers``
    is how many batches may execute concurrently (distinct keys —
    e.g. different boards — overlap)."""

    window_s: float = 0.005
    max_batch: int = 16
    max_pending: int = 64
    dispatch_workers: int = 2

    def validated(self) -> "ServeConfig":
        if self.max_pending < 1 or self.dispatch_workers < 1:
            raise ServeError(
                f"need max_pending >= 1 and dispatch_workers >= 1, got "
                f"{self.max_pending} / {self.dispatch_workers}",
                code="SERVE_BAD_CONFIG",
                details={"max_pending": self.max_pending,
                         "dispatch_workers": self.dispatch_workers},
            )
        return self


@dataclass
class ServeStats:
    """Since-start counters mirrored from the obs registry for cheap
    programmatic access (the bench and the CLI read these)."""

    submitted: int = 0
    answered: int = 0
    shed_overload: int = 0
    shed_deadline: int = 0
    batches: int = 0
    coalesced: int = 0
    errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class TuneServer:
    """Asyncio front end batching tune requests into the framework.

    Use as an async context manager::

        async with TuneServer(framework) as server:
            answers = await asyncio.gather(
                *(server.submit(r) for r in requests))
    """

    def __init__(self, framework: Optional[Framework] = None,
                 config: Optional[ServeConfig] = None) -> None:
        #: Shared by the dispatch threads; a framework never changes
        #: after construction.
        self.framework = framework if framework is not None else Framework()
        self.config = (config or ServeConfig()).validated()
        self.stats = ServeStats()
        self._coalescer = Coalescer(window_s=self.config.window_s,
                                    max_batch=self.config.max_batch)
        self._pending = 0
        self._open = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._inflight: set = set()
        self._workloads: Dict[Tuple[str, str], Any] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        if self._open:
            return
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.dispatch_workers,
            thread_name_prefix="repro-serve",
        )
        self._open = True
        obs.event("serve.started", window_s=self.config.window_s,
                  max_batch=self.config.max_batch,
                  max_pending=self.config.max_pending)

    async def stop(self) -> None:
        """Stop accepting, flush open windows, await in-flight work."""
        if not self._open:
            return
        self._open = False
        for batch in self._coalescer.flush():
            if batch.timer is not None:
                batch.timer.cancel()
            self._launch(batch)
        while self._inflight:
            await asyncio.gather(*list(self._inflight),
                                 return_exceptions=True)
        self._executor.shutdown(wait=True)
        self._executor = None
        obs.event("serve.stopped", **self.stats.as_dict())

    async def __aenter__(self) -> "TuneServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    @property
    def pending(self) -> int:
        """Requests queued or executing right now."""
        return self._pending

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    async def submit(self, request: TuneRequest) -> TuneAnswer:
        """Queue one request; resolves to its :class:`TuneAnswer`.

        Malformed requests raise a structured :class:`ServeError`;
        overload does not raise — it sheds (see the module docstring).
        """
        if not self._open:
            raise ServeError("the server is not running",
                             code="SERVE_STOPPED")
        request.validate()
        board = get_board(request.board)  # raises on unknown boards
        obs.counter_inc("serve.submitted")
        self.stats.submitted += 1
        if self._pending >= self.config.max_pending:
            return self._shed(request, board, "SERVE_OVERLOADED",
                              f"{self._pending} request(s) already in "
                              f"flight (limit {self.config.max_pending})")
        key = BatchKey(
            characterization=cache_key(
                board, self.framework.suite.cache_signature()),
            board=board.name,
            current_model=request.current_model.upper(),
            strict=request.strict,
        )
        item = PendingItem(request=request,
                           future=self._loop.create_future())
        batch, opened, full = self._coalescer.add(key, board, item)
        self._pending += 1
        obs.gauge_set("serve.pending", self._pending)
        if full:
            popped = self._coalescer.pop(key)
            if popped is not None:
                if popped.timer is not None:
                    popped.timer.cancel()
                self._launch(popped)
        elif opened:
            batch.timer = self._loop.create_task(
                self._window_timer(key, batch))
        return await item.future

    async def submit_many(
        self, requests: Sequence[TuneRequest]
    ) -> List[TuneAnswer]:
        """Submit concurrently; answers keep the input order."""
        return list(await asyncio.gather(
            *(self.submit(request) for request in requests)))

    def _shed(self, request: TuneRequest, board: BoardConfig, code: str,
              detail: str) -> TuneAnswer:
        obs.counter_inc("serve.shed")
        obs.event("serve.shed", code=code, board=request.board,
                  workload=request.workload_name, pending=self._pending)
        if code == "DEADLINE_EXCEEDED":
            self.stats.shed_deadline += 1
        else:
            self.stats.shed_overload += 1
        device = self.framework.suite.memoized(board)
        return TuneAnswer(
            request=request,
            report=shed_report(request, code, detail, device=device),
            status="shed",
        )

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    async def _window_timer(self, key: BatchKey,
                            batch: PendingBatch) -> None:
        try:
            await asyncio.sleep(self.config.window_s)
        except asyncio.CancelledError:
            return
        popped = self._coalescer.pop_if(key, batch)
        if popped is not None:
            self._launch(popped)

    def _launch(self, batch: PendingBatch) -> None:
        batch.dispatched = time.monotonic()
        task = self._loop.create_task(self._run_batch(batch))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_batch(self, batch: PendingBatch) -> None:
        try:
            answers = await self._loop.run_in_executor(
                self._executor, self._execute_batch, batch)
            for item, answer in zip(batch.items, answers):
                if not item.future.done():
                    item.future.set_result(answer)
        except BaseException as error:  # defensive: never strand a future
            obs.event("serve.batch_crashed", error=str(error),
                      batch_size=len(batch.items))
            for item in batch.items:
                if not item.future.done():
                    item.future.set_exception(
                        ServeError(
                            f"batch execution failed: {error}",
                            code="SERVE_BATCH_FAILED",
                            details={"batch_size": len(batch.items)},
                        ))
        finally:
            self._pending -= len(batch.items)
            obs.gauge_set("serve.pending", self._pending)

    # ------------------------------------------------------------------
    # execution (worker thread)
    # ------------------------------------------------------------------

    def _execute_batch(self, batch: PendingBatch) -> List[TuneAnswer]:
        """Run one dispatched batch; one answer per item, in order."""
        now = time.monotonic()
        obs.counter_inc("serve.batches")
        obs.observe("serve.batch_size", len(batch.items))
        self.stats.batches += 1
        answers: Dict[int, TuneAnswer] = {}
        live: List[PendingItem] = []
        for item in batch.items:
            remaining = item.remaining_s(now)
            if remaining is not None and remaining <= 0:
                answers[id(item)] = self._shed(
                    item.request, batch.board, "DEADLINE_EXCEEDED",
                    f"budget of {item.request.deadline_s:.3f}s exhausted "
                    f"after {now - item.enqueued:.3f}s in queue")
                continue
            live.append(item)
        if live:
            jobs = plan_unique_jobs(live)
            self._build_workloads(jobs, batch)
            results = self._execute_jobs(jobs, batch, now)
            service_s = time.monotonic() - now
            for job, (report, error) in zip(jobs, results):
                for position, item in enumerate(job.items):
                    answers[id(item)] = TuneAnswer(
                        request=item.request,
                        report=report,
                        status="error" if error is not None else "ok",
                        error=error,
                        batch_size=len(batch.items),
                        coalesced_with=len(job.items) - 1,
                        wait_s=(batch.dispatched or now) - item.enqueued,
                        service_s=service_s,
                    )
                    if position:
                        obs.counter_inc("serve.coalesced")
                        self.stats.coalesced += 1
                    if error is not None:
                        self.stats.errors += 1
            obs.observe("serve.service_s", service_s)
        for item in batch.items:
            obs.counter_inc("serve.answers")
            self.stats.answered += 1
            obs.observe("serve.wait_s",
                        (batch.dispatched or now) - item.enqueued)
        return [answers[id(item)] for item in batch.items]

    def _build_workloads(self, jobs: List[UniqueJob],
                         batch: PendingBatch) -> None:
        """Attach workloads, memoizing bundled-app builds per board."""
        for job in jobs:
            if job.workload is not None or job.profile is not None:
                continue
            app = job.items[0].request.app
            memo_key = (str(app), batch.key.board)
            workload = self._workloads.get(memo_key)
            if workload is None:
                workload = build_workload(app, board_name=batch.key.board)
                self._workloads[memo_key] = workload
            job.workload = workload

    def _execute_jobs(
        self, jobs: List[UniqueJob], batch: PendingBatch, dispatched: float
    ) -> List[Tuple[Optional[Any], Optional[Dict[str, Any]]]]:
        """Tune every unique job once: the batched path, then per-job
        isolation when the batch poisons itself.

        The whole batch runs under one cooperative deadline scope when
        *every* rider carries a budget (the most patient rider's — the
        impatient ones were shed at dispatch); any rider without a
        deadline keeps the batch unbounded, matching serial semantics.
        """
        remaining = [item.remaining_s(dispatched)
                     for job in jobs for item in job.items]
        scope: Optional[Deadline] = None
        if remaining and all(r is not None for r in remaining):
            scope = Deadline.after(max(remaining))
        model = batch.key.current_model
        strict = batch.key.strict
        with deadline_scope(scope):
            results: Dict[int, Tuple[Optional[Any],
                                     Optional[Dict[str, Any]]]] = {}
            # Profile-carrying re-tune jobs never touch the profiler:
            # each re-runs only the decision flow against the cached
            # characterization (Framework.retune), with per-job error
            # isolation — a bad shipped profile must not fail the
            # workload jobs riding the same batch.
            tune_indexed: List[Tuple[int, UniqueJob]] = []
            for index, job in enumerate(jobs):
                if job.profile is None:
                    tune_indexed.append((index, job))
                    continue
                try:
                    results[index] = (self.framework.retune(
                        job.profile, board=batch.board,
                        strict=strict), None)
                except ReproError as error:
                    obs.event("serve.job_failed", code=error.code,
                              workload=job.items[0].request.workload_name)
                    results[index] = (None, error.to_dict())
            if tune_indexed:
                tune_results = self._execute_tune_jobs(
                    [job for _, job in tune_indexed], batch, model, strict)
                for (index, _), result in zip(tune_indexed, tune_results):
                    results[index] = result
            return [results[index] for index in range(len(jobs))]

    def _execute_tune_jobs(
        self, jobs: List[UniqueJob], batch: PendingBatch, model: str,
        strict: bool,
    ) -> List[Tuple[Optional[Any], Optional[Dict[str, Any]]]]:
        try:
            reports = self.framework.tune_many(
                [job.workload for job in jobs], batch.board,
                current_model=model, strict=strict,
            )
            return [(report, None) for report in reports]
        except ReproError:
            obs.counter_inc("serve.batch_fallback")
        # One request's failure must not fail its neighbours: re-run
        # the batch serially with per-job error isolation.
        results: List[Tuple[Optional[Any], Optional[Dict[str, Any]]]] = []
        for job in jobs:
            try:
                results.append((self.framework.tune(
                    job.workload, batch.board, current_model=model,
                    strict=strict), None))
            except ReproError as error:
                obs.event("serve.job_failed", code=error.code,
                          workload=job.items[0].request.workload_name)
                results.append((None, error.to_dict()))
        return results


def serve_all(requests: Sequence[TuneRequest],
              framework: Optional[Framework] = None,
              config: Optional[ServeConfig] = None) -> List[TuneAnswer]:
    """Convenience wrapper: serve a request list on a private loop.

    Submissions are concurrent (so the coalescer sees them in one
    window); answers keep the input order.
    """
    async def _run() -> List[TuneAnswer]:
        async with TuneServer(framework, config) as server:
            return await server.submit_many(requests)

    return asyncio.run(_run())
