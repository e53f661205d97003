"""Micro-benchmark suite: one-call device characterization.

Runs MB1→MB3 in order (MB2 consumes MB1's peak throughputs, the
characterization consumes all three) and assembles the
:class:`~repro.model.device.DeviceCharacterization` the decision flow
needs.  Characterizations are memoized per board value — the paper's
workflow characterizes a device once and reuses the result across
applications — and, when a
:class:`~repro.perf.cache.ShardedCharacterizationStore` is attached,
persisted on disk across processes under a content hash of the board
and the suite's parameters.

Application profiles take the same path (:meth:`MicrobenchmarkSuite.
profile`): the paper profiles an application once and decides from its
counters, and an :class:`~repro.profiling.counters.AppProfile` is a
pure function of the workload's content, the board, the model and the
timing backend, so it is memoized and persisted under a content hash of
exactly those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from repro import obs
from repro.errors import MicrobenchmarkError, ModelError
from repro.microbench.first import FirstBenchResult, FirstMicroBenchmark
from repro.microbench.second import SecondBenchResult, SecondMicroBenchmark
from repro.microbench.third import ThirdBenchResult, ThirdMicroBenchmark
from repro.model.device import DeviceCharacterization
from repro.profiling.counters import AppProfile
from repro.resilience.deadline import checkpoint
from repro.resilience.retry import RetryPolicy
from repro.robustness.inject import injection_active
from repro.sim.backend import get_backend
from repro.soc.board import BoardConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.perf.cache import ShardedCharacterizationStore

#: MB3's paper-scale data set is 2^27 floats; characterization runs use
#: the same virtual-stream machinery, so the full size is affordable.
_SUITE_MB3_ELEMENTS = 2 ** 27


@dataclass
class SuiteResults:
    """Raw results of the three micro-benchmarks."""

    first: FirstBenchResult
    second: SecondBenchResult
    third: ThirdBenchResult


class MicrobenchmarkSuite:
    """Runs the three micro-benchmarks and builds characterizations."""

    def __init__(
        self,
        first: Optional[FirstMicroBenchmark] = None,
        second: Optional[SecondMicroBenchmark] = None,
        third: Optional[ThirdMicroBenchmark] = None,
        cache: Optional["ShardedCharacterizationStore"] = None,
        cache_dir: Optional[str] = None,
        backend=None,
    ) -> None:
        #: Timing backend every suite SoC is built with; part of the
        #: cache signature, so analytic and simulated characterizations
        #: key (and persist) separately.
        self.backend = get_backend(backend)
        self.first = first or FirstMicroBenchmark()
        self.second = second or SecondMicroBenchmark()
        self.third = third or ThirdMicroBenchmark(num_elements=_SUITE_MB3_ELEMENTS)
        if cache is None and cache_dir is not None:
            from repro.perf.cache import ShardedCharacterizationStore

            cache = ShardedCharacterizationStore(cache_dir)
        #: Optional persistent on-disk cache; ``None`` keeps the suite's
        #: persistence opt-in (the CLI turns it on by default).
        self.cache = cache
        #: In-memory memo keyed by the frozen board value itself, so a
        #: board that keeps its name but changes a timing field (a
        #: ``dataclasses.replace`` variant) is characterized afresh.
        self._cache: Dict[BoardConfig, DeviceCharacterization] = {}
        self._raw: Dict[BoardConfig, SuiteResults] = {}
        #: In-memory profile memo keyed by the profile's content key
        #: (:func:`repro.perf.cache.cache_key` with a workload).
        self._profiles: Dict[str, AppProfile] = {}

    def run_all(self, board: BoardConfig) -> SuiteResults:
        """Run MB1-MB3 on a fresh SoC for ``board``.

        The micro-benchmark boundaries are cooperative deadline
        checkpoints: a suite running under
        :func:`repro.resilience.deadline.deadline_scope` stops with a
        structured ``DEADLINE_EXCEEDED`` between benchmarks instead of
        overshooting the budget.
        """
        from repro.soc.soc import SoC

        with obs.span("microbench.suite", board=board.name,
                      backend=self.backend.name):
            soc = SoC(board, backend=self.backend)
            checkpoint("microbench.mb1", board=board.name)
            with obs.span("microbench.mb1", board=board.name):
                first = self.first.run(soc)
            checkpoint("microbench.mb2", board=board.name)
            with obs.span("microbench.mb2", board=board.name):
                second = self.second.run(
                    soc,
                    gpu_peak_throughput=first.gpu_max_throughput["SC"],
                    cpu_peak_throughput=first.cpu_max_throughput["SC"],
                )
            checkpoint("microbench.mb3", board=board.name)
            with obs.span("microbench.mb3", board=board.name):
                third = self.third.run(soc)
        results = SuiteResults(first=first, second=second, third=third)
        self._raw[_scoped(board)[0]] = results
        return results

    def cache_signature(self) -> Dict[str, Any]:
        """The micro-benchmark parameters a persistent entry is keyed
        by — any change re-keys (and thereby invalidates) the entry."""
        return {
            "backend": self.backend.cache_token(),
            "first": {
                "matrix_fraction_of_llc": self.first.matrix_fraction_of_llc,
                "gpu_sweep_repeats": self.first.gpu_sweep_repeats,
            },
            "second": {
                "fractions": list(self.second.fractions),
                "array_bytes": self.second.array_bytes,
                "sweep_repeats": self.second.sweep_repeats,
            },
            "third": {
                "num_elements": self.third.num_elements,
                "cpu_balance": self.third.cpu_balance,
            },
        }

    def profile_signature(self, model: str) -> Dict[str, Any]:
        """What keys a profile entry besides the board and the
        workload's content: the communication model and the timing
        backend with its ``SimConfig``."""
        return {"backend": self.backend.cache_token(), "model": model.upper()}

    def _persistent_load(self, board: BoardConfig,
                         signature: Optional[Dict[str, Any]] = None,
                         workload=None):
        """The stored characterization (or, with ``workload``, profile
        under ``signature``); None without a store."""
        if self.cache is None:
            return None
        if signature is None:
            signature = self.cache_signature()
        return self.cache.load(board, signature, workload)

    def _persistent_store(self, board: BoardConfig, value,
                          signature: Optional[Dict[str, Any]] = None,
                          workload=None) -> None:
        if self.cache is None:
            return
        if signature is None:
            signature = self.cache_signature()
        self.cache.store(board, signature, value, workload)

    def _through_caches(self, counter: str, memo: Dict[Any, Any], memo_key,
                        load: Callable[[], Any],
                        compute: Callable[[bool], Any],
                        memoize_in_scope: bool = True, force: bool = False
                        ) -> Tuple[Any, str]:
        """memory → store → compute: the one cache path of both entry
        kinds, and the one place fault injection changes it.

        Returns the value and where it came from (``"memo"``,
        ``"store"`` or ``"computed"``).  ``compute(persist)`` computes
        a miss and persists it when asked; every answer is memoized.
        ``force`` skips both lookups.

        A cached answer would skip the injector's seams, so nothing
        crosses an injection scope's boundary: inside one the store is
        neither read nor written, the memo key is paired with the
        active injector (:func:`_scoped`), and with
        ``memoize_in_scope=False`` nothing is memoized at all.  A
        finished scope's entries can never answer again, so a scope's
        store drops every other scope's (:meth:`_forget_other_scopes`).
        """
        memo_key, clean = _scoped(memo_key)
        if not (clean or memoize_in_scope):
            return compute(False), "computed"
        hit = None if force else memo.get(memo_key)
        if hit is not None:
            obs.counter_inc(f"{counter}.memory_hit")
            return hit, "memo"
        persisted = load() if clean and not force else None
        if persisted is not None:
            obs.counter_inc(f"{counter}.store_hit")
            memo[memo_key] = persisted
            return persisted, "store"
        value = compute(clean)
        if not clean:
            self._forget_other_scopes(memo_key[1])
        memo[memo_key] = value
        return value, "computed"

    def _forget_other_scopes(self, injector) -> None:
        """Drop the memo entries (and raw results) that injection
        scopes other than ``injector``'s left behind, with their
        injectors and fault logs."""
        for memo in (self._cache, self._raw):
            for key in list(memo):
                if isinstance(key, tuple) and key[1] is not injector:
                    memo.pop(key, None)

    def characterize(self, board: BoardConfig, force: bool = False,
                     retry_policy: Optional[RetryPolicy] = None
                     ) -> DeviceCharacterization:
        """Characterize ``board`` (memoized by board value).

        With a persistent cache attached, a content-hash hit (same
        board, same micro-benchmark parameters, same package version)
        skips the suite entirely; ``force=True`` recomputes and
        refreshes both caches.  Under fault injection the persistent
        cache is bypassed in both directions and the memo holds one
        answer per injection scope (:meth:`_through_caches`).
        Concurrent *misses* for one key are
        collapsed by a keyed single-flight (lock-file based across
        processes), so a stampede of cold callers characterizes once.

        Retries are governed by a declarative
        :class:`~repro.resilience.retry.RetryPolicy` passed as
        ``retry_policy`` (default: a single attempt).  Each attempt
        re-runs the whole suite on a fresh SoC — under fault injection
        the plan's RNG advances, so a retry *is* a reseed of the
        perturbations; on clean hardware a retry re-measures a noisy
        run.  With a multi-attempt budget the
        last error is re-raised as ``MICROBENCH_RETRIES_EXHAUSTED``,
        annotated with the attempt count.
        """
        policy = retry_policy or RetryPolicy(max_attempts=1)

        def compute(persist: bool) -> DeviceCharacterization:
            if not persist:
                return self._characterize_with_retries(board, policy)
            return self._characterize_deduped(board, policy, force)

        device, _ = self._through_caches(
            "microbench.characterize", self._cache, board,
            load=lambda: self._persistent_load(board),
            compute=compute, force=force)
        return device

    def profile(self, workload, board: BoardConfig,
                model: str = "SC") -> Tuple[AppProfile, str]:
        """Profile ``workload`` on ``board`` under ``model``, once per
        content: the profile and where it came from (``"memo"``,
        ``"store"`` or ``"computed"``).

        A profile is keyed by the workload's content, the board, the
        model, the timing backend and the package version, never by a
        name.  A miss runs :meth:`Profiler.profile` (the exact
        simulation) on a fresh SoC and persists the result.  Under
        fault injection every call simulates and nothing is memoized or
        persisted: each profile call is a fault site.  Concurrent misses
        may both simulate; their results are equal.
        """
        from repro.perf.cache import cache_key

        signature = self.profile_signature(model)

        def simulate(persist: bool) -> AppProfile:
            from repro.profiling.profiler import Profiler
            from repro.soc.soc import SoC

            soc = SoC(board, backend=self.backend)
            value = Profiler(soc).profile(workload, model=model)
            if persist:
                self._persistent_store(board, value, signature, workload)
            return value

        return self._through_caches(
            "profiling.profile", self._profiles,
            cache_key(board, signature, workload),
            load=lambda: self._persistent_load(board, signature, workload),
            compute=simulate, memoize_in_scope=False)

    def memoized(self, board: BoardConfig
                 ) -> Optional[DeviceCharacterization]:
        """The in-memory characterization of ``board`` (in the current
        injection scope, if any), or ``None``.

        Never runs the suite or reads the persistent store.
        """
        return self._cache.get(_scoped(board)[0])

    def _characterize_deduped(
        self, board: BoardConfig, policy: RetryPolicy, force: bool
    ) -> DeviceCharacterization:
        """Single-flight wrapper around the retried suite run (clean
        runs only: see :meth:`_through_caches`).

        Active only when a persistent cache is attached (the lock file
        lives next to the cache entries) and the call is not ``force``
        (which must recompute by definition).

        The computed value is persisted *inside* the flight — before
        the leader's lock is released — so a cross-process follower
        that waited out the lock always finds the entry on its
        re-check.  (Persisting after the dedup returned would reopen
        the stampede: lock gone, store still empty, follower
        recomputes.)
        """
        if self.cache is None or force:
            value = self._characterize_with_retries(board, policy)
            self._persistent_store(board, value)
            return value
        from repro.perf.cache import cache_key

        def compute_and_persist() -> DeviceCharacterization:
            value = self._characterize_with_retries(board, policy)
            self._persistent_store(board, value)
            return value

        return self._single_flight().do(
            cache_key(board, self.cache_signature()),
            compute=compute_and_persist,
            reload=lambda: self._persistent_load(board),
        )

    def _single_flight(self):
        if getattr(self, "_sf", None) is None:
            from repro.resilience.singleflight import SingleFlight

            self._sf = SingleFlight(lock_dir=self.cache.directory)
        return self._sf

    def _characterize_with_retries(
        self, board: BoardConfig, policy: RetryPolicy
    ) -> DeviceCharacterization:
        """Run the suite under ``policy``; annotate exhausted budgets."""
        attempts_made = []

        def on_attempt_failed(attempt: int, error) -> None:
            attempts_made.append(attempt)
            obs.event("microbench.characterize.attempt_failed",
                      board=board.name, attempt=attempt, code=error.code)
            obs.counter_inc("microbench.characterize.failed_attempts")

        try:
            return policy.call(
                lambda: self._characterize_once(board),
                exceptions=(MicrobenchmarkError, ModelError),
                on_attempt_failed=on_attempt_failed,
            )
        except (MicrobenchmarkError, ModelError) as error:
            if policy.max_attempts == 1:
                raise  # no retry budget: preserve the raw error
            attempts = len(attempts_made)
            raise MicrobenchmarkError(
                f"characterization of {board.name!r} failed after "
                f"{attempts} attempt(s) — {error.code}: {error.message}",
                code="MICROBENCH_RETRIES_EXHAUSTED",
                details={"board": board.name, "attempts": attempts,
                         "last_error": error.to_dict()},
            ) from error

    def characterize_many(
        self,
        boards: Sequence[BoardConfig],
        parallel: bool = True,
        max_workers: Optional[int] = None,
        force: bool = False,
    ) -> List[DeviceCharacterization]:
        """Characterize several boards, fanning out over processes.

        Results keep the input order.  Boards already satisfied by the
        in-memory or persistent cache are answered inline; only the
        remaining suite runs are distributed.  The workers rebuild this
        suite from its parameters (the suite object itself never
        crosses the process boundary) and the parent re-integrates
        their results into both caches.
        """
        from repro.perf.parallel import ParallelRunner

        boards = list(boards)
        if injection_active():
            # Worker processes would escape the injector's patches.
            return [self.characterize(b, force=force) for b in boards]
        pending = []
        for board in boards:
            if force:
                pending.append(board)
            elif board not in self._cache:
                persisted = self._persistent_load(board)
                if persisted is not None:
                    self._cache[board] = persisted
                else:
                    pending.append(board)
        if pending:
            runner = ParallelRunner(max_workers=max_workers, parallel=parallel)
            jobs = [
                (board, self.cache_signature(), self.backend)
                for board in pending
            ]
            for board, device in zip(
                pending, runner.map(_characterize_worker, jobs)
            ):
                self._cache[board] = device
                self._persistent_store(board, device)
        return [self.characterize(b) for b in boards]

    def _characterize_once(self, board: BoardConfig) -> DeviceCharacterization:
        """One uncached characterization attempt."""
        results = self.run_all(board)
        return DeviceCharacterization(
            board_name=board.name,
            io_coherent=board.io_coherent,
            gpu_cache_throughput=results.first.gpu_max_throughput,
            cpu_cache_throughput=results.first.cpu_max_throughput,
            gpu_thresholds=results.second.gpu_analysis,
            cpu_thresholds=results.second.cpu_analysis,
            sc_zc_max_speedup=max(1.0, results.third.sc_zc_max_speedup),
            zc_sc_max_speedup=max(1.0, results.first.zc_sc_kernel_ratio),
        )

    def raw_results(self, board: BoardConfig) -> Optional[SuiteResults]:
        """Raw micro-benchmark results of the last run on ``board``,
        keyed like the memo: by the frozen board value, not its name,
        and by the injection scope."""
        return self._raw.get(_scoped(board)[0])


def _scoped(key) -> Tuple[Any, bool]:
    """``(memo key, clean)`` for ``key``: the key itself outside fault
    injection; inside a scope, the key paired with the active injector,
    so an answer computed in the scope answers only there and no clean
    entry answers in it."""
    injector = injection_active()
    return ((key, injector), False) if injector else (key, True)


def _characterize_worker(job) -> DeviceCharacterization:
    """One board's characterization in a worker process.

    Module-level (picklable); rebuilds an equivalent suite from the
    signature so the parent's suite object stays in the parent.
    """
    board, signature, backend = job
    suite = MicrobenchmarkSuite(
        first=FirstMicroBenchmark(**signature["first"]),
        second=SecondMicroBenchmark(**signature["second"]),
        third=ThirdMicroBenchmark(**signature["third"]),
        backend=backend,
    )
    return suite.characterize(board)
