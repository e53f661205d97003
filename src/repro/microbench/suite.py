"""Micro-benchmark suite: one-call device characterization.

Runs MB1→MB3 in order (MB2 consumes MB1's peak throughputs, the
characterization consumes all three) and assembles the
:class:`~repro.model.device.DeviceCharacterization` the decision flow
needs.  Characterizations are memoized per board value — the paper's
workflow characterizes a device once and reuses the result across
applications — and, when a :class:`~repro.perf.cache.CharacterizationCache`
is attached, persisted on disk across processes under a content hash
of the board and the suite's parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro import obs
from repro.errors import MicrobenchmarkError, ModelError
from repro.microbench.first import FirstBenchResult, FirstMicroBenchmark
from repro.microbench.second import SecondBenchResult, SecondMicroBenchmark
from repro.microbench.third import ThirdBenchResult, ThirdMicroBenchmark
from repro.model.device import DeviceCharacterization
from repro.resilience.deadline import checkpoint
from repro.resilience.retry import RetryPolicy
from repro.sim.backend import get_backend
from repro.soc.board import BoardConfig
from repro.soc.soc import SoC

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.perf.cache import CharacterizationCache

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
        cache: Optional["CharacterizationCache"] = None,
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
            # The sharded store is the default persistent backend: same
            # correctness contract as the flat cache plus LRU budgets,
            # per-shard metrics and legacy flat-entry migration.
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

    def run_all(self, board: BoardConfig) -> SuiteResults:
        """Run MB1-MB3 on a fresh SoC for ``board``.

        The micro-benchmark boundaries are cooperative deadline
        checkpoints: a suite running under
        :func:`repro.resilience.deadline.deadline_scope` stops with a
        structured ``DEADLINE_EXCEEDED`` between benchmarks instead of
        overshooting the budget.
        """
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
        self._raw[board] = results
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

    def _persistent_load(self, board: BoardConfig):
        if self.cache is None:
            return None
        from repro.robustness.inject import injection_active

        if injection_active():
            # A cached result was computed outside the fault plan's
            # reach; using it would mask the injected faults.
            return None
        return self.cache.load(board, self.cache_signature())

    def _persistent_store(
        self, board: BoardConfig, device: DeviceCharacterization
    ) -> None:
        if self.cache is None:
            return
        from repro.robustness.inject import injection_active

        if injection_active():
            # Never persist a perturbed characterization.
            return
        self.cache.store(board, self.cache_signature(), device)

    def characterize(self, board: BoardConfig, force: bool = False,
                     retry_policy: Optional[RetryPolicy] = None
                     ) -> DeviceCharacterization:
        """Characterize ``board`` (memoized by board value).

        With a persistent cache attached, a content-hash hit (same
        board, same micro-benchmark parameters, same package version)
        skips the suite entirely; ``force=True`` recomputes and
        refreshes both caches.  Fault injection bypasses the persistent
        cache in both directions.  Concurrent *misses* for one key are
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
        if not force:
            hit = self._cache.get(board)
            if hit is not None:
                obs.counter_inc("microbench.characterize.memory_hit")
                return hit
            persisted = self._persistent_load(board)
            if persisted is not None:
                self._cache[board] = persisted
                return persisted
        policy = retry_policy or RetryPolicy(max_attempts=1)
        characterization = self._characterize_deduped(board, policy, force)
        self._cache[board] = characterization
        return characterization

    def memoized(self, board: BoardConfig
                 ) -> Optional[DeviceCharacterization]:
        """The in-memory characterization of ``board``, or ``None``.

        Never runs the suite or reads the persistent store.
        """
        return self._cache.get(board)

    def _characterize_deduped(
        self, board: BoardConfig, policy: RetryPolicy, force: bool
    ) -> DeviceCharacterization:
        """Single-flight wrapper around the retried suite run.

        Active only when a persistent cache is attached (the lock file
        lives next to the cache entries), injection is off (a follower
        must not reuse another process's unperturbed result) and the
        call is not ``force`` (which must recompute by definition).

        The computed value is persisted *inside* the flight — before
        the leader's lock is released — so a cross-process follower
        that waited out the lock always finds the entry on its
        re-check.  (Persisting after the dedup returned would reopen
        the stampede: lock gone, store still empty, follower
        recomputes.)
        """
        from repro.robustness.inject import injection_active

        if self.cache is None or force or injection_active():
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
        from repro.robustness.inject import injection_active

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
        keyed like the memo: by the frozen board value, not its name."""
        return self._raw.get(board)

    def probe_points(self, board: BoardConfig,
                     fractions: Sequence[float]) -> List["SweepPoint"]:
        """MB2's GPU sweep at just ``fractions`` — the surrogate's
        k-point reality probe (no MB1/MB3, no threshold analysis).

        Runs the batch engine's GPU side when it can serve the board
        (see :meth:`SecondMicroBenchmark._sweep_vectorized`), else the
        per-point GPU sweep; each sweep point is an independent
        ZC-vs-SC measurement, so restricting the fractions yields the
        same values the full sweep would have produced at them.
        """
        from repro.perf.batch import BatchUnsupported, mb2_gpu_points
        from repro.robustness.inject import injection_active

        bench = SecondMicroBenchmark(
            fractions=tuple(fractions),
            array_bytes=self.second.array_bytes,
            sweep_repeats=self.second.sweep_repeats,
        )
        soc = SoC(board, backend=self.backend)
        with obs.span("microbench.probe", board=board.name,
                      points=len(bench.fractions)):
            points = None
            if not injection_active():
                try:
                    points = mb2_gpu_points(soc, bench.fractions,
                                            bench.array_bytes,
                                            bench.sweep_repeats)
                except BatchUnsupported:
                    points = None
            if points is None:
                points = bench._sweep_gpu(soc)
        return list(points)


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
