"""Multi-level cache hierarchy with a streaming timing model.

A :class:`CacheHierarchy` chains cache levels over a DRAM model and
answers the question the processor models need: *how long does this
access stream take, and which level served how much of it?*

Timing model
------------

The hierarchy treats the levels as pipeline stages.  Stage *i* must move
the bytes that reach it (requests arriving at that level, plus dirty
writeback traffic from the levels above); for a streaming workload the
elapsed time is set by the slowest stage:

``streaming_time = max_i(stage_bytes_i / stage_bandwidth_i)``

This reproduces the behaviours the paper measures: when a kernel hits in
the LL-L1 caches its throughput is the cache bandwidth; once the
footprint spills, DRAM becomes the bottleneck; and when zero-copy
disables the caches every access streams at the (much lower) uncached
path bandwidth.

Exposed latency (for processors that cannot hide it) is reported
separately as ``dram_transactions * dram_latency``; the CPU/GPU models
decide how much of it to charge.

Exact vs analytic
-----------------

Small traces replay access-by-access through the exact LRU simulator;
large regular traces use :mod:`repro.soc.analytic`.  ``mode="auto"``
switches on trace size; both paths produce the same
:class:`MemoryResult` shape and are cross-validated in the tests.

The closed-form path is one level walk over a
:class:`~repro.soc.analytic.SummaryBatch`
(:meth:`CacheHierarchy._walk_summaries`): ``process(mode="analytic")``
walks a batch of one stream, :meth:`CacheHierarchy.process_summaries`
a whole micro-benchmark sweep.

Timing backends
---------------

The routing above is the *analytic* backend.  A hierarchy built with
``backend="simulated"`` instead replays every stream — virtual ones
through synthesized windows — through the event-driven bit-PLRU cache
and DDR row-buffer simulator (:mod:`repro.sim`), producing the same
:class:`MemoryResult` shape with simulator-derived DRAM timing.  The
seam is :class:`repro.sim.backend.TimingBackend`; the analytic batch
path (:meth:`CacheHierarchy.process_summaries`) declares itself
analytic-only and refuses other backends.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, SimulationError
from repro.sim import dramsim as sim_dram
from repro.sim import engine as sim_engine
from repro.sim.backend import TimingBackend, get_backend
from repro.soc import analytic
from repro.soc.cache import CacheConfig, SetAssociativeCache
from repro.soc.coherence import FlushCostModel
from repro.soc.dram import DRAMModel
from repro.soc.stream import AccessStream

#: Above this many transactions, ``mode="auto"`` uses the analytic path
#: (when the pattern supports it).
EXACT_SIMULATION_LIMIT = 200_000


@dataclass(frozen=True)
class LevelSpec:
    """One cache level plus its service characteristics."""

    config: CacheConfig
    bandwidth: float  # bytes/s this level can serve
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigurationError(
                f"level {self.config.name}: bandwidth must be positive"
            )
        if self.latency_s < 0:
            raise ConfigurationError(
                f"level {self.config.name}: latency cannot be negative"
            )


@dataclass
class LevelTraffic:
    """Traffic observed at one level while serving a stream."""

    name: str
    enabled: bool
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writeback_lines: int = 0
    bytes_in: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over accesses (0 when idle)."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        """Misses over accesses (0 when idle)."""
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass
class MemoryResult:
    """Outcome of serving one access stream."""

    transactions: int
    bytes_requested: int
    levels: List[LevelTraffic]
    dram_read_bytes: int
    dram_write_bytes: int
    dram_transactions: int
    stage_times: Dict[str, float]
    streaming_time_s: float
    exposed_latency_s: float

    @property
    def dram_bytes(self) -> int:
        """Total DRAM traffic in bytes."""
        return self.dram_read_bytes + self.dram_write_bytes

    @property
    def throughput(self) -> float:
        """Requested bytes over streaming time (bytes/s)."""
        if self.streaming_time_s <= 0:
            return 0.0
        return self.bytes_requested / self.streaming_time_s

    def level(self, name: str) -> LevelTraffic:
        """Traffic record for the level called ``name``."""
        for lv in self.levels:
            if lv.name == name:
                return lv
        raise SimulationError(f"no level named {name!r} in result")

    @property
    def l1(self) -> LevelTraffic:
        """First (innermost) level."""
        return self.levels[0]

    @property
    def llc(self) -> LevelTraffic:
        """Last (outermost) cache level."""
        return self.levels[-1]


class CacheHierarchy:
    """A chain of cache levels in front of DRAM for one processor."""

    def __init__(
        self,
        specs: Sequence[LevelSpec],
        dram: DRAMModel,
        memory_port_bandwidth: float = float("inf"),
        name: str = "hierarchy",
        backend=None,
    ) -> None:
        if not specs:
            raise ConfigurationError("a hierarchy needs at least one cache level")
        self.name = name
        self.specs = list(specs)
        self.caches = [SetAssociativeCache(spec.config) for spec in self.specs]
        self.dram = dram
        self.memory_port_bandwidth = memory_port_bandwidth
        #: The timing backend serving :meth:`process` (analytic default).
        self.backend: TimingBackend = get_backend(backend)
        # Event-driven state, created lazily on first simulated use:
        # one bit-PLRU state per level plus the DRAM row-buffer state.
        self._sim_levels: Optional[List[sim_engine.CacheSimState]] = None
        self._sim_dram: Optional[sim_dram.DRAMSimState] = None
        for i in range(1, len(self.specs)):
            inner, outer = self.specs[i - 1].config, self.specs[i].config
            if outer.line_size < inner.line_size:
                raise ConfigurationError(
                    f"{outer.name} line ({outer.line_size}) smaller than "
                    f"{inner.name} line ({inner.line_size})"
                )

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------

    @property
    def l1(self) -> SetAssociativeCache:
        """Innermost cache."""
        return self.caches[0]

    @property
    def llc(self) -> SetAssociativeCache:
        """Outermost (last-level) cache."""
        return self.caches[-1]

    def set_level_enabled(self, name: str, enabled: bool) -> None:
        """Enable or disable one level by its config name."""
        for i, cache in enumerate(self.caches):
            if cache.config.name == name:
                if not enabled and cache.enabled:
                    cache.invalidate()
                    self._sim_invalidate_level(i)
                cache.enabled = enabled
                return
        raise ConfigurationError(f"no cache level named {name!r}")

    def set_llc_enabled(self, enabled: bool) -> None:
        """Enable or disable the last-level cache."""
        if not enabled and self.llc.enabled:
            self.llc.invalidate()
            self._sim_invalidate_level(len(self.caches) - 1)
        self.llc.enabled = enabled

    def set_all_enabled(self, enabled: bool) -> None:
        """Enable or disable every level (zero-copy on TX2/Nano
        disables the whole CPU hierarchy's coherent levels)."""
        for i, cache in enumerate(self.caches):
            if not enabled and cache.enabled:
                cache.invalidate()
                self._sim_invalidate_level(i)
            cache.enabled = enabled

    def reset(self) -> None:
        """Clear all cache contents and statistics."""
        for cache in self.caches:
            cache.reset()
        self._sim_clear()

    @contextlib.contextmanager
    def scaled_bandwidths(self, factor: float) -> Iterator[None]:
        """Temporarily scale every level's service bandwidth.

        The unified-memory executor uses this to apply the small
        driver-dependent throughput delta the paper measures between UM
        and SC (Table I: within ±8 %).
        """
        if factor <= 0:
            raise ConfigurationError(f"bandwidth factor must be positive, got {factor}")
        saved = self.specs
        self.specs = [replace(spec, bandwidth=spec.bandwidth * factor) for spec in saved]
        try:
            yield
        finally:
            self.specs = saved

    def invalidate_all(self) -> None:
        """Drop all lines in every level without writing back."""
        for cache in self.caches:
            cache.invalidate()
        self._sim_clear()

    def flush(self, cost_model: FlushCostModel) -> "FlushResult":
        """Flush every level (software coherence around GPU kernels).

        Returns the elapsed time and the dirty bytes written to DRAM.
        Residency is whichever engine populated it: the exact LRU
        arrays on the analytic backend, the bit-PLRU simulator state on
        the event-driven one (they are never both populated).
        """
        total_time = 0.0
        total_bytes = 0
        dram_bw = min(self.memory_port_bandwidth, self.dram.config.effective_bandwidth)
        for i, cache in enumerate(self.caches):
            if not cache.enabled:
                continue
            resident = cache.resident_lines
            dirty = cache.dirty_lines
            if self._sim_levels is not None:
                state = self._sim_levels[i]
                resident += state.resident_lines
                dirty += state.dirty_lines
                state.flush()
            line = cache.config.line_size
            total_time += cost_model.flush_time(resident, dirty, line, dram_bw)
            total_bytes += dirty * line
            cache.flush()
        self.dram.record(0, total_bytes)
        return FlushResult(time_s=total_time, writeback_bytes=total_bytes)

    # -- event-driven state management -----------------------------------

    def _sim_states(self) -> List[sim_engine.CacheSimState]:
        """Per-level bit-PLRU states, created on first simulated use."""
        if self._sim_levels is None:
            self._sim_levels = [
                sim_engine.CacheSimState(
                    num_sets=cache.config.num_sets,
                    ways=cache.config.ways,
                    line_size=cache.config.line_size,
                )
                for cache in self.caches
            ]
        return self._sim_levels

    def _sim_dram_state(self, config) -> sim_dram.DRAMSimState:
        """Row-buffer state, created on first simulated use."""
        if self._sim_dram is None:
            self._sim_dram = sim_dram.DRAMSimState(config)
        return self._sim_dram

    def _sim_invalidate_level(self, index: int) -> None:
        if self._sim_levels is not None:
            self._sim_levels[index].invalidate()

    def _sim_clear(self) -> None:
        if self._sim_levels is not None:
            for state in self._sim_levels:
                state.invalidate()
        if self._sim_dram is not None:
            self._sim_dram.reset()

    # ------------------------------------------------------------------
    # stream processing
    # ------------------------------------------------------------------

    def process(self, stream: AccessStream, mode: str = "auto") -> MemoryResult:
        """Serve ``stream`` and report traffic and timing.

        Args:
            stream: the access trace.
            mode: ``"exact"``, ``"analytic"`` or ``"auto"``.  The mode
                steers the analytic backend's exact-vs-closed-form
                routing; the event-driven backend always replays the
                (possibly synthesized) trace and ignores it.
        """
        if mode not in ("auto", "exact", "analytic"):
            raise SimulationError(f"unknown processing mode {mode!r}")
        return self.backend.process(self, stream, mode)

    def _process_default(self, stream: AccessStream, mode: str) -> MemoryResult:
        """Analytic-backend routing: exact LRU replay or closed form."""
        if stream.is_virtual:
            if mode == "exact":
                raise SimulationError(
                    "virtual streams carry no addresses and cannot be "
                    "simulated exactly; use mode='analytic' or 'auto'"
                )
            return self._process_analytic(stream)
        if mode == "analytic" or (
            mode == "auto"
            and stream.total_transactions > EXACT_SIMULATION_LIMIT
            and analytic.supports(stream.pattern)
        ):
            return self._process_analytic(stream)
        return self._process_exact(stream)

    # -- exact path -----------------------------------------------------

    def _run_pass(self, addresses: np.ndarray, writes: np.ndarray,
                  transaction_size: int) -> dict:
        """Replay one pass; returns raw per-level numbers."""
        per_level = []
        current_addrs = addresses
        current_writes = writes
        granularity = transaction_size
        writeback_bytes_from_above = 0
        stage_bytes: List[int] = []
        for cache in self.caches:
            n = len(current_addrs)
            result = cache.access_trace(current_addrs, current_writes)
            bytes_in = n * granularity
            per_level.append(
                dict(
                    accesses=n,
                    hits=result.num_hits,
                    misses=result.num_misses,
                    writebacks=result.writeback_lines,
                    bytes_in=bytes_in,
                )
            )
            stage_bytes.append(bytes_in + writeback_bytes_from_above)
            writeback_bytes_from_above += result.writeback_lines * cache.config.line_size
            if cache.enabled:
                granularity = cache.config.line_size
                current_addrs = result.miss_line_addresses
                current_writes = np.zeros(len(current_addrs), dtype=bool)
            else:
                current_addrs = result.miss_line_addresses
                # writes pass through a disabled cache unchanged
                current_writes = current_writes[~result.hits] \
                    if result.num_hits else current_writes
        dram_transactions = len(current_addrs)
        passthrough_writes = int(np.count_nonzero(current_writes))
        dram_read = (dram_transactions - passthrough_writes) * granularity
        dram_write = passthrough_writes * granularity + writeback_bytes_from_above
        return dict(
            levels=per_level,
            stage_bytes=stage_bytes,
            dram_read=dram_read,
            dram_write=dram_write,
            dram_transactions=dram_transactions,
        )

    def _process_exact(self, stream: AccessStream) -> MemoryResult:
        repeats = stream.repeats
        passes = [self._run_pass(stream.addresses, stream.is_write,
                                 stream.transaction_size)]
        multipliers = [1.0]
        if repeats > 1:
            passes.append(self._run_pass(stream.addresses, stream.is_write,
                                         stream.transaction_size))
            multipliers.append(float(repeats - 1))
        return self._combine(stream, passes, multipliers)

    # -- analytic path ---------------------------------------------------

    def _process_analytic(self, stream: AccessStream) -> MemoryResult:
        """Closed-form path: the level walk over a batch of one."""
        walk = self._walk_summaries(analytic.SummaryBatch.from_stream(stream))
        return self._combine(stream, [walk.row(0)], [1.0])

    def _walk_summaries(self, batch: analytic.SummaryBatch) -> "_SummaryWalk":
        """Chain the closed-form estimates of ``batch`` down the levels.

        Each level estimates every incoming summary component, adds up
        its traffic and hands its miss components to the next level;
        whatever leaves the last level is DRAM traffic.  Both the
        per-stream analytic path and :meth:`process_summaries` reduce
        this one walk.
        """
        n = len(batch)
        batches: List[analytic.SummaryBatch] = [batch]
        levels: List[Dict[str, np.ndarray]] = []
        stage_bytes: List[np.ndarray] = []
        writeback_bytes_from_above = np.zeros(n, dtype=np.float64)
        for cache in self.caches:
            level = dict(
                accesses=np.zeros(n, dtype=np.int64),
                hits=np.zeros(n, dtype=np.int64),
                misses=np.zeros(n, dtype=np.int64),
                writebacks=np.zeros(n, dtype=np.int64),
                bytes_in=np.zeros(n, dtype=np.float64),
            )
            next_batches: List[analytic.SummaryBatch] = []
            for component in batches:
                est = analytic.estimate_level(
                    component, cache.config, cache.enabled
                )
                level["accesses"] += est.accesses
                level["hits"] += est.hits
                level["misses"] += est.misses
                level["writebacks"] += est.writeback_lines
                level["bytes_in"] += component.total * component.transaction_size
                next_batches.extend(
                    analytic.derive_miss_batches(
                        component, est, cache.config, cache.enabled
                    )
                )
            levels.append(level)
            stage_bytes.append(level["bytes_in"] + writeback_bytes_from_above)
            writeback_bytes_from_above = (
                writeback_bytes_from_above
                + level["writebacks"] * cache.config.line_size
            )
            batches = next_batches

        dram_read = np.zeros(n, dtype=np.float64)
        dram_write = np.zeros(n, dtype=np.float64)
        dram_transactions = np.zeros(n, dtype=np.int64)
        for component in batches:
            total = component.total
            write_txns = (total * component.write_fraction).astype(np.int64)
            dram_transactions += total
            dram_read += (total - write_txns) * component.transaction_size
            dram_write += write_txns * component.transaction_size
        return _SummaryWalk(
            levels=levels,
            stage_bytes=stage_bytes,
            dram_read=dram_read,
            dram_write=dram_write + writeback_bytes_from_above,
            dram_transactions=dram_transactions,
        )

    # -- event-driven (simulated) path -------------------------------------

    def _process_simulated(self, stream: AccessStream, backend) -> MemoryResult:
        """Serve ``stream`` through the event-driven simulator.

        Materialized traces replay verbatim; virtual traces replay a
        synthesized window (see
        :meth:`repro.sim.backend.SimulatedBackend.synthesize`) with the
        resulting counts scaled back to the full stream.  Like the
        exact path, repeated executions are a cold pass plus a warm
        pass weighted ``repeats - 1``.
        """
        addresses, writes, scale = backend.synthesize(stream, self)
        config = backend.config
        with obs.span(
            "sim.process",
            hierarchy=self.name,
            transactions=int(len(addresses)),
            scale=float(scale),
        ):
            passes = [
                self._run_sim_pass(
                    addresses, writes, stream.transaction_size, scale, config
                )
            ]
            multipliers = [1.0]
            if stream.repeats > 1:
                passes.append(
                    self._run_sim_pass(
                        addresses, writes, stream.transaction_size, scale, config
                    )
                )
                multipliers.append(float(stream.repeats - 1))
            obs.counter_inc("sim.transactions", int(len(addresses)) * len(passes))
            obs.counter_inc("sim.passes", len(passes))
            return self._combine(stream, passes, multipliers)

    def _run_sim_pass(
        self,
        addresses: np.ndarray,
        writes: np.ndarray,
        transaction_size: int,
        scale: float,
        config,
    ) -> dict:
        """Replay one pass through the bit-PLRU levels and row buffers.

        Counts are scaled from the simulated window back to the full
        stream (``scale`` is 1.0 for materialized traces); hit counts
        are derived from rounded accesses minus rounded misses so the
        per-level identity ``hits + misses == accesses`` always holds.
        """
        states = self._sim_states()
        per_level = []
        current_addrs = np.asarray(addresses, dtype=np.int64)
        current_writes = np.asarray(writes, dtype=bool)
        granularity = transaction_size
        writeback_bytes_from_above = 0.0
        stage_bytes: List[float] = []
        for i, cache in enumerate(self.caches):
            n = len(current_addrs)
            if cache.enabled:
                result = sim_engine.access_trace(
                    states[i],
                    current_addrs,
                    current_writes,
                    write_back=cache.config.write_back,
                    write_allocate=cache.config.write_allocate,
                    vectorized=config.vectorized,
                )
                hits = result.num_hits
                misses = result.num_misses
                writebacks = result.writeback_lines
                next_addrs = result.miss_line_addresses
                next_writes = np.zeros(len(next_addrs), dtype=bool)
                next_granularity = cache.config.line_size
            else:
                # Disabled levels pass accesses through untouched at
                # the original granularity (the zero-copy uncached
                # path), exactly like the exact-LRU bypass.
                hits = 0
                misses = n
                writebacks = 0
                next_addrs = current_addrs
                next_writes = current_writes
                next_granularity = granularity
            # The cache's own counters record actual simulator events
            # (window-sized, unscaled) so hit *rates* stay exact.
            writes_n = int(np.count_nonzero(current_writes))
            cache.stats.accesses += n
            cache.stats.write_accesses += writes_n
            cache.stats.read_accesses += n - writes_n
            cache.stats.hits += hits
            cache.stats.misses += misses
            cache.stats.writebacks += writebacks
            if not cache.enabled:
                cache.stats.bypassed += n
            acc_s = int(round(n * scale))
            miss_s = int(round(misses * scale))
            wb_s = int(round(writebacks * scale))
            per_level.append(
                dict(
                    accesses=acc_s,
                    hits=acc_s - miss_s,
                    misses=miss_s,
                    writebacks=wb_s,
                    bytes_in=acc_s * granularity,
                )
            )
            stage_bytes.append(acc_s * granularity + writeback_bytes_from_above)
            writeback_bytes_from_above += wb_s * cache.config.line_size
            current_addrs = next_addrs
            current_writes = next_writes
            granularity = next_granularity
        dram_transactions = len(current_addrs)
        passthrough_writes = int(np.count_nonzero(current_writes))
        read_s = int(round((dram_transactions - passthrough_writes) * scale))
        write_s = int(round(passthrough_writes * scale))
        dram_read = read_s * granularity
        dram_write = write_s * granularity + writeback_bytes_from_above
        raw = dict(
            levels=per_level,
            stage_bytes=stage_bytes,
            dram_read=dram_read,
            dram_write=dram_write,
            dram_transactions=int(round(dram_transactions * scale)),
        )
        # Replay the DRAM-visible trace through the row buffers; the
        # observed hit/miss mix sets the sustained bandwidth for the
        # DRAM stage of this pass (picked up by _combine).
        dram_bytes = dram_read + dram_write
        if dram_transactions > 0:
            dram_result = sim_dram.access(
                self._sim_dram_state(config),
                current_addrs,
                vectorized=config.vectorized,
            )
            obs.counter_inc("sim.dram.row_hits", dram_result.row_hits)
            obs.counter_inc("sim.dram.row_misses", dram_result.row_misses)
            bandwidth = min(
                self.memory_port_bandwidth,
                self.dram.config.peak_bandwidth
                * dram_result.mix_efficiency(config),
            )
            raw["dram_time_s"] = dram_bytes / bandwidth
        elif dram_bytes > 0:
            # Writeback-only traffic: no request trace to replay, fall
            # back to the streaming effective bandwidth.
            bandwidth = min(
                self.memory_port_bandwidth, self.dram.config.effective_bandwidth
            )
            raw["dram_time_s"] = dram_bytes / bandwidth
        return raw

    # -- batch analytic path ----------------------------------------------

    def process_summaries(
        self, batch: analytic.SummaryBatch, record_dram: bool = True
    ) -> "BatchMemoryResult":
        """Serve N stream summaries at once on the analytic path.

        Runs the same level walk as ``process(..., mode="analytic")``
        (:meth:`_walk_summaries`) over a whole
        :class:`~repro.soc.analytic.SummaryBatch` and reduces it to the
        per-stream time/bytes arrays a micro-benchmark sweep needs, so a
        sweep costs a handful of numpy ops instead of one walk per
        point.

        This is an analytic-only fast path: it evaluates the closed
        form directly, so it cannot express another backend's timing.
        Callers (see :mod:`repro.perf.batch`) must check
        ``backend.is_analytic`` first and fall back to scalar
        :meth:`process` calls.
        """
        if not self.backend.is_analytic:
            raise SimulationError(
                "process_summaries is an analytic-only fast path; the "
                f"{self.backend.name!r} backend must route through process()"
            )
        walk = self._walk_summaries(batch)
        dram_bandwidth = min(
            self.memory_port_bandwidth, self.dram.config.effective_bandwidth
        )
        streaming = np.zeros(len(batch), dtype=np.float64)
        for i, cache in enumerate(self.caches):
            if cache.enabled:
                stage = walk.stage_bytes[i]
                streaming = np.maximum(
                    streaming,
                    np.where(stage > 0, stage / self.specs[i].bandwidth, 0.0),
                )
        dram_bytes = walk.dram_read + walk.dram_write
        streaming = np.maximum(
            streaming, np.where(dram_bytes > 0, dram_bytes / dram_bandwidth, 0.0)
        )
        exposed = np.where(
            walk.dram_transactions > 0, self.dram.config.latency_s, 0.0
        )
        if record_dram:
            self.dram.record(int(walk.dram_read.sum()),
                             int(walk.dram_write.sum()))
        return BatchMemoryResult(
            transactions=batch.total,
            bytes_requested=batch.total_bytes,
            dram_read_bytes=walk.dram_read,
            dram_write_bytes=walk.dram_write,
            dram_transactions=walk.dram_transactions,
            streaming_time_s=streaming,
            exposed_latency_s=exposed,
        )

    # -- shared assembly ---------------------------------------------------

    def _combine(self, stream: AccessStream, passes: List[dict],
                 multipliers: List[float]) -> MemoryResult:
        num_levels = len(self.caches)
        levels = [
            LevelTraffic(name=c.config.name, enabled=c.enabled)
            for c in self.caches
        ]
        stage_bytes = [0.0] * num_levels
        dram_read = 0.0
        dram_write = 0.0
        dram_transactions = 0.0
        for raw, mult in zip(passes, multipliers):
            for i, lv in enumerate(raw["levels"]):
                levels[i].accesses += int(lv["accesses"] * mult)
                levels[i].hits += int(lv["hits"] * mult)
                levels[i].misses += int(lv["misses"] * mult)
                levels[i].writeback_lines += int(lv["writebacks"] * mult)
                levels[i].bytes_in += int(lv["bytes_in"] * mult)
                stage_bytes[i] += raw["stage_bytes"][i] * mult
            dram_read += raw["dram_read"] * mult
            dram_write += raw["dram_write"] * mult
            dram_transactions += raw["dram_transactions"] * mult

        dram_bandwidth = min(
            self.memory_port_bandwidth, self.dram.config.effective_bandwidth
        )
        stage_times: Dict[str, float] = {}
        for i, cache in enumerate(self.caches):
            if cache.enabled and stage_bytes[i] > 0:
                stage_times[cache.config.name] = stage_bytes[i] / self.specs[i].bandwidth
        dram_bytes = dram_read + dram_write
        if any("dram_time_s" in raw for raw in passes):
            # Simulated passes carry their own DRAM timing (row-buffer
            # mix efficiency) instead of the flat effective bandwidth.
            sim_time = sum(
                raw.get("dram_time_s", 0.0) * mult
                for raw, mult in zip(passes, multipliers)
            )
            if sim_time > 0:
                stage_times["dram"] = sim_time
        elif dram_bytes > 0:
            stage_times["dram"] = dram_bytes / dram_bandwidth
        streaming_time = max(stage_times.values()) if stage_times else 0.0
        # Streaming workloads pipeline DRAM accesses, so latency is a
        # one-time pipeline-fill cost per phase, not a per-transaction
        # charge (per-transaction costs live in the bandwidth terms).
        exposed_latency = self.dram.config.latency_s if dram_transactions > 0 else 0.0

        self.dram.record(int(dram_read), int(dram_write))
        return MemoryResult(
            transactions=stream.total_transactions,
            bytes_requested=stream.total_bytes,
            levels=levels,
            dram_read_bytes=int(dram_read),
            dram_write_bytes=int(dram_write),
            dram_transactions=int(dram_transactions),
            stage_times=stage_times,
            streaming_time_s=streaming_time,
            exposed_latency_s=exposed_latency,
        )


@dataclass(frozen=True)
class _SummaryWalk:
    """Per-row traffic of :meth:`CacheHierarchy._walk_summaries`.

    ``levels`` holds one dict of ``accesses``/``hits``/``misses``/
    ``writebacks``/``bytes_in`` arrays per cache level; every array is
    aligned with the walked batch.
    """

    levels: List[Dict[str, np.ndarray]]
    stage_bytes: List[np.ndarray]
    dram_read: np.ndarray
    dram_write: np.ndarray
    dram_transactions: np.ndarray

    def row(self, index: int) -> dict:
        """Row ``index`` as the raw per-pass record ``_combine`` takes."""
        return dict(
            levels=[
                dict(
                    accesses=int(level["accesses"][index]),
                    hits=int(level["hits"][index]),
                    misses=int(level["misses"][index]),
                    writebacks=int(level["writebacks"][index]),
                    bytes_in=int(level["bytes_in"][index]),
                )
                for level in self.levels
            ],
            stage_bytes=[float(stage[index]) for stage in self.stage_bytes],
            dram_read=float(self.dram_read[index]),
            dram_write=float(self.dram_write[index]),
            dram_transactions=int(self.dram_transactions[index]),
        )


@dataclass(frozen=True)
class BatchMemoryResult:
    """Per-stream memory outcomes of :meth:`CacheHierarchy.process_summaries`.

    Every field is an array aligned with the input batch; the fields
    mirror the :class:`MemoryResult` quantities the processor models
    consume for timing (per-level traffic detail is not materialized on
    the batch path — sweeps only need the time/bytes reduction).
    """

    transactions: np.ndarray
    bytes_requested: np.ndarray
    dram_read_bytes: np.ndarray
    dram_write_bytes: np.ndarray
    dram_transactions: np.ndarray
    streaming_time_s: np.ndarray
    exposed_latency_s: np.ndarray

    @property
    def dram_bytes(self) -> np.ndarray:
        """Total DRAM traffic in bytes, per stream."""
        return self.dram_read_bytes + self.dram_write_bytes

    @property
    def throughput(self) -> np.ndarray:
        """Requested bytes over streaming time (bytes/s), per stream."""
        return np.where(
            self.streaming_time_s > 0,
            self.bytes_requested / np.where(self.streaming_time_s > 0,
                                            self.streaming_time_s, 1.0),
            0.0,
        )


@dataclass(frozen=True)
class FlushResult:
    """Outcome of a software cache flush."""

    time_s: float
    writeback_bytes: int


def merge_memory_results(results: Sequence[MemoryResult]) -> MemoryResult:
    """Combine the results of sequentially-served streams.

    Tasks may present several access streams (e.g. a hot working set
    plus a streaming pass); the hierarchy serves them back to back, so
    traffic adds and streaming times add.
    """
    if not results:
        raise SimulationError("cannot merge zero memory results")
    if len(results) == 1:
        return results[0]
    first = results[0]
    levels = [
        LevelTraffic(name=lv.name, enabled=lv.enabled) for lv in first.levels
    ]
    stage_times: Dict[str, float] = {}
    transactions = 0
    bytes_requested = 0
    dram_read = 0
    dram_write = 0
    dram_transactions = 0
    streaming = 0.0
    latency = 0.0
    for result in results:
        if len(result.levels) != len(levels):
            raise SimulationError("cannot merge results from different hierarchies")
        for target, lv in zip(levels, result.levels):
            target.accesses += lv.accesses
            target.hits += lv.hits
            target.misses += lv.misses
            target.writeback_lines += lv.writeback_lines
            target.bytes_in += lv.bytes_in
        for key, value in result.stage_times.items():
            stage_times[key] = stage_times.get(key, 0.0) + value
        transactions += result.transactions
        bytes_requested += result.bytes_requested
        dram_read += result.dram_read_bytes
        dram_write += result.dram_write_bytes
        dram_transactions += result.dram_transactions
        streaming += result.streaming_time_s
        latency = max(latency, result.exposed_latency_s)
    return MemoryResult(
        transactions=transactions,
        bytes_requested=bytes_requested,
        levels=levels,
        dram_read_bytes=dram_read,
        dram_write_bytes=dram_write,
        dram_transactions=dram_transactions,
        stage_times=stage_times,
        streaming_time_s=streaming,
        exposed_latency_s=latency,
    )
