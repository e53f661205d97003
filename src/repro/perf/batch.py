"""Vectorized sweep engine for the micro-benchmark hot paths.

The scalar micro-benchmark sweeps build one materialized
:class:`~repro.soc.stream.AccessStream` per point, coalesce it
address by address and walk it through the hierarchy.  For the paper's
fraction sweep every point has the same *shape* — a read-write-pair
pass over a prefix of one array — so the coalesced transaction counts
reduce to closed form and a whole sweep becomes one
:class:`~repro.soc.analytic.SummaryBatch` evaluated by
:meth:`~repro.soc.gpu.GPUModel.run_batch` /
:meth:`~repro.soc.cpu.CPUModel.run_batch` in a handful of array ops.

The closed forms only hold for the geometries the micro-benchmarks
actually use (element size divides the line size, warp footprints
align with lines, buffers at the default 128-byte alignment).  Any
other geometry raises :class:`BatchUnsupported` and the caller falls
back to the exact scalar sweep.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.soc.address import DEFAULT_ALIGNMENT
from repro.soc.analytic import StreamSummary, SummaryBatch, supports
from repro.soc.gpu import coalesce_stream
from repro.soc.cpu import _stream_is_pinned as _cpu_stream_is_pinned
from repro.soc.soc import SoC
from repro.soc.stream import AccessStream, PatternKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.microbench.second import SecondMicroBenchmark
    from repro.microbench.third import ThirdBenchResult, ThirdMicroBenchmark
    from repro.model.thresholds import SweepPoint


class BatchUnsupported(SimulationError):
    """The sweep's geometry has no closed-form coalesced shape."""

    default_code = "BATCH_UNSUPPORTED"


def _ceil_div(n, d):
    """Ceiling division for ints and integer arrays."""
    return -(-n // d)


def _require(condition: bool, why: str) -> None:
    if not condition:
        raise BatchUnsupported(
            f"vectorized sweep unavailable: {why}", details={"reason": why}
        )


def _require_analytic(soc: SoC) -> None:
    """Batch sweeps evaluate the closed form directly, so they are
    analytic-only fast paths: under any other timing backend they
    declare themselves unavailable and the caller falls back to the
    scalar (per-point) path, which honours the backend."""
    _require(
        soc.backend.is_analytic,
        f"batch sweeps are analytic-only (backend is {soc.backend.name!r})",
    )


def coalesced_rw_pair_transactions(
    counts: np.ndarray, element_size: int, line_size: int, warp_size: int
) -> np.ndarray:
    """Coalesced transactions of a read-write-pair pass over ``counts``
    consecutive elements (one ``ld.global`` + one ``st.global`` each).

    A warp issues ``warp_size`` accesses = ``warp_size / 2`` elements;
    when the warp's element footprint tiles cache lines exactly, each
    line it touches costs one read plus one write transaction, which is
    the closed form of :func:`~repro.soc.gpu.coalesce_stream` on the
    interleaved pair stream.
    """
    _require(element_size > 0 and line_size % element_size == 0,
             "element size must divide the cache line size")
    _require(DEFAULT_ALIGNMENT % line_size == 0,
             "buffer alignment must be a multiple of the line size")
    elements_per_warp = warp_size // 2
    warp_bytes = elements_per_warp * element_size
    _require(warp_bytes % line_size == 0 or line_size % warp_bytes == 0,
             "warp footprint must tile the cache line size")
    counts = np.asarray(counts, dtype=np.int64)
    full_warps = counts // elements_per_warp
    remainder = counts % elements_per_warp
    lines_full = _ceil_div(full_warps * warp_bytes, line_size)
    lines_rem = _ceil_div(remainder * element_size, line_size)
    return 2 * (lines_full + lines_rem)


def coalesced_linear_read_transactions(
    counts: np.ndarray, element_size: int, line_size: int, warp_size: int
) -> np.ndarray:
    """Coalesced transactions of a read-only linear pass over ``counts``
    consecutive elements (one ``ld.global`` each)."""
    _require(element_size > 0 and line_size % element_size == 0,
             "element size must divide the cache line size")
    _require(DEFAULT_ALIGNMENT % line_size == 0,
             "buffer alignment must be a multiple of the line size")
    warp_bytes = warp_size * element_size
    _require(warp_bytes % line_size == 0 or line_size % warp_bytes == 0,
             "warp footprint must tile the cache line size")
    counts = np.asarray(counts, dtype=np.int64)
    full_warps = counts // warp_size
    remainder = counts % warp_size
    lines_full = _ceil_div(full_warps * warp_bytes, line_size)
    lines_rem = _ceil_div(remainder * element_size, line_size)
    return lines_full + lines_rem


# ----------------------------------------------------------------------
# MB2: the fraction sweep
# ----------------------------------------------------------------------


def mb2_gpu_points(
    soc: SoC,
    fractions: Sequence[float],
    array_bytes: int,
    sweep_repeats: int,
) -> List["SweepPoint"]:
    """The MB2 GPU sweep (SC and ZC arms) as two batch evaluations.

    Matches :meth:`SecondMicroBenchmark._sweep_gpu` on the analytic
    path: constant compute (one fma per array element per sweep), the
    accessed fraction varying per row.
    """
    from repro.model.thresholds import SweepPoint

    _require_analytic(soc)
    element_size = 4
    elements = array_bytes // element_size
    _require(elements > 0, "array must hold at least one element")
    counts = np.maximum(
        1, (elements * np.asarray(fractions, dtype=np.float64)).astype(np.int64)
    )
    line = soc.gpu.config.l1.line_size
    per_pass = coalesced_rw_pair_transactions(
        counts, element_size, line, soc.gpu.config.warp_size
    )
    footprint = _ceil_div(counts * element_size, line) * line
    batch = SummaryBatch.build(
        pattern=PatternKind.FRACTION,
        per_pass=per_pass,
        repeats=sweep_repeats,
        footprint_bytes=footprint,
        write_fraction=0.5,
        transaction_size=line,
    )
    flops = np.full(
        len(counts), 2.0 * elements * sweep_repeats, dtype=np.float64
    )
    sc = soc.gpu.run_batch(flops, batch)
    zc_cfg = soc.board.zero_copy
    zc = soc.gpu.run_batch(
        flops,
        batch,
        uncached_bandwidth=zc_cfg.gpu_zc_bandwidth,
        extra_latency_s=(zc_cfg.snoop_latency_s if zc_cfg.io_coherent else 0.0),
    )
    return _assemble_points(SweepPoint, fractions, sc, zc)


def mb2_cpu_points(
    soc: SoC,
    fractions: Sequence[float],
    array_bytes: int,
    sweep_repeats: int,
) -> List["SweepPoint"]:
    """The MB2 CPU sweep (SC and ZC arms) as two batch evaluations.

    CPU accesses are element-sized (no warp coalescing): a fraction
    pass is ``2 * count`` transactions of ``element_size`` bytes.  The
    ZC arm goes uncached only on boards that disable the CPU caches
    under zero-copy; I/O-coherent boards keep the cached path.
    """
    from repro.model.thresholds import SweepPoint

    _require_analytic(soc)
    element_size = 4
    elements = array_bytes // element_size
    _require(elements > 0, "array must hold at least one element")
    counts = np.maximum(
        1, (elements * np.asarray(fractions, dtype=np.float64)).astype(np.int64)
    )
    batch = SummaryBatch.build(
        pattern=PatternKind.FRACTION,
        per_pass=2 * counts,
        repeats=sweep_repeats,
        footprint_bytes=counts * element_size,
        write_fraction=0.5,
        transaction_size=element_size,
    )
    cycles = np.full(len(counts), 1.0 * elements, dtype=np.float64)
    sc = soc.cpu.run_batch(cycles, batch)
    zc_cfg = soc.board.zero_copy
    if zc_cfg.cpu_llc_disabled:
        zc = soc.cpu.run_batch(
            cycles,
            batch,
            uncached_bandwidth=zc_cfg.cpu_zc_bandwidth,
            uncached_latency_s=zc_cfg.cpu_uncached_latency_s,
        )
    else:
        zc = soc.cpu.run_batch(cycles, batch)
    return _assemble_points(SweepPoint, fractions, sc, zc)


def _assemble_points(point_cls, fractions, sc, zc):
    """Zip two batch arms into :class:`SweepPoint` rows."""
    points = []
    sc_tp = np.where(sc.time_s > 0, sc.memory.bytes_requested / sc.time_s, 0.0)
    zc_tp = np.where(zc.time_s > 0, zc.memory.bytes_requested / zc.time_s, 0.0)
    for i, fraction in enumerate(fractions):
        points.append(
            point_cls(
                fraction=fraction,
                sc_throughput=float(sc_tp[i]),
                zc_throughput=float(zc_tp[i]),
                sc_time_s=float(sc.time_s[i]),
                zc_time_s=float(zc.time_s[i]),
            )
        )
    return points


def vectorized_second_sweep(
    bench: "SecondMicroBenchmark",
    soc: SoC,
    sides: Tuple[str, ...] = ("gpu", "cpu"),
) -> Tuple[List["SweepPoint"], List["SweepPoint"]]:
    """MB2 sweeps of ``bench`` on ``soc`` via the batch engine.

    ``sides`` restricts the work: the surrogate's k-point probe only
    needs the GPU sweep, and skipping the CPU side halves its cost.  A
    skipped side returns an empty point list.
    """
    gpu_points: List["SweepPoint"] = []
    cpu_points: List["SweepPoint"] = []
    if "gpu" in sides:
        gpu_points = mb2_gpu_points(
            soc, bench.fractions, bench.array_bytes, bench.sweep_repeats
        )
    if "cpu" in sides:
        cpu_points = mb2_cpu_points(
            soc, bench.fractions, bench.array_bytes, bench.sweep_repeats
        )
    return gpu_points, cpu_points


# ----------------------------------------------------------------------
# MB1: the matrix-size sweep
# ----------------------------------------------------------------------


def mb1_gpu_size_sweep(
    soc: SoC,
    llc_fractions: Sequence[float],
    sweep_repeats: int = 16,
):
    """SC kernel times of MB1's 2D-reduction at several matrix sizes.

    One batch evaluation over the LLC fractions (MB1 proper uses 0.5);
    returns a :class:`~repro.soc.phase.BatchPhaseResult` whose rows
    align with ``llc_fractions``.
    """
    _require_analytic(soc)
    element_size = 4
    llc_bytes = soc.board.gpu.llc.size_bytes
    counts = np.array(
        [
            max(1024, int(llc_bytes * fraction) // element_size)
            for fraction in llc_fractions
        ],
        dtype=np.int64,
    )
    line = soc.gpu.config.l1.line_size
    per_pass = coalesced_linear_read_transactions(
        counts, element_size, line, soc.gpu.config.warp_size
    )
    footprint = _ceil_div(counts * element_size, line) * line
    batch = SummaryBatch.build(
        pattern=PatternKind.LINEAR,
        per_pass=per_pass,
        repeats=sweep_repeats,
        footprint_bytes=footprint,
        write_fraction=0.0,
        transaction_size=line,
    )
    flops = counts.astype(np.float64) * sweep_repeats
    return soc.gpu.run_batch(flops, batch)


# ----------------------------------------------------------------------
# MB3: the balanced-workload sweep
# ----------------------------------------------------------------------
#
# Across a balance sweep only the CPU task's compute demand changes;
# the memory streams, the GPU kernel, the copies/flushes/migrations and
# the board are identical at every point.  So the three models are
# executed once at a reference balance, the CPU phase is re-evaluated
# for all balances in one ``run_batch`` call, and each model's steady
# iteration is recomposed around the new CPU time (the ZC overlap is
# re-simulated per balance — it is a cheap event simulation, the costly
# part is the hierarchy walk that run_batch amortizes).


def _identical_summary_batch(stream: AccessStream, n: int) -> SummaryBatch:
    """``n`` copies of one stream's analytic summary as a batch."""
    _require(stream.is_virtual, "the CPU stream must be virtual (analytic)")
    _require(supports(stream.pattern),
             f"no analytic estimator for pattern {stream.pattern.name}")
    summary = StreamSummary.from_stream(stream)
    return SummaryBatch.build(
        pattern=summary.pattern,
        per_pass=np.full(n, summary.per_pass, dtype=np.int64),
        repeats=summary.repeats,
        footprint_bytes=summary.footprint_bytes,
        write_fraction=summary.write_fraction,
        transaction_size=summary.transaction_size,
    )


def mb3_balance_results(
    bench: "ThirdMicroBenchmark", soc: SoC, balances: Sequence[float]
) -> List["ThirdBenchResult"]:
    """MB3 at every CPU balance via one batched CPU-phase evaluation.

    Equivalent to ``[ThirdMicroBenchmark(n, b).run(soc) for b in
    balances]`` — the recomposition is validated against the scalar
    reference at ``balances[0]`` and raises :class:`BatchUnsupported`
    on any divergence (the caller then falls back to the scalar sweep).
    """
    from repro.comm.base import get_model
    from repro.comm.tiling import TiledZeroCopyPattern, TilingPlan
    from repro.comm.zero_copy import ZeroCopyModel
    from repro.microbench.third import ThirdBenchResult
    from repro.soc.soc import ALL_MODELS

    _require_analytic(soc)
    balances = list(balances)
    _require(len(balances) > 0, "the balance sweep needs at least one point")

    def bench_at(balance: float):
        return type(bench)(bench.num_elements, balance)

    workload = bench_at(balances[0]).build_workload(soc)
    _require(workload.cpu_task is not None and workload.gpu_kernel is not None,
             "MB3 batching needs both a CPU task and a GPU kernel")
    # Everything except the CPU compute demand must be balance-invariant.
    other = bench_at(balances[-1]).build_workload(soc)
    _require(replace(workload, cpu_task=None) == replace(other, cpu_task=None),
             "the workload varies beyond the CPU task across balances")
    _require(replace(workload.cpu_task, ops=other.cpu_task.ops)
             == other.cpu_task,
             "the CPU task varies beyond its compute ops across balances")

    reports = {
        model: get_model(model).execute(workload, soc)
        for model in ALL_MODELS
    }

    zc_model = ZeroCopyModel()
    placed = zc_model.place(workload, soc)
    streams = workload.cpu_task.build_streams(
        placed.cpu_buffers, soc.board.cpu.l1.line_size
    )
    _require(len(streams) == 1, "MB3 batching handles one CPU stream")
    stream = streams[0]
    batch = _identical_summary_batch(stream, len(balances))
    cycles = np.array(
        [bench_at(b).build_workload(soc).cpu_task.compute_cycles()
         for b in balances],
        dtype=np.float64,
    )

    cached = soc.cpu.run_batch(cycles, batch)
    zc_cfg = soc.board.zero_copy
    if zc_cfg.cpu_llc_disabled and zc_cfg.cpu_zc_bandwidth > 0 \
            and _cpu_stream_is_pinned(stream):
        uncached = soc.cpu.run_batch(
            cycles,
            batch,
            uncached_bandwidth=zc_cfg.cpu_zc_bandwidth,
            uncached_latency_s=zc_cfg.cpu_uncached_latency_s,
        )
    else:
        uncached = cached
    cpu_times = {"SC": cached, "UM": cached, "ZC": uncached}

    # The batch rows must land exactly on the scalar phases measured at
    # the reference balance — otherwise the recomposition is unsound.
    for model in ALL_MODELS:
        _require(
            float(cpu_times[model].time_s[0]) == reports[model].cpu_time_s,
            f"batched CPU phase diverged from the {model} reference",
        )

    zc_report = reports["ZC"]
    plan: Optional[TilingPlan] = None
    if zc_report.steady_iteration.is_overlapped:
        shared = workload.shared_buffers
        plan_buffer = max(shared, key=lambda b: b.size_bytes) if shared \
            else max(workload.buffers, key=lambda b: b.size_bytes)
        plan = TilingPlan.for_buffer(plan_buffer, soc.board)
        cpu_bw, gpu_bw = zc_model._fabric_bandwidths(soc)
        gpu_job = ZeroCopyModel._job_from_phase(
            zc_report.gpu_phase, gpu_bw, overlap=True
        )

    results: List[ThirdBenchResult] = []
    data_bytes = workload.buffer("data").size_bytes
    for i in range(len(balances)):
        totals, kernels, cpus, copies = {}, {}, {}, {}
        for model in ALL_MODELS:
            report = reports[model]
            cpu_time = float(cpu_times[model].time_s[i])
            steady = replace(report.steady_iteration, cpu_time_s=cpu_time)
            if model == "ZC" and plan is not None:
                cpu_phase = replace(
                    report.cpu_phase,
                    compute_time_s=float(cpu_times[model].compute_time_s[i]),
                    memory_time_s=float(cpu_times[model].memory_time_s[i]),
                    time_s=cpu_time,
                )
                execution = TiledZeroCopyPattern(plan).overlapped_execution(
                    ZeroCopyModel._job_from_phase(
                        cpu_phase, cpu_bw, overlap=False
                    ),
                    gpu_job,
                    soc.board.interconnect,
                )
                steady = replace(
                    steady,
                    sync_overhead_s=execution.sync_overhead_s,
                    overlapped_time_s=execution.overlapped_time_s,
                )
            totals[model] = steady.total_s
            kernels[model] = steady.kernel_time_s
            cpus[model] = steady.cpu_time_s
            copies[model] = steady.copy_time_s + steady.migration_time_s
        results.append(
            ThirdBenchResult(
                board_name=soc.board.name,
                data_bytes=data_bytes,
                total_times=totals,
                kernel_times=kernels,
                cpu_times=cpus,
                copy_times=copies,
            )
        )

    # End-to-end self-check at the reference balance.
    for model in ALL_MODELS:
        _require(
            results[0].total_times[model]
            == reports[model].time_per_iteration_s,
            f"recomposed {model} iteration diverged from the reference",
        )
    return results
