"""Batch engine for MB2's fraction sweep.

The per-point MB2 sweep builds one materialized
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
back to the per-point sweep.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.soc.address import DEFAULT_ALIGNMENT
from repro.soc.analytic import SummaryBatch
from repro.soc.soc import SoC
from repro.soc.stream import PatternKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.microbench.second import SecondMicroBenchmark
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
    bench: "SecondMicroBenchmark", soc: SoC
) -> Tuple[List["SweepPoint"], List["SweepPoint"]]:
    """MB2's GPU and CPU sweeps of ``bench`` on ``soc`` via the batch engine."""
    args = (bench.fractions, bench.array_bytes, bench.sweep_repeats)
    return mb2_gpu_points(soc, *args), mb2_cpu_points(soc, *args)
