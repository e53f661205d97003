"""Wall-clock smoke checks for the performance layer.

Marked ``perf`` so they can be selected (``-m perf``) or skipped
(``-m "not perf"``) independently: they assert *relative* speedups
with generous margins, not absolute times, so they stay stable on slow
CI hosts.
"""

import time

import numpy as np
import pytest

from repro.microbench.second import SecondMicroBenchmark
from repro.microbench.suite import MicrobenchmarkSuite
from repro.soc.board import get_board
from repro.soc.soc import SoC

pytestmark = pytest.mark.perf


def _best_of(fn, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _per_point_sweeps(bench, board):
    """Both MB2 sweeps point by point (the non-batch path of ``run``)."""
    bench._sweep_gpu(SoC(board))
    bench._sweep_cpu(SoC(board))


def test_vectorized_sweep_at_least_3x_faster():
    board = get_board("tx2")
    bench = SecondMicroBenchmark()
    bench.run(SoC(board))  # warm imports/JIT-free numpy paths
    t_fast = _best_of(lambda: bench.run(SoC(board)))
    t_slow = _best_of(lambda: _per_point_sweeps(bench, board), rounds=1)
    assert t_slow / t_fast >= 3.0, (
        f"vectorized sweep only {t_slow / t_fast:.1f}x faster "
        f"({t_slow * 1e3:.1f}ms -> {t_fast * 1e3:.1f}ms)"
    )


def test_persistent_cache_at_least_10x_faster(tmp_path):
    board = get_board("xavier")
    t_cold_start = time.perf_counter()
    MicrobenchmarkSuite(cache_dir=str(tmp_path)).characterize(board)
    t_cold = time.perf_counter() - t_cold_start

    def warm():
        MicrobenchmarkSuite(cache_dir=str(tmp_path)).characterize(board)

    warm()
    t_warm = _best_of(warm)
    assert t_cold / t_warm >= 10.0, (
        f"cached characterization only {t_cold / t_warm:.1f}x faster "
        f"({t_cold * 1e3:.1f}ms -> {t_warm * 1e3:.1f}ms)"
    )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _timing_pair(slow, fast, slow_repeats=2, fast_repeats=5):
    """Best-of (reference, fast) seconds, fast path warmed first.

    The runs interleave, the order alternating round by round, so a
    slow spell of a shared host hits both sides instead of whichever
    block ran during it; each side keeps its best run.
    """
    fast()
    slow_times, fast_times = [], []
    for round_ in range(max(slow_repeats, fast_repeats)):
        sides = [(slow, slow_times, slow_repeats),
                 (fast, fast_times, fast_repeats)]
        if round_ % 2:
            sides.reverse()
        for fn, times, repeats in sides:
            if len(times) < repeats:
                times.append(_timed(fn))
    return min(slow_times), min(fast_times)


def _probe_tiling():
    """256-phase tiled overlap timing."""
    from repro.comm.tiling import TiledZeroCopyPattern, TilingPlan
    from repro.soc.events import OverlapJob
    from repro.soc.interconnect import InterconnectConfig
    from tests.comm.reference import tiled_execution_per_phase

    plan = TilingPlan(
        buffer_name="bench",
        buffer_bytes=1 << 20,
        element_size=4,
        tile_bytes=64,
        num_tiles=(1 << 20) // 64,
        num_phases=256,
    )
    cpu = OverlapJob(name="cpu", compute_time_s=1.0e-3,
                     memory_bytes=1.0e6, solo_bandwidth=20.0e9)
    gpu = OverlapJob(name="gpu", compute_time_s=2.0e-3,
                     memory_bytes=4.0e6, solo_bandwidth=40.0e9)
    interconnect = InterconnectConfig(total_bandwidth=50.0e9)
    fast = TiledZeroCopyPattern(plan)
    return _timing_pair(
        lambda: tiled_execution_per_phase(plan, cpu, gpu, interconnect),
        lambda: fast.overlapped_execution(cpu, gpu, interconnect),
    )


def _probe_matching():
    """600x600 ORB descriptor matching."""
    from repro.apps.orbslam.matching import match_descriptors
    from tests.apps.reference import match_descriptors_per_query

    rng = np.random.default_rng(7)
    a = rng.integers(0, 256, size=(600, 32), dtype=np.uint8)
    b = rng.integers(0, 256, size=(600, 32), dtype=np.uint8)
    return _timing_pair(
        lambda: match_descriptors_per_query(a, b),
        lambda: match_descriptors(a, b),
    )


def _probe_centroids():
    """48x48 SHWFS windowed-CoG grid."""
    from repro.apps.shwfs.centroid import (
        CentroidMethod,
        SubapertureGrid,
        _extract_centroids_scalar,
        extract_centroids,
    )

    frame = np.random.default_rng(11).random((48 * 8, 48 * 8))
    grid = SubapertureGrid(rows=48, cols=48, size_px=8)
    method = CentroidMethod.WINDOWED_COG
    return _timing_pair(
        lambda: _extract_centroids_scalar(frame, grid, method, 0.15, 4),
        lambda: extract_centroids(frame, grid, method),
    )


#: App-layer fast path -> probe returning (reference s, fast s).
APP_PATHS = {
    "tiling": _probe_tiling,
    "matching": _probe_matching,
    "centroids": _probe_centroids,
}


def test_app_fast_paths_clear_generous_floors():
    """The vectorized app paths, with wide margins for slow CI hosts.

    These floors only catch a fast path silently degrading to its
    scalar fallback.
    """
    floors = {"tiling": 10.0, "matching": 5.0, "centroids": 5.0}
    for name, floor in floors.items():
        t_slow, t_fast = APP_PATHS[name]()
        assert t_slow / t_fast >= floor, (
            f"{name} path only {t_slow / t_fast:.1f}x faster "
            f"({t_slow * 1e3:.1f}ms -> {t_fast * 1e3:.2f}ms)"
        )


def test_at_least_three_paths_reach_10x():
    """The acceptance bar: >= 10x on at least 3 of the app paths."""
    speedups = {}
    for name, probe in APP_PATHS.items():
        t_slow, t_fast = probe()
        speedups[name] = t_slow / t_fast
    assert sum(s >= 10.0 for s in speedups.values()) >= 3, speedups
