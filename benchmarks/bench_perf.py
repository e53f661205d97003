"""Performance layer — vectorized sweep and cache speedups.

Not a paper artefact: this benchmark records the wall-clock wins of
the ``repro.perf`` layer next to the reproduction tables.
"""

import time

import pytest

from benchmarks.conftest import run_once
from repro.analysis.tables import Table
from repro.microbench.second import SecondMicroBenchmark
from repro.microbench.suite import MicrobenchmarkSuite
from repro.soc.board import get_board
from repro.soc.soc import SoC


def _time(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@pytest.mark.parametrize("board_name", ["tx2", "xavier"])
def test_vectorized_sweep_speedup(benchmark, archive, board_name):
    """Scalar per-point MB2 sweep vs the batch engine (>= 3x required)."""
    board = get_board(board_name)
    fast = SecondMicroBenchmark(vectorized=True)
    slow = SecondMicroBenchmark(vectorized=False)
    fast.run(SoC(board))  # warm the import path before timing

    t_fast = run_once(benchmark, lambda: _time(lambda: fast.run(SoC(board))))
    t_slow = _time(lambda: slow.run(SoC(board)))

    table = Table(
        f"MB2 sweep wall-clock [{board_name}]",
        ["engine", "time (ms)", "speedup"],
    )
    table.add_row("scalar per-point", f"{t_slow * 1e3:.1f}", "1.0x")
    table.add_row("vectorized batch", f"{t_fast * 1e3:.2f}",
                  f"{t_slow / t_fast:.0f}x")
    archive(f"perf_sweep_{board_name}.txt", table.render())
    assert t_slow / t_fast >= 3.0


def test_characterization_cache_speedup(benchmark, archive, tmp_path):
    """Cold suite run vs a persistent-cache hit (>= 10x required)."""
    board = get_board("xavier")
    cache_dir = str(tmp_path)
    t_cold = _time(
        lambda: MicrobenchmarkSuite(cache_dir=cache_dir).characterize(board)
    )
    t_warm = run_once(benchmark, lambda: _time(
        lambda: MicrobenchmarkSuite(cache_dir=cache_dir).characterize(board)
    ))

    table = Table(
        "Characterization wall-clock [xavier]",
        ["path", "time (ms)", "speedup"],
    )
    table.add_row("cold (full suite)", f"{t_cold * 1e3:.1f}", "1.0x")
    table.add_row("warm (disk cache)", f"{t_warm * 1e3:.2f}",
                  f"{t_cold / t_warm:.0f}x")
    archive("perf_cache.txt", table.render())
    assert t_cold / t_warm >= 10.0
