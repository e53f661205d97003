"""Batch sweep engine vs the scalar reference simulation.

The vectorized engine is only admissible because it is *equivalent*:
on the analytic path its closed-form coalescing must reproduce the
scalar per-point results exactly, and the full micro-benchmark (which
runs the executors in ``auto`` mode) must land on the same thresholds.
"""

import numpy as np
import pytest

from repro.microbench.second import SecondMicroBenchmark
from repro.perf.batch import (
    BatchUnsupported,
    coalesced_linear_read_transactions,
    coalesced_rw_pair_transactions,
    mb1_gpu_size_sweep,
    mb2_cpu_points,
    mb2_gpu_points,
)
from repro.robustness.faults import FaultPlan
from repro.robustness.inject import inject_faults
from repro.soc.address import RegionKind
from repro.soc.board import get_board
from repro.soc.soc import SoC
from repro.soc.stream import AccessStream

BOARDS = ("nano", "tx2", "xavier")


def _pinned_buffer(soc, size_bytes):
    """A shared (pinned) buffer, as the ZC executors allocate it."""
    region = soc.address_space.add_region(
        "pinned", 2 * size_bytes, RegionKind.PINNED
    )
    return region.allocate("array", size_bytes, element_size=4)


def _scalar_mb2_gpu(board, fraction, array_bytes, sweep_repeats):
    """One scalar GPU sweep point on the analytic path (SC, ZC)."""
    elements = array_bytes // 4
    flops = 2.0 * elements * sweep_repeats
    times = []
    for arm in ("sc", "zc"):
        soc = SoC(board)
        stream = AccessStream.fraction(
            _pinned_buffer(soc, array_bytes), fraction, repeats=sweep_repeats
        )
        zc_cfg = board.zero_copy
        if arm == "zc":
            result = soc.gpu.run(
                "zc", flops, stream, mode="analytic",
                uncached_bandwidth=zc_cfg.gpu_zc_bandwidth,
                extra_latency_s=(
                    zc_cfg.snoop_latency_s if zc_cfg.io_coherent else 0.0
                ),
            )
        else:
            result = soc.gpu.run("sc", flops, stream, mode="analytic")
        times.append(result.time_s)
    return tuple(times)


def _scalar_mb2_cpu(board, fraction, array_bytes, sweep_repeats):
    """One scalar CPU sweep point on the analytic path (SC, ZC)."""
    elements = array_bytes // 4
    cycles = 1.0 * elements
    times = []
    for arm in ("sc", "zc"):
        soc = SoC(board)
        stream = AccessStream.fraction(
            _pinned_buffer(soc, array_bytes), fraction, repeats=sweep_repeats
        )
        zc_cfg = board.zero_copy
        if arm == "zc" and zc_cfg.cpu_llc_disabled:
            result = soc.cpu.run(
                "zc", cycles, stream, mode="analytic",
                uncached_bandwidth=zc_cfg.cpu_zc_bandwidth,
                uncached_latency_s=zc_cfg.cpu_uncached_latency_s,
            )
        else:
            result = soc.cpu.run(arm, cycles, stream, mode="analytic")
        times.append(result.time_s)
    return tuple(times)


@pytest.mark.parametrize("board_name", BOARDS)
class TestAnalyticExactness:
    """Closed-form batch rows == scalar analytic runs, bit for bit."""

    ARRAY_BYTES = 4 * 1024 * 1024
    REPEATS = 8
    FRACTIONS = (1 / 16000, 1 / 250, 1 / 16, 1 / 2)

    def test_gpu_points(self, board_name):
        board = get_board(board_name)
        points = mb2_gpu_points(
            SoC(board), self.FRACTIONS, self.ARRAY_BYTES, self.REPEATS
        )
        for point in points:
            sc_time, zc_time = _scalar_mb2_gpu(
                board, point.fraction, self.ARRAY_BYTES, self.REPEATS
            )
            assert point.sc_time_s == pytest.approx(sc_time, rel=1e-12)
            assert point.zc_time_s == pytest.approx(zc_time, rel=1e-12)

    def test_cpu_points(self, board_name):
        board = get_board(board_name)
        points = mb2_cpu_points(
            SoC(board), self.FRACTIONS, self.ARRAY_BYTES, self.REPEATS
        )
        for point in points:
            sc_time, zc_time = _scalar_mb2_cpu(
                board, point.fraction, self.ARRAY_BYTES, self.REPEATS
            )
            assert point.sc_time_s == pytest.approx(sc_time, rel=1e-12)
            assert point.zc_time_s == pytest.approx(zc_time, rel=1e-12)

    def test_mb1_size_sweep(self, board_name):
        board = get_board(board_name)
        fractions = (0.25, 0.5, 1.0)
        repeats = 16
        batch = mb1_gpu_size_sweep(SoC(board), fractions, repeats)
        assert len(batch) == len(fractions)
        llc_bytes = board.gpu.llc.size_bytes
        for i, fraction in enumerate(fractions):
            count = max(1024, int(llc_bytes * fraction) // 4)
            soc = SoC(board)
            buffer = _pinned_buffer(soc, count * 4)
            stream = AccessStream.linear(buffer, repeats=repeats)
            scalar = soc.gpu.run(
                "mb1", float(count * repeats), stream, mode="analytic"
            )
            assert batch.time_s[i] == pytest.approx(scalar.time_s, rel=1e-12)


@pytest.mark.parametrize("board_name", BOARDS)
class TestFullSweepEquivalence:
    """SecondMicroBenchmark(vectorized) == the scalar per-point sweep."""

    def _run_both(self, board_name):
        board = get_board(board_name)
        fast = SecondMicroBenchmark(vectorized=True).run(SoC(board))
        slow = SecondMicroBenchmark(vectorized=False).run(SoC(board))
        return fast, slow

    def test_thresholds_identical(self, board_name):
        fast, slow = self._run_both(board_name)
        for side in ("gpu_analysis", "cpu_analysis"):
            a, b = getattr(fast, side), getattr(slow, side)
            assert a.threshold_pct == b.threshold_pct
            assert a.threshold_fraction == b.threshold_fraction
            assert a.zone2_pct == b.zone2_pct
            assert a.zone2_fraction == b.zone2_fraction

    def test_sweep_points_equivalent(self, board_name):
        # The executors run the hierarchy in ``auto`` mode (warm
        # caches); the batch engine uses the analytic closed form.  On
        # the Xavier they differ by < 1e-4 relative, elsewhere exactly.
        fast, slow = self._run_both(board_name)
        for side in ("gpu_points", "cpu_points"):
            for a, b in zip(getattr(fast, side), getattr(slow, side)):
                assert a.fraction == b.fraction
                assert a.sc_time_s == pytest.approx(b.sc_time_s, rel=1e-3)
                assert a.zc_time_s == pytest.approx(b.zc_time_s, rel=1e-3)
                assert a.sc_throughput == pytest.approx(
                    b.sc_throughput, rel=1e-3
                )
                assert a.zc_throughput == pytest.approx(
                    b.zc_throughput, rel=1e-3
                )


class TestClosedFormGuards:
    def test_element_size_must_divide_line(self):
        with pytest.raises(BatchUnsupported) as excinfo:
            coalesced_rw_pair_transactions(
                np.array([64]), element_size=3, line_size=64, warp_size=32
            )
        assert excinfo.value.code == "BATCH_UNSUPPORTED"

    def test_alignment_must_cover_line(self):
        # The default 128-byte alignment is not a multiple of 96.
        with pytest.raises(BatchUnsupported):
            coalesced_linear_read_transactions(
                np.array([64]), element_size=4, line_size=96, warp_size=32
            )

    def test_closed_form_matches_direct_count(self):
        # 33 elements at 4 bytes: 16-element warps cover 64-byte lines
        # exactly, the 1-element remainder touches one more line.
        per_pass = coalesced_rw_pair_transactions(
            np.array([33]), element_size=4, line_size=64, warp_size=32
        )
        assert per_pass.tolist() == [2 * (2 + 1)]

    def test_empty_sweep_rejected(self):
        with pytest.raises(BatchUnsupported):
            mb2_gpu_points(SoC(get_board("tx2")), (0.5,), 0, 8)


class TestInjectionFallback:
    def test_vectorized_sweep_disabled_under_injection(self, tx2_soc):
        bench = SecondMicroBenchmark(vectorized=True)
        with inject_faults(FaultPlan(seed=0)):
            assert bench._sweep_vectorized(tx2_soc) == (None, None)

    def test_run_still_works_under_injection(self, tx2_board):
        # An empty plan patches the seams but perturbs nothing, so the
        # scalar fallback must reproduce the clean-run thresholds.
        bench = SecondMicroBenchmark(vectorized=True)
        clean = bench.run(SoC(tx2_board))
        with inject_faults(FaultPlan(seed=0)):
            injected = bench.run(SoC(tx2_board))
        assert injected.gpu_analysis.threshold_pct == \
            clean.gpu_analysis.threshold_pct
        assert injected.cpu_analysis.threshold_pct == \
            clean.cpu_analysis.threshold_pct


class TestMb3BalanceResults:
    def test_matches_scalar_per_balance_runs(self):
        from repro.microbench.third import ThirdMicroBenchmark
        from repro.perf.batch import mb3_balance_results

        board = get_board("xavier")
        balances = (0.5, 1.0, 2.0)
        batched = mb3_balance_results(
            ThirdMicroBenchmark(vectorized=True), SoC(board), balances
        )
        for balance, result in zip(balances, batched):
            scalar = ThirdMicroBenchmark(cpu_balance=balance).run(SoC(board))
            for model in ("SC", "UM", "ZC"):
                assert result.total_times[model] == pytest.approx(
                    scalar.total_times[model], rel=1e-12
                )
