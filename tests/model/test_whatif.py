"""What-if sensitivity sweeps."""

import pytest

from repro.apps.orbslam import OrbPipeline
from repro.errors import ModelError
from repro.model.whatif import (
    DEFAULT_FACTORS,
    scale_zc_path,
    zc_bandwidth_sweep,
)
from repro.soc.board import get_board


class TestScaleZcPath:
    def test_scales_both_paths(self):
        board = get_board("tx2")
        scaled = scale_zc_path(board, 4.0)
        assert scaled.zero_copy.gpu_zc_bandwidth == \
            pytest.approx(4 * board.zero_copy.gpu_zc_bandwidth)
        assert scaled.zero_copy.cpu_zc_bandwidth == \
            pytest.approx(4 * board.zero_copy.cpu_zc_bandwidth)
        assert scaled.zero_copy.cpu_uncached_latency_s == \
            pytest.approx(board.zero_copy.cpu_uncached_latency_s / 4)

    def test_original_untouched(self):
        board = get_board("tx2")
        scale_zc_path(board, 2.0)
        assert get_board("tx2").zero_copy.gpu_zc_bandwidth == \
            board.zero_copy.gpu_zc_bandwidth

    def test_name_annotated(self):
        assert scale_zc_path(get_board("tx2"), 2.0).name == "tx2-zc2x"

    def test_invalid_factor(self):
        with pytest.raises(ModelError):
            scale_zc_path(get_board("tx2"), 0.0)


class TestSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        workload = OrbPipeline().workload(iterations=50, board_name="tx2")
        return zc_bandwidth_sweep(workload, get_board("tx2"),
                                  factors=(1.0, 8.0, 32.0))

    def test_zc_improves_monotonically(self, sweep):
        times = [p.zc_time_s for p in sweep.points]
        assert times == sorted(times, reverse=True)

    def test_sc_baseline_constant(self, sweep):
        baselines = {p.sc_time_s for p in sweep.points}
        assert len(baselines) == 1

    def test_crossover_found_for_orb_on_tx2(self, sweep):
        """The cache-dependent ORB app needs a much faster ZC path —
        a crossover exists above 1x (which is the paper's point: the
        TX2's path is far too slow, the Xavier's is adequate)."""
        assert sweep.points[0].winner == "SC"
        assert sweep.crossover_factor is not None
        assert sweep.crossover_factor > 1.0

    def test_factors_sorted_and_deduped(self):
        workload = OrbPipeline().workload(iterations=10, board_name="tx2")
        result = zc_bandwidth_sweep(workload, get_board("tx2"),
                                    factors=(4.0, 1.0, 4.0))
        assert [p.factor for p in result.points] == [1.0, 4.0]

    def test_empty_factors_rejected(self):
        workload = OrbPipeline().workload(iterations=10)
        with pytest.raises(ModelError):
            zc_bandwidth_sweep(workload, get_board("tx2"), factors=())

    def test_no_crossover_below_current_path(self):
        workload = OrbPipeline().workload(iterations=10, board_name="tx2")
        result = zc_bandwidth_sweep(workload, get_board("tx2"),
                                    factors=(0.25, 0.5))
        assert len(result.points) == 2
        assert result.crossover_factor is None


def _pinned_workload():
    """The MB3 shape: all-shared and cache-independent."""
    from repro.microbench.third import ThirdMicroBenchmark
    from repro.soc.soc import SoC

    board = get_board("tx2")
    return ThirdMicroBenchmark(num_elements=2 ** 20).build_workload(
        SoC(board)
    ), board


class TestPinnedWorkloadSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return zc_bandwidth_sweep(*_pinned_workload())

    def test_crossover_inside_default_factors(self, sweep):
        assert [p.factor for p in sweep.points] == list(DEFAULT_FACTORS)
        assert sweep.crossover_factor is not None
        assert not sweep.zc_always_wins

    def test_zc_improves_monotonically(self, sweep):
        times = [p.zc_time_s for p in sweep.points]
        assert times == sorted(times, reverse=True)

    def test_fault_free_injector_leaves_sweep_unchanged(self, sweep):
        from repro.robustness.faults import FaultPlan
        from repro.robustness.inject import inject_faults

        workload, board = _pinned_workload()
        with inject_faults(FaultPlan(seed=0)):
            injected = zc_bandwidth_sweep(workload, board)
        assert [p.zc_time_s for p in injected.points] == \
            [p.zc_time_s for p in sweep.points]
