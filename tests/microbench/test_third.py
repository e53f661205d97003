"""Micro-benchmark 3: overlap ceiling (Fig 7)."""

import pytest

from repro.microbench.third import ThirdMicroBenchmark


@pytest.fixture(scope="module")
def results():
    from repro.soc.board import jetson_tx2, jetson_xavier
    from repro.soc.soc import SoC

    bench = ThirdMicroBenchmark()  # paper scale: 2^27 floats, virtual
    return {
        "tx2": bench.run(SoC(jetson_tx2())),
        "xavier": bench.run(SoC(jetson_xavier())),
    }


class TestFig7Reproduction:
    def test_paper_data_set_size(self, results):
        assert results["xavier"].data_bytes == 2 ** 27 * 4  # 512 MB

    def test_xavier_zc_wins_big(self, results):
        """Paper: ZC up to 152 % faster than SC, 164 % than UM."""
        xavier = results["xavier"]
        assert xavier.zc_faster_than("SC") > 60.0
        assert xavier.zc_faster_than("UM") > xavier.zc_faster_than("SC")

    def test_xavier_max_speedup_band(self, results):
        """The eqn-3 cap: paper implies ~2.5x."""
        assert 1.5 < results["xavier"].sc_zc_max_speedup < 4.0

    def test_tx2_zc_does_not_win(self, results):
        """On the TX2 the uncached GPU path erases the overlap gain —
        consistent with Table II publishing no SC/ZC speedup for TX2."""
        assert results["tx2"].sc_zc_max_speedup <= 1.05

    def test_um_within_sc_envelope(self, results):
        for result in results.values():
            ratio = result.total_times["UM"] / result.total_times["SC"]
            assert 0.92 < ratio < 1.15

    def test_transfer_time_significant_under_sc(self, results):
        """The paper: with 512 MB, transfer times contribute
        significantly to the system performance."""
        xavier = results["xavier"]
        assert xavier.copy_times["SC"] > 0.2 * xavier.total_times["SC"]
        assert xavier.copy_times["ZC"] == 0.0


class TestConstruction:
    def test_small_element_count_rejected(self):
        with pytest.raises(ValueError):
            ThirdMicroBenchmark(num_elements=100)

    def test_cpu_balance_validated(self):
        with pytest.raises(ValueError):
            ThirdMicroBenchmark(cpu_balance=0.0)

    def test_balanced_tasks(self, results):
        """CPU and GPU runtimes are comparable (the paper's 'balanced
        CPU+iGPU computation')."""
        xavier = results["xavier"]
        ratio = xavier.cpu_times["SC"] / xavier.kernel_times["SC"]
        assert 0.2 < ratio < 5.0


class TestBalanceSweep:
    def test_speedups_vary_with_balance(self):
        from repro.soc.board import get_board
        from repro.soc.soc import SoC

        sweep = ThirdMicroBenchmark().balance_sweep(SoC(get_board("xavier")))
        assert len(set(sweep.sc_zc_speedups)) > 1

    def test_custom_balances(self):
        from repro.soc.board import get_board
        from repro.soc.soc import SoC

        result = ThirdMicroBenchmark().balance_sweep(
            SoC(get_board("tx2")), balances=(0.5, 2.0)
        )
        assert result.balances == (0.5, 2.0)
        assert len(result.results) == 2
