"""Characterization suite: assembly and caching."""

import dataclasses

import pytest

from repro.microbench.suite import MicrobenchmarkSuite
from repro.soc.board import get_board


class TestCharacterization:
    def test_assembles_device(self, tx2_device):
        assert tx2_device.board_name == "tx2"
        assert not tx2_device.io_coherent
        assert set(tx2_device.gpu_cache_throughput) == {"SC", "UM", "ZC"}
        assert tx2_device.sc_zc_max_speedup >= 1.0
        assert tx2_device.zc_sc_max_speedup > 1.0

    def test_xavier_is_io_coherent(self, xavier_device):
        assert xavier_device.io_coherent
        assert xavier_device.gpu_zone2_pct > xavier_device.gpu_threshold_pct

    def test_tx2_zones_collapse(self, tx2_device):
        assert tx2_device.gpu_zone2_pct == tx2_device.gpu_threshold_pct

    def test_throughput_ratio_property(self, tx2_device, xavier_device):
        assert tx2_device.zc_sc_throughput_ratio > \
            xavier_device.zc_sc_throughput_ratio

    def test_caching_by_board_name(self, characterization_suite):
        a = characterization_suite.characterize(get_board("tx2"))
        b = characterization_suite.characterize(get_board("tx2"))
        assert a is b

    @pytest.mark.parametrize("derive", [
        lambda b: dataclasses.replace(b, dram=dataclasses.replace(
            b.dram, peak_bandwidth=b.dram.peak_bandwidth * 0.25)),
        lambda b: dataclasses.replace(b, zero_copy=dataclasses.replace(
            b.zero_copy, gpu_zc_bandwidth=b.zero_copy.gpu_zc_bandwidth * 0.5)),
        lambda b: dataclasses.replace(b, cpu=dataclasses.replace(
            b.cpu, llc_bandwidth=b.cpu.llc_bandwidth * 2.0)),
        lambda b: dataclasses.replace(b, gpu=dataclasses.replace(
            b.gpu, llc_bandwidth=b.gpu.llc_bandwidth * 0.5)),
    ], ids=["dram-bandwidth", "zc-bandwidth", "cpu-llc-bandwidth",
            "gpu-llc-bandwidth"])
    def test_replaced_board_keeps_name_but_not_memo(
            self, characterization_suite, tx2_device, derive):
        preset = get_board("tx2")
        variant = derive(preset)
        assert variant.name == "tx2"
        device = characterization_suite.characterize(variant)
        assert device == MicrobenchmarkSuite().characterize(variant)
        assert device != tx2_device
        assert characterization_suite.memoized(variant) is device
        # The raw MB1-MB3 results are keyed like the memo: a later memo
        # hit on the preset still reads the preset's own results.
        assert characterization_suite.characterize(preset) is tx2_device
        for board, expected in ((variant, device), (preset, tx2_device)):
            raw = characterization_suite.raw_results(board)
            assert raw.first.gpu_max_throughput == \
                expected.gpu_cache_throughput

    def test_force_recomputes(self):
        suite = MicrobenchmarkSuite()
        a = suite.characterize(get_board("nano"))
        b = suite.characterize(get_board("nano"), force=True)
        assert a is not b

    def test_raw_results_stored(self, characterization_suite, tx2_device):
        raw = characterization_suite.raw_results(get_board("tx2"))
        assert raw is not None
        assert raw.first.board_name == "tx2"
        assert raw.third.data_bytes == 2 ** 27 * 4
