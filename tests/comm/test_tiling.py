"""The Fig-4 tiled zero-copy pattern: geometry, race freedom, timing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.tiling import (
    TiledZeroCopyPattern,
    TilingPlan,
    check_race_free,
)
from repro.errors import ConfigurationError, RaceConditionError
from repro.kernels.workload import BufferSpec, Direction
from repro.soc.address import MemoryRegion, RegionKind
from repro.soc.board import jetson_tx2, jetson_xavier
from repro.soc.events import OverlapJob
from repro.soc.stream import AccessStream
from repro.units import gbps
from tests.comm.reference import tiled_execution_per_phase


def make_spec(size_bytes=64 * 1024):
    return BufferSpec("image", size_bytes // 4, element_size=4, shared=True,
                      direction=Direction.BIDIRECTIONAL)


def place(spec):
    region = MemoryRegion(name="p", base=0, size=1 << 22, kind=RegionKind.PINNED)
    return {spec.name: region.allocate(spec.name, spec.size_bytes,
                                       element_size=spec.element_size)}


class TestPlanGeometry:
    def test_tile_is_smaller_llc_block(self):
        board = jetson_tx2()
        plan = TilingPlan.for_buffer(make_spec(), board)
        assert plan.tile_bytes == min(
            board.cpu.llc.line_size, board.gpu.llc.line_size
        )

    def test_tiles_cover_buffer(self):
        plan = TilingPlan.for_buffer(make_spec(64 * 1024), jetson_tx2())
        assert plan.num_tiles * plan.tile_bytes == 64 * 1024

    def test_parities_swap_between_phases(self):
        plan = TilingPlan.for_buffer(make_spec(), jetson_tx2())
        assert plan.cpu_parity(0) != plan.cpu_parity(1)
        assert plan.cpu_parity(0) == plan.gpu_parity(1)
        for phase in range(4):
            assert plan.cpu_parity(phase) != plan.gpu_parity(phase)

    def test_tiny_buffer_rejected(self):
        with pytest.raises(ConfigurationError):
            TilingPlan.for_buffer(make_spec(64), jetson_tx2(), tile_bytes=64)

    def test_coalescing_efficiency(self):
        board = jetson_xavier()
        full = TilingPlan.for_buffer(make_spec(), board)
        assert full.coalescing_efficiency == 1.0
        tiny = TilingPlan.for_buffer(make_spec(), board, tile_bytes=16)
        assert tiny.coalescing_efficiency == pytest.approx(16 / 64)

    def test_plan_validation(self):
        with pytest.raises(ConfigurationError):
            TilingPlan(buffer_name="b", buffer_bytes=128, element_size=4,
                       tile_bytes=0, num_tiles=2)
        with pytest.raises(ConfigurationError):
            TilingPlan(buffer_name="b", buffer_bytes=128, element_size=4,
                       tile_bytes=64, num_tiles=1)


class TestRaceFreedom:
    def test_phase_streams_are_disjoint(self):
        spec = make_spec()
        plan = TilingPlan.for_buffer(spec, jetson_tx2())
        buffers = place(spec)
        for phase in (0, 1):
            cpu_spec, gpu_spec = plan.phase_patterns(phase)
            cpu = cpu_spec.build(buffers, 64)
            gpu = gpu_spec.build(buffers, 64)
            check_race_free(cpu, gpu, granularity=plan.tile_bytes)

    def test_same_parity_detected(self):
        spec = make_spec()
        plan = TilingPlan.for_buffer(spec, jetson_tx2())
        buffers = place(spec)
        cpu_spec, _ = plan.phase_patterns(0)
        stream = cpu_spec.build(buffers, 64)
        with pytest.raises(RaceConditionError):
            check_race_free(stream, stream, granularity=plan.tile_bytes)

    def test_empty_stream_is_race_free(self):
        spec = make_spec()
        buffers = place(spec)
        plan = TilingPlan.for_buffer(spec, jetson_tx2())
        cpu_spec, _ = plan.phase_patterns(0)
        stream = cpu_spec.build(buffers, 64)
        check_race_free(stream, AccessStream.empty(), granularity=64)

    def test_granularity_validated(self):
        with pytest.raises(ConfigurationError):
            check_race_free(AccessStream.empty(), AccessStream.empty(),
                            granularity=0)

    @given(num_tiles_exp=st.integers(min_value=1, max_value=8),
           phase=st.integers(min_value=0, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_property_any_tiling_is_race_free(self, num_tiles_exp, phase):
        """For any power-of-two tile count and any phase, the pattern's
        two tile sets never collide."""
        num_tiles = 2 ** num_tiles_exp
        spec = make_spec(64 * 1024)
        buffers = place(spec)
        plan = TilingPlan(
            buffer_name="image", buffer_bytes=spec.size_bytes, element_size=4,
            tile_bytes=spec.size_bytes // num_tiles, num_tiles=num_tiles,
        )
        cpu_spec, gpu_spec = plan.phase_patterns(phase)
        cpu = cpu_spec.build(buffers, 64)
        gpu = gpu_spec.build(buffers, 64)
        check_race_free(cpu, gpu, granularity=plan.tile_bytes)

    def test_two_phases_cover_everything_for_both(self):
        """Over phases i and i+1 each processor touches every tile."""
        spec = make_spec(4 * 1024)
        buffers = place(spec)
        plan = TilingPlan.for_buffer(spec, jetson_tx2())
        cpu_addresses = set()
        for phase in (0, 1):
            cpu_spec, _ = plan.phase_patterns(phase)
            cpu_addresses.update(
                cpu_spec.build(buffers, 64).addresses.tolist()
            )
        full = AccessStream.linear(buffers["image"], read_write_pairs=True)
        assert cpu_addresses == set(full.addresses.tolist())


class TestOverlappedTiming:
    def make_jobs(self):
        cpu = OverlapJob(name="cpu", compute_time_s=1e-3,
                         memory_bytes=gbps(3.2) * 0.5e-3,
                         solo_bandwidth=gbps(3.2),
                         overlap_compute_memory=False)
        gpu = OverlapJob(name="gpu", compute_time_s=0.8e-3,
                         memory_bytes=gbps(1.28) * 0.5e-3,
                         solo_bandwidth=gbps(1.28))
        return cpu, gpu

    def test_total_includes_barriers(self):
        board = jetson_tx2()
        plan = TilingPlan.for_buffer(make_spec(), board)
        pattern = TiledZeroCopyPattern(plan)
        cpu, gpu = self.make_jobs()
        execution = pattern.overlapped_execution(cpu, gpu, board.interconnect)
        assert execution.sync_overhead_s == pytest.approx(
            plan.num_phases * plan.barrier_overhead_s
        )
        assert execution.total_time_s > execution.overlapped_time_s

    def test_phase_count_matches_plan(self):
        board = jetson_tx2()
        plan = TilingPlan.for_buffer(make_spec(), board, num_phases=4)
        pattern = TiledZeroCopyPattern(plan)
        cpu, gpu = self.make_jobs()
        execution = pattern.overlapped_execution(cpu, gpu, board.interconnect)
        assert len(execution.phase_results) == 4

    def test_sub_line_tiles_slow_execution(self):
        board = jetson_xavier()
        cpu, gpu = self.make_jobs()
        good = TilingPlan.for_buffer(make_spec(), board)
        bad = TilingPlan.for_buffer(make_spec(), board, tile_bytes=8)
        t_good = TiledZeroCopyPattern(good).overlapped_execution(
            cpu, gpu, board.interconnect).total_time_s
        t_bad = TiledZeroCopyPattern(bad).overlapped_execution(
            cpu, gpu, board.interconnect).total_time_s
        assert t_bad > t_good


class TestVectorizedTiming:
    def make_jobs(self):
        cpu = OverlapJob(name="cpu", compute_time_s=1e-3,
                         memory_bytes=gbps(3.2) * 0.5e-3,
                         solo_bandwidth=gbps(3.2),
                         overlap_compute_memory=False)
        gpu = OverlapJob(name="gpu", compute_time_s=0.8e-3,
                         memory_bytes=gbps(1.28) * 0.5e-3,
                         solo_bandwidth=gbps(1.28))
        return cpu, gpu

    @pytest.mark.parametrize("phases", [2, 8, 64])
    def test_matches_scalar_loop_exactly(self, phases):
        board = jetson_tx2()
        plan = TilingPlan.for_buffer(make_spec(), board, num_phases=phases)
        cpu, gpu = self.make_jobs()
        fast = TiledZeroCopyPattern(plan) \
            .overlapped_execution(cpu, gpu, board.interconnect)
        slow = tiled_execution_per_phase(plan, cpu, gpu, board.interconnect)
        assert fast.total_time_s == slow.total_time_s
        assert fast.sync_overhead_s == slow.sync_overhead_s
        assert len(fast.phase_results) == len(slow.phase_results) == phases
        for a, b in zip(fast.phase_results, slow.phase_results):
            assert a.makespan_s == b.makespan_s

    def test_injection_uses_per_phase_loop(self):
        """Timing under an active injector equals clean timing (no fault
        seam lives in the overlap arbiter)."""
        from repro.robustness.faults import FaultPlan
        from repro.robustness.inject import inject_faults

        board = jetson_xavier()
        plan = TilingPlan.for_buffer(make_spec(), board, num_phases=4)
        cpu, gpu = self.make_jobs()
        clean = TiledZeroCopyPattern(plan) \
            .overlapped_execution(cpu, gpu, board.interconnect)
        with inject_faults(FaultPlan(seed=0)):
            injected = TiledZeroCopyPattern(plan) \
                .overlapped_execution(cpu, gpu, board.interconnect)
        assert injected.total_time_s == clean.total_time_s
