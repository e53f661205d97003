"""Window sources: profile round-trips and trace-replay classification."""

import io

import numpy as np
import pytest

from repro.errors import StreamError
from repro.profiling.metrics import (
    profile_cpu_cache_usage,
    profile_gpu_cache_usage,
)
from repro.profiling.trace import RecordedTrace
from repro.robustness.faults import FaultPlan
from repro.robustness.inject import inject_faults
from repro.stream.sources import (
    COUNTER_COLUMNS,
    CounterWindowSource,
    LocalityModel,
    TraceWindowSource,
)
from repro.stream.window import SlidingWindow, WindowSpec
from tests.stream.reference import classify_per_access


class TestCounterSource:
    def test_bad_shape_rejected(self):
        with pytest.raises(StreamError) as err:
            CounterWindowSource(np.ones((4, 3), dtype=np.int64), "w", "b")
        assert err.value.code == "STREAM_BAD_FEATURES"

    def test_float_samples_rejected(self):
        samples = np.ones((4, len(COUNTER_COLUMNS)))
        with pytest.raises(StreamError) as err:
            CounterWindowSource(samples, "w", "b")
        assert err.value.code == "STREAM_BAD_FEATURES"

    def test_stationary_roundtrip_preserves_rates(self, shwfs_profile):
        source = CounterWindowSource.from_profile(shwfs_profile,
                                                  samples=2048)
        windower = SlidingWindow(WindowSpec(1024, 512), len(source.columns))
        for chunk in source.feature_chunks(1024):
            emissions, sums = windower.push(chunk)
            if len(emissions):
                break
        windowed = source.to_profile(sums[0], model="SC")
        assert windowed.cpu_l1_miss_rate == \
            pytest.approx(shwfs_profile.cpu_l1_miss_rate, rel=1e-3)
        assert windowed.gpu_l1_hit_rate == \
            pytest.approx(shwfs_profile.gpu_l1_hit_rate, rel=1e-3)
        assert windowed.gpu_transaction_size == \
            pytest.approx(shwfs_profile.gpu_transaction_size, rel=1e-3)

    def test_usage_series_matches_scalar_eqns(self, shwfs_profile,
                                              xavier_device):
        source = CounterWindowSource.from_profile(shwfs_profile,
                                                  samples=2048)
        windower = SlidingWindow(WindowSpec(1024, 256),
                                 len(source.columns))
        sums = np.concatenate([
            windower.push(chunk)[1]
            for chunk in source.feature_chunks(1024)
        ])
        series = source.usage_series(sums, xavier_device)
        assert series.shape == (len(sums), 2)
        for row, total in zip(series, sums):
            profile = source.to_profile(total, model="SC")
            assert row[0] == pytest.approx(
                profile_cpu_cache_usage(profile))
            assert row[1] == pytest.approx(profile_gpu_cache_usage(
                profile, xavier_device.gpu_peak_throughput))

    def test_empty_window_rejected(self, shwfs_profile):
        source = CounterWindowSource.from_profile(shwfs_profile,
                                                  samples=16)
        with pytest.raises(StreamError) as err:
            source.to_profile(np.zeros(len(COUNTER_COLUMNS),
                                       dtype=np.int64), model="SC")
        assert err.value.code == "STREAM_EMPTY_WINDOW"

    def test_drifting_switch_validated(self, shwfs_profile):
        with pytest.raises(StreamError) as err:
            CounterWindowSource.drifting(shwfs_profile, shwfs_profile,
                                         samples=64, switch_at=64)
        assert err.value.code == "STREAM_BAD_FEATURES"


def sample_trace(n=4096, seed=5):
    rng = np.random.default_rng(seed)
    sequential = (np.arange(n, dtype=np.int64) * 4) % 4096
    scattered = rng.integers(0, 1 << 20, n) * 4
    offsets = np.where(rng.random(n) < 0.7, sequential, scattered)
    return RecordedTrace(offsets=offsets.astype(np.int64),
                         is_write=rng.random(n) < 0.25)


class TestTraceSource:
    def test_vectorized_matches_scalar(self, monkeypatch):
        trace = sample_trace()
        fast = TraceWindowSource(trace, "t", "xavier")
        fast_rows = np.concatenate(list(fast.feature_chunks(512)))
        slow = TraceWindowSource(trace, "t", "xavier")
        monkeypatch.setattr(slow, "_classify",
                            lambda lines: classify_per_access(slow, lines))
        slow_rows = np.concatenate(list(slow.feature_chunks(512)))
        assert np.array_equal(fast_rows, slow_rows)

    def test_chunking_invariant(self):
        trace = sample_trace(seed=6)
        source = TraceWindowSource(trace, "t", "xavier")
        big = np.concatenate(list(source.feature_chunks(4096)))
        small = np.concatenate(list(source.feature_chunks(97)))
        assert np.array_equal(big, small)

    def test_injection_uses_scalar_path(self):
        """Features under an active injector equal clean features (no
        fault seam lives in the source)."""
        trace = sample_trace(seed=7)
        source = TraceWindowSource(trace, "t", "xavier")
        clean = np.concatenate(list(source.feature_chunks(512)))
        with inject_faults(FaultPlan(seed=0)):
            gated = np.concatenate(list(source.feature_chunks(512)))
        assert np.array_equal(gated, clean)

    def test_csv_stream_is_single_pass(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("".join(f"{i * 4},r\n" for i in range(256)))
        source = TraceWindowSource.from_csv(
            path, workload_name="t", board_name="xavier")
        assert len(list(source.feature_chunks(64))) >= 1
        with pytest.raises(StreamError) as err:
            list(source.feature_chunks(64))
        assert err.value.code == "STREAM_SOURCE_CONSUMED"

    def test_recorded_trace_is_replayable(self):
        source = TraceWindowSource(sample_trace(seed=8), "t", "xavier")
        first = np.concatenate(list(source.feature_chunks(512)))
        second = np.concatenate(list(source.feature_chunks(512)))
        assert np.array_equal(first, second)

    def test_locality_model_validated(self):
        with pytest.raises(StreamError) as err:
            LocalityModel(line_size=0).validated()
        assert err.value.code == "STREAM_BAD_FEATURES"

    def test_window_profile_is_plausible(self, xavier_device):
        from repro.model.decision import decide

        source = TraceWindowSource(sample_trace(seed=9), "t", "xavier")
        windower = SlidingWindow(WindowSpec(1024, 512),
                                 len(source.columns))
        sums = np.concatenate([
            windower.push(chunk)[1]
            for chunk in source.feature_chunks(1024)
        ])
        profile = source.to_profile(sums[0], model="SC")
        assert 0.0 <= profile.gpu_l1_hit_rate <= 1.0
        assert profile.kernel_runtime_s > 0
        decide(profile, xavier_device)  # must not raise guards
