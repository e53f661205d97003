"""Incremental sliding windows: exactness, chunking, injection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StreamError
from repro.robustness.faults import FaultPlan
from repro.robustness.inject import inject_faults
from repro.stream.window import SlidingWindow, WindowSpec, sliding_window_sums


def rand_features(n, cols=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1_000_000, size=(n, cols), dtype=np.int64)


def direct_sums(features, emissions, window):
    """The definitionally-correct reference: slice and sum per window."""
    return np.stack([
        features[e - window:e].sum(axis=0, dtype=np.int64)
        for e in emissions
    ])


class TestValidation:
    @pytest.mark.parametrize("window,stride,code", [
        (0, 1, "STREAM_BAD_WINDOW"),
        (-3, 1, "STREAM_BAD_WINDOW"),
        (8, 0, "STREAM_BAD_STRIDE"),
        (8, 16, "STREAM_BAD_STRIDE"),  # stride > window skips events
    ])
    def test_bad_spec(self, window, stride, code):
        with pytest.raises(StreamError) as err:
            WindowSpec(window=window, stride=stride).validated()
        assert err.value.code == code

    def test_bad_feature_count(self):
        with pytest.raises(StreamError) as err:
            SlidingWindow(WindowSpec(), num_features=0)
        assert err.value.code == "STREAM_BAD_FEATURES"

    def test_float_features_rejected(self):
        windower = SlidingWindow(WindowSpec(4, 2), num_features=2)
        with pytest.raises(StreamError) as err:
            windower.push(np.ones((8, 2), dtype=np.float64))
        assert err.value.code == "STREAM_BAD_FEATURES"

    def test_wrong_shape_rejected(self):
        windower = SlidingWindow(WindowSpec(4, 2), num_features=2)
        with pytest.raises(StreamError) as err:
            windower.push(np.ones((8, 3), dtype=np.int64))
        assert err.value.code == "STREAM_BAD_FEATURES"


class TestEmissionSchedule:
    def test_first_emission_at_window(self):
        windower = SlidingWindow(WindowSpec(4, 2), num_features=1)
        emissions, _ = windower.push(np.ones((10, 1), dtype=np.int64))
        assert emissions.tolist() == [4, 6, 8, 10]

    def test_short_stream_never_emits(self):
        windower = SlidingWindow(WindowSpec(window=16, stride=4),
                                 num_features=1)
        emissions, sums = windower.push(np.ones((15, 1), dtype=np.int64))
        assert len(emissions) == 0 and len(sums) == 0

    def test_single_event_chunks_match_one_shot(self):
        features = rand_features(50, cols=2, seed=3)
        spec = WindowSpec(window=7, stride=3)
        one_shot = sliding_window_sums(features, spec, chunk_size=50)
        dribble = sliding_window_sums(features, spec, chunk_size=1)
        assert np.array_equal(one_shot[0], dribble[0])
        assert np.array_equal(one_shot[1], dribble[1])

    def test_empty_chunk_is_a_noop(self):
        windower = SlidingWindow(WindowSpec(4, 2), num_features=1)
        windower.push(np.ones((5, 1), dtype=np.int64))
        emissions, sums = windower.push(np.empty((0, 1), dtype=np.int64))
        assert len(emissions) == 0 and len(sums) == 0
        assert windower.events_seen == 5

    def test_chunk_boundary_mid_window(self):
        # A window straddling the chunk edge must use the carried tail.
        features = rand_features(64, seed=1)
        spec = WindowSpec(window=16, stride=4)
        for chunk_size in (5, 16, 17, 63):
            emissions, sums = sliding_window_sums(features, spec,
                                                  chunk_size=chunk_size)
            assert np.array_equal(sums,
                                  direct_sums(features, emissions, 16))


class TestBitIdentical:
    def test_incremental_equals_recompute(self):
        features = rand_features(5000, seed=2)
        spec = WindowSpec(window=512, stride=32)
        emissions, fast = sliding_window_sums(features, spec)
        assert emissions.tolist() == list(range(512, 5001, 32))
        assert np.array_equal(fast, direct_sums(features, emissions, 512))

    @given(
        seed=st.integers(0, 2 ** 16),
        n=st.integers(1, 400),
        window=st.integers(1, 64),
        stride_off=st.integers(0, 63),
        chunk_size=st.integers(1, 128),
        magnitude=st.sampled_from([10, 10 ** 6, 2 ** 40]),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_random_streams(self, seed, n, window, stride_off,
                                     chunk_size, magnitude):
        stride = 1 + stride_off % window
        rng = np.random.default_rng(seed)
        features = rng.integers(0, magnitude, size=(n, 2), dtype=np.int64)
        spec = WindowSpec(window=window, stride=stride)
        em_fast, fast = sliding_window_sums(features, spec,
                                            chunk_size=chunk_size)
        assert em_fast.tolist() == list(range(window, n + 1, stride))
        if len(em_fast):
            assert np.array_equal(fast,
                                  direct_sums(features, em_fast, window))


class TestInjectionFallback:
    def test_injection_forces_recompute(self):
        """Sums under an active injector equal clean sums (no fault seam
        lives in the windower)."""
        features = rand_features(300, seed=4)
        spec = WindowSpec(window=32, stride=8)
        _, expected = SlidingWindow(spec, 3).push(features)
        with inject_faults(FaultPlan(seed=0)):
            _, got = SlidingWindow(spec, 3).push(features)
        assert np.array_equal(got, expected)
