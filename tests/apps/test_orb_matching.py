"""Hamming matcher with ratio test and cross-check."""

import numpy as np
import pytest

from repro.apps.orbslam.matching import (
    MatchingError,
    _byte_hamming_distance_matrix,
    hamming_distance_matrix,
    match_descriptors,
)
from tests.apps.reference import match_descriptors_per_query


def descriptor(*byte_values):
    d = np.zeros(32, dtype=np.uint8)
    for i, v in enumerate(byte_values):
        d[i] = v
    return d


class TestHammingMatrix:
    def test_identical_is_zero(self):
        a = np.stack([descriptor(0xFF, 0x0F)])
        assert hamming_distance_matrix(a, a)[0, 0] == 0

    def test_known_distance(self):
        a = np.stack([descriptor(0b1111_0000)])
        b = np.stack([descriptor(0b0000_1111)])
        assert hamming_distance_matrix(a, b)[0, 0] == 8

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, size=(5, 32), dtype=np.uint8)
        b = rng.integers(0, 256, size=(7, 32), dtype=np.uint8)
        d = hamming_distance_matrix(a, b)
        assert d.shape == (5, 7)
        assert np.array_equal(d, hamming_distance_matrix(b, a).T)

    def test_empty_inputs(self):
        empty = np.zeros((0, 32), dtype=np.uint8)
        some = np.zeros((3, 32), dtype=np.uint8)
        assert hamming_distance_matrix(empty, some).shape == (0, 3)

    def test_width_mismatch_rejected(self):
        with pytest.raises(MatchingError):
            hamming_distance_matrix(
                np.zeros((2, 32), dtype=np.uint8),
                np.zeros((2, 16), dtype=np.uint8),
            )


class TestMatching:
    def test_exact_matches_found(self):
        rng = np.random.default_rng(1)
        train = rng.integers(0, 256, size=(10, 32), dtype=np.uint8)
        query = train[[3, 7]]
        matches = match_descriptors(query, train)
        assert {(m.query_index, m.train_index) for m in matches} == {(0, 3), (1, 7)}
        assert all(m.distance == 0 for m in matches)

    def test_max_distance_rejects_weak_matches(self):
        query = np.stack([descriptor(0xFF, 0xFF, 0xFF, 0xFF)])
        train = np.stack([descriptor()])  # 32 bits away
        assert match_descriptors(query, train, max_distance=10) == []

    def test_ratio_test_rejects_ambiguous(self):
        # Two train descriptors both 1 bit from the query: ambiguous.
        query = np.stack([descriptor(0b11)])
        train = np.stack([descriptor(0b01), descriptor(0b10)])
        assert match_descriptors(query, train, ratio=0.8,
                                 cross_check=False) == []

    def test_cross_check_requires_mutual_best(self):
        # q0 and q1 both closest to t0; only one survives cross-check.
        query = np.stack([descriptor(0x00), descriptor(0x01)])
        train = np.stack([descriptor(0x00), descriptor(0xF0, 0xFF)])
        matches = match_descriptors(query, train, ratio=1.0, cross_check=True)
        pairs = {(m.query_index, m.train_index) for m in matches}
        assert pairs == {(0, 0)}

    def test_empty_inputs(self):
        empty = np.zeros((0, 32), dtype=np.uint8)
        assert match_descriptors(empty, empty) == []

    def test_ratio_validated(self):
        with pytest.raises(MatchingError):
            match_descriptors(np.zeros((1, 32), dtype=np.uint8),
                              np.zeros((1, 32), dtype=np.uint8), ratio=0.0)


class TestVectorizedEquivalence:
    def _random_pair(self, n=40, m=50, width=32, seed=2):
        rng = np.random.default_rng(seed)
        return (rng.integers(0, 256, size=(n, width), dtype=np.uint8),
                rng.integers(0, 256, size=(m, width), dtype=np.uint8))

    def test_packed_distances_identical(self):
        from repro.apps.orbslam.matching import packed_hamming_distance_matrix

        a, b = self._random_pair()
        packed = packed_hamming_distance_matrix(a, b)
        reference = _byte_hamming_distance_matrix(a, b)
        assert np.array_equal(packed, reference)

    def test_large_matrix_identical(self):
        a, b = self._random_pair(n=300, m=250)
        fast = hamming_distance_matrix(a, b)
        slow = _byte_hamming_distance_matrix(a, b)
        assert np.array_equal(fast, slow)

    def test_swar_popcount_identical(self, monkeypatch):
        # NumPy < 2 has no bitwise_count: the SWAR reduction serves.
        from repro.apps.orbslam import matching

        monkeypatch.setattr(matching, "_HAS_BITWISE_COUNT", False)
        a, b = self._random_pair(width=64)
        packed = matching.packed_hamming_distance_matrix(a, b)
        assert packed.dtype == np.int32
        assert np.array_equal(packed, _byte_hamming_distance_matrix(a, b))

    def test_odd_width_uses_lut(self):
        from repro.apps.orbslam.matching import packed_hamming_distance_matrix

        a, b = self._random_pair(width=9)
        fast = hamming_distance_matrix(a, b)
        slow = _byte_hamming_distance_matrix(a, b)
        assert np.array_equal(fast, slow)
        with pytest.raises(MatchingError):
            packed_hamming_distance_matrix(a, b)

    @pytest.mark.parametrize("cross_check", [True, False])
    @pytest.mark.parametrize("max_distance,ratio", [
        (64, 0.8), (32, 0.8), (256, 1.0), (64, 0.5),
    ])
    def test_match_lists_identical(self, cross_check, max_distance, ratio):
        a, b = self._random_pair(n=60, m=80, seed=5)
        fast = match_descriptors(a, b, max_distance=max_distance,
                                 ratio=ratio, cross_check=cross_check)
        slow = match_descriptors_per_query(a, b, max_distance=max_distance,
                                           ratio=ratio,
                                           cross_check=cross_check)
        assert fast == slow

    def test_single_train_descriptor(self):
        # One train column: the ratio test has no second-best to apply.
        a, b = self._random_pair(n=8, m=1)
        assert match_descriptors(a, b, max_distance=256) \
            == match_descriptors_per_query(a, b, max_distance=256)

    def test_injection_uses_scalar_path(self):
        """Matches under an active injector equal clean matches (no
        fault seam lives in the matcher)."""
        from repro.robustness.faults import FaultPlan
        from repro.robustness.inject import inject_faults

        a, b = self._random_pair()
        clean = match_descriptors(a, b)
        with inject_faults(FaultPlan(seed=0)):
            injected = match_descriptors(a, b)
        assert injected == clean
