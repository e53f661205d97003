"""Hamming-distance descriptor matching with Lowe's ratio test.

The tracking half of the SLAM loop: binary descriptors are matched by
Hamming distance, and ambiguous matches (best within ``ratio`` of the
second best) are rejected.

Two equivalent distance kernels exist: a packed path that views each
descriptor as ``uint64`` words and popcounts 8 bytes per instruction,
and the byte-LUT path (one popcount table lookup per XORed byte) for
descriptor widths that do not fill whole words.  Both produce
identical integer distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import ReproError


class MatchingError(ReproError):
    """Invalid matcher input."""


_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)

#: ``np.bitwise_count`` landed in NumPy 2.0; older installs take the
#: SWAR reduction below.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def _popcount64(words: np.ndarray) -> np.ndarray:
    """Per-word population count as ``uint8`` (SWAR when the ufunc is
    missing)."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words)
    x = words - ((words >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.uint8)


def packed_hamming_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) Hamming distances via 8-byte packed popcounts.

    Requires a descriptor width that is a multiple of 8 bytes (ORB's
    256-bit descriptors are 32).  Bit-identical to
    :func:`hamming_distance_matrix` — integer arithmetic only.
    """
    a = np.ascontiguousarray(a, dtype=np.uint8)
    b = np.ascontiguousarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise MatchingError(
            f"descriptor arrays must be 2-D with equal width, got "
            f"{a.shape} and {b.shape}"
        )
    if a.shape[1] % 8:
        raise MatchingError(
            f"packed distances need a multiple-of-8 width, got {a.shape[1]}"
        )
    if not len(a) or not len(b):
        return np.zeros((len(a), len(b)), dtype=np.int32)
    a64 = a.view(np.uint64)
    b64 = b.view(np.uint64)
    # One (n, m) accumulation per word: no (n, m, w) intermediate and
    # no BLAS threads, so the cost does not swing with host load.
    out = np.zeros((len(a), len(b)), dtype=np.int32)
    for k in range(a64.shape[1]):
        out += _popcount64(a64[:, k, None] ^ b64[None, :, k])
    return out


def hamming_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) Hamming distances between packed descriptors.

    Whole-word descriptor widths go through
    :func:`packed_hamming_distance_matrix`, other widths through the
    byte-LUT kernel.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2 or (len(a) and len(b) and a.shape[1] != b.shape[1]):
        raise MatchingError(
            f"descriptor arrays must be 2-D with equal width, got "
            f"{a.shape} and {b.shape}"
        )
    if not len(a) or not len(b):
        return np.zeros((len(a), len(b)), dtype=np.int32)
    if a.shape[1] % 8 == 0 and a.shape[1] > 0:
        return packed_hamming_distance_matrix(a, b)
    return _byte_hamming_distance_matrix(a, b)


def _byte_hamming_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming distances by one popcount table lookup per XORed byte."""
    xors = np.bitwise_xor(a[:, None, :], b[None, :, :])
    return _POPCOUNT[xors].sum(axis=2).astype(np.int32)


@dataclass(frozen=True)
class Match:
    """One accepted correspondence."""

    query_index: int
    train_index: int
    distance: int


def match_descriptors(
    query: np.ndarray,
    train: np.ndarray,
    max_distance: int = 64,
    ratio: float = 0.8,
    cross_check: bool = True,
) -> List[Match]:
    """Match ``query`` descriptors against ``train``.

    Acceptance is one boolean mask over all queries.  The second-best
    distance is the second order statistic of each row: removing one
    instance of the minimum leaves exactly that value, duplicates
    included.

    Args:
        query / train: (N, 32) packed binary descriptors.
        max_distance: reject matches beyond this Hamming distance.
        ratio: Lowe's ratio threshold (best < ratio * second-best).
        cross_check: also require the match to be mutual.
    """
    if not 0.0 < ratio <= 1.0:
        raise MatchingError(f"ratio must be in (0, 1], got {ratio}")
    distances = hamming_distance_matrix(query, train)
    if distances.size == 0:
        return []
    best = distances.argmin(axis=1)
    best_d = distances[np.arange(len(query)), best]
    accept = best_d <= max_distance
    if distances.shape[1] > 1:
        second = np.partition(distances, 1, axis=1)[:, 1]
        accept &= ~((second > 0) & (best_d >= ratio * second))
    if cross_check:
        reverse_best = distances.argmin(axis=0)
        accept &= reverse_best[best] == np.arange(distances.shape[0])
    return [
        Match(query_index=int(qi), train_index=int(best[qi]),
              distance=int(best_d[qi]))
        for qi in np.flatnonzero(accept)
    ]
