"""The per-query matcher the batched acceptance mask is pinned to."""

from typing import List

import numpy as np

from repro.apps.orbslam.matching import Match, _byte_hamming_distance_matrix


def match_descriptors_per_query(
    query: np.ndarray,
    train: np.ndarray,
    max_distance: int = 64,
    ratio: float = 0.8,
    cross_check: bool = True,
) -> List[Match]:
    """Byte-LUT distances, then one acceptance decision per query."""
    distances = _byte_hamming_distance_matrix(query, train)
    if distances.size == 0:
        return []
    best = distances.argmin(axis=1)
    reverse_best = distances.argmin(axis=0)
    matches: List[Match] = []
    for qi in range(distances.shape[0]):
        ti = int(best[qi])
        d = int(distances[qi, ti])
        if d > max_distance:
            continue
        if distances.shape[1] > 1:
            row = distances[qi].copy()
            row[ti] = np.iinfo(np.int32).max
            second = int(row.min())
            if second > 0 and d >= ratio * second:
                continue
        if cross_check and int(reverse_best[ti]) != qi:
            continue
        matches.append(Match(query_index=qi, train_index=ti, distance=d))
    return matches
