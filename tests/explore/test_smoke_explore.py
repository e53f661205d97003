"""Wall-clock smoke check for the surrogate fast path.

Marked ``perf`` like the other timing smokes.  The surrogate answers
about 26x faster than a full characterization; this floor is
deliberately lax so it only catches the fast path silently degrading
to a full characterization.
"""

from __future__ import annotations

import time

import pytest

from repro.microbench.suite import MicrobenchmarkSuite

pytestmark = pytest.mark.perf

LAX_FLOOR = 5.0


def test_surrogate_answers_much_faster_than_characterization(tx2_space,
                                                             surrogate):
    board = tx2_space.board_at((0.9, 1.4))

    t0 = time.perf_counter()
    MicrobenchmarkSuite().characterize(board)
    t_cold = time.perf_counter() - t0

    best = float("inf")
    for _ in range(3):
        suite = MicrobenchmarkSuite()  # fresh: no persistent cache
        t0 = time.perf_counter()
        prediction = surrogate.characterize(board, suite=suite)
        best = min(best, time.perf_counter() - t0)
        assert prediction is not None, surrogate.last_fallback_reason

    assert t_cold / best >= LAX_FLOOR, (
        f"surrogate only {t_cold / best:.1f}x faster than a full "
        f"characterization ({t_cold * 1e3:.1f}ms -> {best * 1e3:.1f}ms)"
    )
