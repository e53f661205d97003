"""Shared fixtures for the design-space explorer tests."""

from __future__ import annotations

import pytest

from repro.explore import Axis, BoardSpace


@pytest.fixture(scope="session")
def tx2_space() -> BoardSpace:
    """A small 2-axis space around the TX2 preset (9 grid boards)."""
    return BoardSpace(
        "tx2",
        axes=(
            Axis("dram_bandwidth", (0.8, 1.0, 1.25)),
            Axis("zc_bandwidth", (0.5, 1.0, 2.0)),
        ),
    )
