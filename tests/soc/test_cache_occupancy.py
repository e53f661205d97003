"""Occupancy over the touched sets equals a full scan of every set."""

import numpy as np
import pytest

from repro.soc.cache import CacheConfig, SetAssociativeCache
from tests.soc.reference import dirty_lines_full_scan, resident_lines_full_scan

OPERATIONS = ("trace", "trace", "trace", "warm", "flush", "invalidate", "reset")


def make_cache(rng, enabled=True, **kwargs):
    ways = int(rng.choice([1, 2, 4]))
    sets = int(rng.choice([1, 4, 16, 64]))
    config = CacheConfig(name="occupancy", size_bytes=ways * sets * 64,
                         line_size=64, ways=ways, **kwargs)
    return SetAssociativeCache(config, enabled=enabled)


def assert_occupancy_matches(cache):
    assert cache.resident_lines == resident_lines_full_scan(cache)
    assert cache.dirty_lines == dirty_lines_full_scan(cache)


@pytest.mark.parametrize("enabled,options", [
    (True, {}),
    (True, {"write_allocate": False}),
    (True, {"write_back": False}),
    (False, {}),
])
@pytest.mark.parametrize("seed", range(12))
def test_occupancy_matches_full_scan(seed, enabled, options):
    rng = np.random.default_rng(seed)
    cache = make_cache(rng, enabled=enabled, **options)
    span = int(rng.choice([1 << 10, 1 << 14, 1 << 18]))
    for _ in range(40):
        op = OPERATIONS[rng.integers(len(OPERATIONS))]
        if op == "trace":
            n = int(rng.integers(1, 200))
            cache.access_trace(rng.integers(0, span, n, dtype=np.int64),
                               rng.random(n) < rng.random())
        elif op == "warm":
            cache.warm_with(rng.integers(0, span, int(rng.integers(1, 100)),
                                         dtype=np.int64))
        elif op == "flush":
            dirty = dirty_lines_full_scan(cache)
            resident = resident_lines_full_scan(cache)
            before = cache.stats.snapshot()
            assert cache.flush() == dirty
            delta = cache.stats.delta_since(before)
            assert delta.flush_writebacks == dirty
            assert delta.invalidations == resident
        elif op == "invalidate":
            resident = resident_lines_full_scan(cache)
            before = cache.stats.snapshot()
            assert cache.invalidate() == resident
            assert cache.stats.delta_since(before).invalidations == resident
        else:
            cache.reset()
            assert cache.stats.accesses == 0
        if op in ("flush", "invalidate", "reset"):
            assert resident_lines_full_scan(cache) == 0
        assert_occupancy_matches(cache)
    if not enabled:
        assert resident_lines_full_scan(cache) == 0
