"""Analytic estimators cross-validated against the exact simulator.

This file is the contract that lets the benchmarks trust the analytic
fast path: for every supported pattern, the closed-form hit counts must
track the exact LRU simulation.  A single stream is a batch of one
(``SummaryBatch.from_stream``); ``estimate`` reads back its only row.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.soc import analytic
from repro.soc.address import MemoryRegion, RegionKind
from repro.soc.cache import CacheConfig, SetAssociativeCache
from repro.soc.stream import AccessStream, PatternKind


def make_buffer(size_bytes, element_size=4):
    region = MemoryRegion(name="r", base=0, size=max(1 << 22, size_bytes * 4),
                          kind=RegionKind.PINNED)
    return region.allocate("buf", size_bytes, element_size=element_size)


def exact_counts(stream: AccessStream, config: CacheConfig):
    """Replay the stream exactly (honouring repeats) and count."""
    cache = SetAssociativeCache(config)
    hits = misses = writebacks = 0
    for _ in range(stream.repeats):
        result = cache.access_trace(stream.addresses, stream.is_write)
        hits += result.num_hits
        misses += result.num_misses
        writebacks += result.writeback_lines
    return hits, misses, writebacks


CACHE = CacheConfig(name="val", size_bytes=16 * 1024, line_size=64, ways=4)


def estimate(batch, config=CACHE, **kwargs):
    """Row 0 of ``estimate_level`` on a batch of one, as plain ints."""
    est = analytic.estimate_level(batch, config, **kwargs)
    assert len(est.accesses) == 1
    return SimpleNamespace(
        **{name: int(getattr(est, name)[0]) for name in vars(est)}
    )


def summary(stream):
    return analytic.SummaryBatch.from_stream(stream)


def single(pattern, per_pass):
    """A batch of one built from shape parameters alone."""
    return analytic.SummaryBatch.build(
        pattern=pattern, per_pass=per_pass, repeats=1,
        footprint_bytes=per_pass * 4, write_fraction=0.0, transaction_size=4,
    )


class TestSweepEstimates:
    @pytest.mark.parametrize("footprint_kib", [2, 8, 16])
    def test_fitting_sweep_matches_exact(self, footprint_kib):
        buffer = make_buffer(footprint_kib * 1024)
        stream = AccessStream.linear(buffer, read_write_pairs=True, repeats=4)
        est = estimate(summary(stream))
        hits, misses, writebacks = exact_counts(stream, CACHE)
        assert est.misses == misses
        assert est.hits == hits
        assert est.writeback_lines == writebacks

    @pytest.mark.parametrize("footprint_kib", [32, 64])
    def test_thrashing_sweep_matches_exact(self, footprint_kib):
        buffer = make_buffer(footprint_kib * 1024)
        stream = AccessStream.linear(buffer, read_write_pairs=True, repeats=3)
        est = estimate(summary(stream))
        hits, misses, _ = exact_counts(stream, CACHE)
        assert est.misses == misses
        assert est.hits == hits

    def test_thrashing_writebacks_close_to_exact(self):
        buffer = make_buffer(64 * 1024)
        stream = AccessStream.linear(buffer, read_write_pairs=True, repeats=3)
        est = estimate(summary(stream))
        _, _, writebacks = exact_counts(stream, CACHE)
        assert est.writeback_lines == pytest.approx(writebacks, rel=0.15)

    def test_fraction_pattern(self):
        buffer = make_buffer(256 * 1024)
        stream = AccessStream.fraction(buffer, fraction=1 / 64, repeats=4)
        est = estimate(summary(stream))
        hits, misses, _ = exact_counts(stream, CACHE)
        assert est.misses == misses
        assert est.hits == hits


class TestSingleAddress:
    def test_matches_exact(self):
        buffer = make_buffer(4096)
        stream = AccessStream.single_address(buffer, count=500)
        est = estimate(summary(stream))
        hits, misses, _ = exact_counts(stream, CACHE)
        assert est.misses == misses == 1
        assert est.hits == hits


class TestSparse:
    def test_oversized_sparse_all_miss(self):
        buffer = make_buffer(256 * 1024)
        stream = AccessStream.sparse(buffer, count=2000, line_size=64, seed=1)
        est = estimate(summary(stream))
        hits, misses, _ = exact_counts(stream, CACHE)
        assert est.misses == misses == 2000
        assert hits == 0

    def test_fitting_sparse_warm_hits(self):
        buffer = make_buffer(8 * 1024)
        stream = AccessStream.sparse(buffer, count=128, line_size=64, seed=1)
        stream = stream.with_repeats(3)
        est = estimate(summary(stream))
        hits, misses, _ = exact_counts(stream, CACHE)
        assert est.misses == misses
        assert est.hits == hits


class TestDisabledAndEdge:
    def test_disabled_level_all_misses(self):
        buffer = make_buffer(4096)
        stream = AccessStream.linear(buffer)
        est = estimate(summary(stream), enabled=False)
        assert est.hits == 0
        assert est.misses == stream.total_transactions

    def test_unsupported_pattern_rejected(self):
        with pytest.raises(SimulationError):
            estimate(single(PatternKind.CUSTOM, 10))

    def test_empty_summary(self):
        est = estimate(single(PatternKind.LINEAR, 0))
        assert est.accesses == 0

    def test_idle_unsupported_pattern_is_all_zero(self):
        # An empty CUSTOM stream (a task with no memory pattern) is idle
        # whatever its tag: zeros, not an unsupported-pattern error.
        est = estimate(summary(AccessStream.empty()))
        assert vars(est) == dict.fromkeys(vars(est), 0)


class TestDeriveMissSummary:
    def test_no_misses_yields_none(self):
        buffer = make_buffer(1024)
        stream = AccessStream.single_address(buffer, count=10)
        batch = summary(stream)
        est = analytic.estimate_level(batch, CACHE, cold_start=False)
        assert analytic.derive_miss_batches(batch, est, CACHE, True) == []

    def test_fitting_sweep_derives_single_cold_pass(self):
        buffer = make_buffer(8 * 1024)
        stream = AccessStream.linear(buffer, read_write_pairs=False, repeats=4)
        batch = summary(stream)
        est = analytic.estimate_level(batch, CACHE)
        derived = analytic.derive_miss_batches(batch, est, CACHE, True)[0]
        assert derived.repeats.tolist() == [1]
        assert derived.per_pass.tolist() == [8 * 1024 // 64]
        assert derived.transaction_size.tolist() == [64]

    def test_thrashing_sweep_derives_repeating_traffic(self):
        buffer = make_buffer(64 * 1024)
        stream = AccessStream.linear(buffer, read_write_pairs=False, repeats=4)
        batch = summary(stream)
        est = analytic.estimate_level(batch, CACHE)
        derived = analytic.derive_miss_batches(batch, est, CACHE, True)[0]
        assert derived.repeats.tolist() == [4]
        assert derived.per_pass.tolist() == [64 * 1024 // 64]

    def test_disabled_level_passes_summary_through(self):
        buffer = make_buffer(8 * 1024)
        stream = AccessStream.linear(buffer)
        batch = summary(stream)
        est = analytic.estimate_level(batch, CACHE, enabled=False)
        derived = analytic.derive_miss_batches(batch, est, CACHE, False)
        assert len(derived) == 1 and derived[0] is batch


@given(
    footprint_lines=st.integers(min_value=1, max_value=512),
    repeats=st.integers(min_value=1, max_value=4),
    pairs=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_property_sweep_estimates_track_exact(footprint_lines, repeats, pairs):
    """For random sweep sizes around the capacity boundary, analytic
    hit counts match the exact simulator exactly."""
    buffer = make_buffer(footprint_lines * 64)
    stream = AccessStream.linear(buffer, read_write_pairs=pairs, repeats=repeats)
    est = estimate(summary(stream))
    hits, misses, _ = exact_counts(stream, CACHE)
    assert est.misses == misses
    assert est.hits == hits
