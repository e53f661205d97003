"""Property tests: the vectorized simulator equals the scalar reference.

The NumPy lockstep engine (and its run-collapse preprocessing) must
be *bit-identical* to the temporal-order scalar replay in
``tests/sim/reference.py`` — same hit mask, same miss lines in temporal
order, same writeback count, same final tag/MRU/dirty state — for any
trace and any cache geometry.  The same pinning covers the DRAM
row-buffer model.  No fault seam lives in either engine, so results
under an active injector equal clean ones.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.robustness.faults import FaultPlan
from repro.robustness.inject import inject_faults
from repro.sim import dramsim
from repro.sim.config import SimConfig
from repro.sim.engine import CacheSimState, access_trace
from tests.sim.reference import access_trace_scalar, dram_access_scalar

geometry = st.sampled_from(
    [(1, 1), (4, 2), (8, 3), (16, 4), (8, 6), (2, 16)]
)
trace = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1 << 14),
        st.booleans(),
    ),
    min_size=1,
    max_size=400,
)
policy = st.tuples(st.booleans(), st.booleans())


def to_arrays(pairs):
    addrs = np.array([a for a, _ in pairs], dtype=np.int64)
    writes = np.array([w for _, w in pairs], dtype=bool)
    return addrs, writes


@given(geo=geometry, pairs=trace, pol=policy)
@settings(max_examples=120, deadline=None)
def test_vectorized_matches_scalar_bit_identical(geo, pairs, pol):
    num_sets, ways = geo
    write_back, write_allocate = pol
    addrs, writes = to_arrays(pairs)
    ref = CacheSimState(num_sets=num_sets, ways=ways, line_size=64)
    fast = ref.clone()
    r_ref = access_trace_scalar(ref, addrs, writes, write_back, write_allocate)
    r_fast = access_trace(fast, addrs, writes, write_back, write_allocate)
    assert np.array_equal(r_ref.hits, r_fast.hits)
    assert np.array_equal(
        r_ref.miss_line_addresses, r_fast.miss_line_addresses
    )
    assert r_ref.writeback_lines == r_fast.writeback_lines
    assert ref.state_equal(fast)


@given(geo=geometry, pairs=trace)
@settings(max_examples=60, deadline=None)
def test_segmented_replay_matches_single_shot(geo, pairs):
    """Cutting a trace into segments must not change cumulative state."""
    num_sets, ways = geo
    addrs, writes = to_arrays(pairs)
    whole = CacheSimState(num_sets=num_sets, ways=ways, line_size=64)
    split = whole.clone()
    r_whole = access_trace(whole, addrs, writes)
    cut = len(addrs) // 2
    r_a = access_trace(split, addrs[:cut], writes[:cut])
    r_b = access_trace(split, addrs[cut:], writes[cut:])
    assert whole.state_equal(split)
    assert r_whole.num_hits == r_a.num_hits + r_b.num_hits
    assert r_whole.writeback_lines == r_a.writeback_lines + r_b.writeback_lines


@given(pairs=trace)
@settings(max_examples=60, deadline=None)
def test_hits_conserved_and_capacity_bounded(pairs):
    addrs, writes = to_arrays(pairs)
    state = CacheSimState(num_sets=4, ways=2, line_size=64)
    result = access_trace(state, addrs, writes)
    assert result.num_hits + result.num_misses == len(addrs)
    assert state.resident_lines <= state.num_sets * state.ways
    assert state.dirty_lines <= state.resident_lines


@given(addrs=st.lists(st.integers(min_value=0, max_value=1 << 22),
                      min_size=1, max_size=400))
@settings(max_examples=100, deadline=None)
def test_dram_vectorized_matches_scalar(addrs):
    config = SimConfig()
    addresses = np.array(addrs, dtype=np.int64)
    ref = dramsim.DRAMSimState(config)
    fast = ref.clone()
    r_ref = dram_access_scalar(ref, addresses)
    r_fast = dramsim.access(fast, addresses)
    assert np.array_equal(r_ref.hit_mask, r_fast.hit_mask)
    assert r_ref.row_hits == r_fast.row_hits
    assert r_ref.row_misses == r_fast.row_misses
    assert np.array_equal(ref.open_rows, fast.open_rows)
    assert r_ref.busy_cycles(config) == r_fast.busy_cycles(config)


def test_injection_forces_scalar_cache_path():
    """A replay under an active injector equals a clean replay."""
    # Long linear trace: it takes the lockstep core.
    addrs = np.arange(4096, dtype=np.int64) * 64
    writes = np.zeros(4096, dtype=bool)
    state = CacheSimState(num_sets=64, ways=4, line_size=64)
    with inject_faults(FaultPlan(seed=0)):
        result = access_trace(state, addrs, writes)
    clean = CacheSimState(num_sets=64, ways=4, line_size=64)
    expected = access_trace(clean, addrs, writes)
    assert np.array_equal(result.hits, expected.hits)
    assert state.state_equal(clean)


def test_injection_forces_scalar_dram_path():
    """A row-buffer replay under an active injector equals a clean one."""
    config = SimConfig()
    addrs = np.arange(1024, dtype=np.int64) * 64
    state = dramsim.DRAMSimState(config)
    with inject_faults(FaultPlan(seed=0)):
        result = dramsim.access(state, addrs)
    clean = dramsim.DRAMSimState(config)
    expected = dramsim.access(clean, addrs)
    assert np.array_equal(result.hit_mask, expected.hit_mask)
    assert np.array_equal(state.open_rows, clean.open_rows)
