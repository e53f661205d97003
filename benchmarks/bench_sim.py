"""Timing backends — simulation cost and engine speedup.

Not a paper artefact: this benchmark records what the event-driven
timing backend costs relative to the analytic closed form, and what
the NumPy lockstep engine buys over the scalar reference — the
numbers behind the guidance in ``docs/simulation.md`` (characterize
analytically, audit decisions with the simulator).
"""

import time

import numpy as np

from benchmarks.conftest import run_once
from repro.analysis.tables import Table
from repro.microbench.suite import MicrobenchmarkSuite
from repro.sim.backend import SimulatedBackend
from repro.soc.board import get_board
from repro.soc.soc import SoC
from repro.soc.stream import AccessStream, PatternKind


def _time(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_characterization_cost_by_backend(benchmark, archive):
    """Full suite characterization: analytic vs event-driven cost.

    The simulator replays synthesized traces through every
    micro-benchmark phase, so characterization is expected to cost
    orders of magnitude more wall-clock than the closed form — the
    table documents the price of the cross-check, not a regression.
    """
    board = get_board("xavier")
    t_analytic = _time(
        lambda: MicrobenchmarkSuite().characterize(board)
    )
    t_simulated = run_once(benchmark, lambda: _time(
        lambda: MicrobenchmarkSuite(backend="simulated").characterize(board)
    ))

    table = Table(
        "Characterization wall-clock by backend [xavier]",
        ["backend", "time (ms)", "relative"],
    )
    table.add_row("analytic", f"{t_analytic * 1e3:.1f}", "1.0x")
    table.add_row("simulated", f"{t_simulated * 1e3:.1f}",
                  f"{t_simulated / t_analytic:.0f}x")
    archive("sim_characterization_cost.txt", table.render())
    # Sanity floor only: the simulated suite must finish in seconds,
    # or the crosscheck CI job stops being viable.
    assert t_simulated < 60.0


def _captured_segments(monkeypatch, board):
    """Every trace segment one phase sweep replays through the bit-PLRU
    caches and the DRAM row buffers, each with the state it met."""
    from repro.sim import dramsim, engine

    cache_segments, dram_segments = [], []
    access_trace, dram_access = engine.access_trace, dramsim.access

    def record_cache(state, addresses, is_write, write_back=True,
                     write_allocate=True):
        cache_segments.append((state.clone(), np.array(addresses),
                               np.array(is_write), write_back,
                               write_allocate))
        return access_trace(state, addresses, is_write, write_back,
                            write_allocate)

    def record_dram(state, addresses):
        dram_segments.append((state.clone(), np.array(addresses)))
        return dram_access(state, addresses)

    monkeypatch.setattr(engine, "access_trace", record_cache)
    monkeypatch.setattr(dramsim, "access", record_dram)
    soc = SoC(board, backend=SimulatedBackend())
    for pattern in (PatternKind.LINEAR, PatternKind.SPARSE):
        stream = AccessStream.virtual_stream(
            pattern=pattern,
            per_pass=1 << 16,
            footprint_bytes=1 << 22,
            transaction_size=64,
            repeats=2,
            write_fraction=0.5,
        )
        soc.gpu.hierarchy.process(stream, mode="auto")
    monkeypatch.undo()
    return cache_segments, dram_segments


def test_lockstep_engine_speedup(benchmark, archive, monkeypatch):
    """Scalar references vs the engines on one phase sweep (>= 3x).

    The segments a simulated xavier phase sweep replays are recorded
    once, then replayed through the production engines and through the
    scalar references of ``tests/sim/reference.py`` (results are pinned
    bit-identical by the ``tests/sim`` property suite).
    """
    from repro.sim import dramsim, engine
    from tests.sim.reference import access_trace_scalar, dram_access_scalar

    cache_segments, dram_segments = _captured_segments(
        monkeypatch, get_board("xavier"))

    def replay(cache_access, dram_access):
        for state, addresses, writes, write_back, write_allocate in \
                cache_segments:
            cache_access(state.clone(), addresses, writes, write_back,
                         write_allocate)
        for state, addresses in dram_segments:
            dram_access(state.clone(), addresses)

    def fast():
        replay(engine.access_trace, dramsim.access)

    fast()  # warm the import path before timing
    t_fast = run_once(benchmark, lambda: _time(fast))
    t_slow = _time(lambda: replay(access_trace_scalar, dram_access_scalar))

    table = Table(
        "Event-driven engine wall-clock [xavier]",
        ["engine", "time (ms)", "speedup"],
    )
    table.add_row("scalar reference", f"{t_slow * 1e3:.1f}", "1.0x")
    table.add_row("NumPy lockstep", f"{t_fast * 1e3:.2f}",
                  f"{t_slow / t_fast:.1f}x")
    archive("sim_engine_speedup.txt", table.render())
    assert t_slow / t_fast >= 3.0
