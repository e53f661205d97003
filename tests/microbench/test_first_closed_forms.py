"""MB1's sweeps run on the closed forms and measure what an access-by-
access replay measures."""

import pytest

from repro.kernels.patterns import SingleAddressPattern, VirtualLinearPattern
from repro.microbench.first import FirstMicroBenchmark
from repro.microbench.suite import MicrobenchmarkSuite
from repro.soc import hierarchy
from repro.soc.board import derive_board, get_board
from repro.soc.soc import SoC
from repro.soc.stream import PatternKind
from tests.microbench.reference import ExactReplayFirstMicroBenchmark

PRESETS = ("nano", "tx2", "xavier")

#: ``derive_board`` variants: (base, factors).
VARIANTS = (
    ("tx2", {"zc_bandwidth": 0.5, "coherence": "io_coherent"}),
    ("xavier", {"dram_bandwidth": 1.5, "coherence": "caches_disabled"}),
    ("nano", {"llc_size": 2.0, "cpu_clock": 0.75}),
    ("xavier", {"llc_size": 0.5, "gpu_clock": 1.5, "zc_bandwidth": 2.0}),
)


def boards():
    yield from (get_board(name) for name in PRESETS)
    for i, (base, factors) in enumerate(VARIANTS):
        yield derive_board(get_board(base), f"{base}-v{i}", **factors)


@pytest.mark.parametrize("name", PRESETS)
def test_only_the_cpu_routine_is_replayed(name, monkeypatch):
    soc = SoC(get_board(name))
    bench = FirstMicroBenchmark()
    assert isinstance(bench.build_workload(soc).gpu_kernel.pattern,
                      VirtualLinearPattern)
    assert isinstance(bench.build_cpu_probe(soc).cpu_task.pattern,
                      VirtualLinearPattern)
    assert isinstance(bench.build_workload(soc).cpu_task.pattern,
                      SingleAddressPattern)

    replayed = []
    exact = hierarchy.CacheHierarchy._process_exact

    def recording(self, stream):
        replayed.append(stream.pattern)
        return exact(self, stream)

    monkeypatch.setattr(hierarchy.CacheHierarchy, "_process_exact", recording)
    bench.run(soc)
    assert replayed
    assert set(replayed) == {PatternKind.SINGLE_ADDRESS}


@pytest.mark.parametrize("board", list(boards()), ids=lambda b: b.name)
@pytest.mark.parametrize("fraction", [0.25, 1.0])
def test_equals_exact_replay(board, fraction):
    closed = FirstMicroBenchmark(matrix_fraction_of_llc=fraction)
    replay = ExactReplayFirstMicroBenchmark(matrix_fraction_of_llc=fraction)
    assert closed.run(SoC(board)) == replay.run(SoC(board))


@pytest.mark.parametrize("name", PRESETS)
def test_characterization_equals_exact_replay(name):
    board = get_board(name)
    closed = MicrobenchmarkSuite()
    replay = MicrobenchmarkSuite(first=ExactReplayFirstMicroBenchmark())
    assert closed.characterize(board) == replay.characterize(board)
    assert closed.raw_results(board) == replay.raw_results(board)


def test_simulated_xavier_equals_exact_replay():
    # The simulated backend synthesizes the virtual sweeps and replays
    # the traced ones verbatim; both measure the same.
    board = get_board("xavier")
    closed = FirstMicroBenchmark().run(SoC(board, backend="simulated"))
    replay = ExactReplayFirstMicroBenchmark().run(SoC(board, backend="simulated"))
    assert closed == replay
