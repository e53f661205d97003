"""One ``Framework`` shared across threads answers exactly as it does
serially.

A framework never changes after construction — every answer carries
its own record (stage timings included) instead of a shared "last
report" — so the server's dispatch threads can drive one instance.
These tests pin that: a mixed served batch equals the serial run,
answer and explanation alike; two backends can characterize into one
store at the same time; and no call changes ``vars(framework)``.
"""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.apps.orbslam import OrbPipeline
from repro.apps.shwfs import ShwfsPipeline
from repro.model.framework import Framework
from repro.obs.report import TuneReport
from repro.serve import ServeConfig, TuneRequest, serve_all
from repro.soc.board import get_board

PIPELINES = {"shwfs": ShwfsPipeline(), "orbslam": OrbPipeline()}
#: The paper's six (application, board) cells.
CELLS = [(app, board) for app in PIPELINES
         for board in ("nano", "tx2", "xavier")]


def explanation(report):
    """The answer's :class:`TuneReport`, minus its wall-clock timings."""
    fields = TuneReport.from_tuning(report).to_dict()
    del fields["timings_s"]
    return fields


def workload(app, board):
    return PIPELINES[app].workload(board_name=board)


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """One analytic framework over a warm characterization store."""
    framework = Framework(cache_dir=str(tmp_path_factory.mktemp("store")))
    for board in ("nano", "tx2", "xavier"):
        framework.characterize(get_board(board))
    return framework


@pytest.fixture(scope="module")
def profiles(warm):
    """Measured SC counters of every cell (retune payloads)."""
    return {(app, board): warm.profile(workload(app, board), get_board(board))
            for app, board in CELLS}


def zipf_batch(profiles, size=48, seed=0):
    """Requests over the six cells with Zipf(1) popularity; 30 % of them
    ship a measured profile (the retune path), the rest name the app
    under SC or ZC."""
    rng = random.Random(seed)
    weights = [1.0 / rank for rank in range(1, len(CELLS) + 1)]
    requests = []
    for index in range(size):
        app, board = rng.choices(CELLS, weights)[0]
        if rng.random() < 0.3:
            requests.append(TuneRequest(board=board,
                                        profile=profiles[(app, board)],
                                        tenant=f"t{index}"))
        else:
            requests.append(TuneRequest(board=board, app=app,
                                        current_model=rng.choice(["SC", "ZC"]),
                                        tenant=f"t{index}"))
    return requests


def serial_answer(framework, request):
    board = get_board(request.board)
    if request.profile is not None:
        return framework.retune(request.profile, board=board,
                                strict=request.strict)
    return framework.tune(workload(request.app, request.board), board,
                          current_model=request.current_model,
                          strict=request.strict)


class TestSharedFramework:
    def test_served_batch_equals_serial_run(self, warm, profiles):
        requests = zipf_batch(profiles)
        assert any(r.profile is not None for r in requests)
        serial = [serial_answer(warm, r) for r in requests]
        answers = serve_all(requests, warm,
                            ServeConfig(window_s=0.01, dispatch_workers=2))
        assert [a.status for a in answers] == ["ok"] * len(requests)
        for answer, expected in zip(answers, serial):
            assert answer.report == expected
            assert explanation(answer.report) == explanation(expected)

    def test_threads_interleaving_calls_get_their_own_records(self, warm,
                                                              profiles):
        jobs = [(app, board, model) for app, board in CELLS
                for model in ("SC", "UM", "ZC")]
        serial = {job: serial_answer(warm, TuneRequest(
            board=job[1], app=job[0], current_model=job[2]))
            for job in jobs}

        def run(job):
            return serial_answer(warm, TuneRequest(
                board=job[1], app=job[0], current_model=job[2]))

        # More threads than cores, switching as often as possible.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(run, jobs * 2, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for job, report in zip(jobs * 2, results):
            assert report == serial[job]
            assert explanation(report) == explanation(serial[job])
            assert report.timings_s["tune"] > 0.0

    def test_no_call_changes_the_framework(self, warm, profiles):
        before = dict(vars(warm))
        board = get_board("tx2")
        warm.tune(workload("shwfs", "tx2"), board)
        warm.tune(workload("orbslam", "tx2"), board, strict=False)
        warm.retune(profiles[("shwfs", "tx2")], board=board)
        warm.retune(profiles[("orbslam", "tx2")], board=board, strict=False)
        warm.tune_many([workload(app, "tx2") for app in PIPELINES], board)
        warm.tune_many([workload(app, "tx2") for app in PIPELINES], board,
                       strict=False)
        after = vars(warm)
        assert after.keys() == before.keys()
        assert all(after[name] is before[name] for name in before)


def test_backends_characterize_concurrently_into_one_store(tmp_path):
    """An analytic and a simulated framework tune at the same time on a
    shared store; each answer equals its backend's serial answer."""
    store = str(tmp_path)
    analytic = Framework(cache_dir=store)
    simulated = Framework(cache_dir=store, backend="simulated")
    jobs = [(simulated, "shwfs", "nano")] + [(analytic, app, board)
                                             for app, board in CELLS]

    def run(job):
        framework, app, board = job
        return framework.tune(workload(app, board), get_board(board))

    with ThreadPoolExecutor(max_workers=2) as pool:
        concurrent = list(pool.map(run, jobs, timeout=120))

    # Serial references: analytic from a private, storeless framework;
    # simulated from a fresh framework over the shared store, whose
    # entry must be the simulated one, not the analytic nano entry.
    reference = Framework()
    for (_, app, board), report in zip(jobs[1:], concurrent[1:]):
        expected = reference.tune(workload(app, board), get_board(board))
        assert report == expected
        assert explanation(report) == explanation(expected)
    fresh = Framework(cache_dir=store, backend="simulated")
    expected = run((fresh, "shwfs", "nano"))
    assert concurrent[0] == expected
    assert explanation(concurrent[0]) == explanation(expected)
    analytic_nano = concurrent[1 + CELLS.index(("shwfs", "nano"))]
    assert concurrent[0].device != analytic_nano.device


def test_concurrent_profile_misses_agree(tmp_path, warm):
    """Threads racing on cold profile cells of one framework (memo and
    store both empty) get the serial answers, and the store ends with
    one sound profile entry per cell."""
    from repro.perf.cache import ShardedCharacterizationStore

    framework = Framework(cache_dir=str(tmp_path))
    jobs = [(app, board, model) for app, board in CELLS
            for model in ("SC", "UM", "ZC")]

    def run(job):
        app, board, model = job
        return framework.tune(workload(app, board), get_board(board),
                              current_model=model)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(run, jobs * 2, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    for (app, board, model), report in zip(jobs * 2, results):
        assert report == warm.tune(workload(app, board), get_board(board),
                                   current_model=model)
    scanned = ShardedCharacterizationStore(tmp_path).scan()
    profiles = [reason for _, status, reason in scanned
                if status == "ok" and reason.startswith("profile")]
    assert len(profiles) == len(jobs)
    assert all(status == "ok" for _, status, _ in scanned)
