"""``repro bench``: a parallel benchmark grid over apps × boards.

Every cell of the grid is independent (fresh SoC, fresh executor
state), so the grid fans out over :class:`~repro.perf.parallel.ParallelRunner`
with one picklable module-level worker per cell.  Each worker runs the
full Fig-2 flow (characterize → profile → decide) plus the three-model
comparison, reusing the shared characterization store so the per-board
suite runs at most once no matter how many apps share the board: the
parent *pre-warms* every distinct board through the
:class:`~repro.perf.cache.ShardedCharacterizationStore` before fanning
out, so each worker's characterization is a store hit (observable in
the ``perf.store.shard.XX.hit`` counters) instead of a redundant
suite run racing the other cells.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.perf.parallel import ParallelRunner


def warm_store(boards: Sequence[str], cache_dir: str) -> int:
    """Characterize every distinct board once into the shared store.

    Returns how many characterizations were actually computed (a board
    already resident in the store costs only a load).  Fault injection
    disables the persistent layer inside the suite itself, so warming
    under injection is a harmless no-op cache-wise.
    """
    from repro.microbench.suite import MicrobenchmarkSuite
    from repro.soc.board import get_board

    suite = MicrobenchmarkSuite(cache_dir=cache_dir)
    computed = 0
    for name in dict.fromkeys(boards):  # de-dup, keep order
        board = get_board(name)
        suite.characterize(board)
        if suite.raw_results(board) is not None:  # the suite actually ran
            computed += 1
    return computed


def _grid_worker(cell: Tuple[str, str, str, Optional[str]]) -> Dict[str, Any]:
    """One grid cell: tune + compare ``app`` on ``board``.

    Module-level (picklable) so it can cross the process boundary; the
    cell carries only strings and rebuilds everything locally.
    """
    from repro.apps import build_workload
    from repro.model.framework import Framework
    from repro.soc.board import get_board

    app, board_name, current_model, cache_dir = cell
    board = get_board(board_name)
    framework = Framework(cache_dir=cache_dir)
    workload = build_workload(app, board_name=board.name)
    report = framework.tune(workload, board, current_model=current_model)
    comparison = framework.compare_models(workload, board)
    sc_time = comparison["SC"].time_per_iteration_s
    times = {
        model: result.time_per_iteration_s
        for model, result in comparison.items()
    }
    return {
        "app": app,
        "board": board_name,
        "current_model": current_model,
        "recommendation": report.recommendation.model.value,
        "estimated_speedup_pct": report.recommendation.estimated_speedup_pct,
        "gpu_cache_usage_pct": report.gpu_cache_usage_pct,
        "cpu_cache_usage_pct": report.cpu_cache_usage_pct,
        "time_per_iteration_s": times,
        "best_measured_model": min(times, key=times.get),
        "zc_vs_sc_pct": (
            100.0 * (sc_time - times["ZC"]) / sc_time if sc_time > 0 else 0.0
        ),
    }


def run_grid(
    apps: Sequence[str],
    boards: Sequence[str],
    jobs: Optional[int] = None,
    current_model: str = "SC",
    cache_dir: Optional[str] = None,
    parallel: bool = True,
) -> List[Dict[str, Any]]:
    """Run the benchmark grid; results follow the (app, board) order."""
    if cache_dir is not None:
        warm_store(boards, cache_dir)
    cells = [
        (app, board, current_model, cache_dir)
        for app in apps
        for board in boards
    ]
    runner = ParallelRunner(max_workers=jobs, parallel=parallel)
    return runner.map(_grid_worker, cells)
