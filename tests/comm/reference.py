"""The per-phase loop the tiled pattern's one-phase replay is pinned to."""

from repro.comm.tiling import TiledExecution, TilingPlan, _scaled_job
from repro.soc.events import OverlapJob, run_overlapped
from repro.soc.interconnect import InterconnectConfig


def tiled_execution_per_phase(
    plan: TilingPlan,
    cpu_job: OverlapJob,
    gpu_job: OverlapJob,
    interconnect: InterconnectConfig,
) -> TiledExecution:
    """Simulate every phase of ``plan`` in turn, then pay its barrier."""
    phases = plan.num_phases
    efficiency = plan.coalescing_efficiency
    jobs = [
        _scaled_job(cpu_job, 1.0 / phases, efficiency),
        _scaled_job(gpu_job, 1.0 / phases, efficiency),
    ]
    phase_results = []
    total = 0.0
    for _ in range(phases):
        result = run_overlapped(list(jobs), interconnect)
        phase_results.append(result)
        total += result.makespan_s + plan.barrier_overhead_s
    return TiledExecution(
        plan=plan,
        phase_results=phase_results,
        total_time_s=total,
        sync_overhead_s=phases * plan.barrier_overhead_s,
    )
