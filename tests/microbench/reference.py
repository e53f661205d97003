"""MB1 replayed access by access: the reference its closed-form sweeps
are pinned to."""

import dataclasses

from repro.kernels.patterns import LinearPattern, VirtualLinearPattern
from repro.microbench.first import FirstMicroBenchmark


def _materialized(task):
    """``task`` with its virtual linear sweep built as a traced one."""
    pattern = task.pattern
    assert isinstance(pattern, VirtualLinearPattern)
    return dataclasses.replace(task, pattern=LinearPattern(
        buffer=pattern.buffer,
        read_write_pairs=pattern.read_write_pairs,
        repeats=pattern.repeats,
    ))


class ExactReplayFirstMicroBenchmark(FirstMicroBenchmark):
    """MB1 whose GPU kernel and CPU probe carry addresses, so the
    analytic backend replays them through the true-LRU caches."""

    def build_workload(self, soc):
        workload = super().build_workload(soc)
        return dataclasses.replace(
            workload, gpu_kernel=_materialized(workload.gpu_kernel))

    def build_cpu_probe(self, soc):
        probe = super().build_cpu_probe(soc)
        return dataclasses.replace(probe, cpu_task=_materialized(probe.cpu_task))
