"""Tasks: a compute demand plus one or more access patterns.

A :class:`CpuTask` or :class:`GpuKernel` is the unit one processor
executes per workload iteration.  Tasks are model-agnostic: the
communication executors decide where buffers live, whether caches are
enabled, and whether the two tasks overlap.

A task may declare several patterns (``pattern`` plus
``extra_patterns``); the processor serves the resulting streams back to
back.  This expresses kernels with distinct working sets — e.g. an ORB
feature kernel re-reading a hot image tile while streaming descriptor
output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Mapping, Optional, Tuple

from repro.errors import WorkloadError
from repro.kernels.ops import OpMix
from repro.kernels.patterns import PatternSpec
from repro.soc.address import Buffer

if TYPE_CHECKING:
    from repro.soc.stream import AccessStream


def _build_streams(task, buffers: Mapping[str, Buffer],
                   line_size: int) -> List[AccessStream]:
    patterns = [p for p in (task.pattern, *task.extra_patterns)
                if p is not None]
    if not patterns:
        from repro.soc.stream import AccessStream

        return [AccessStream.empty()]
    return [p.build(buffers, line_size) for p in patterns]


@dataclass(frozen=True)
class CpuTask:
    """A CPU routine: operation mix + memory patterns."""

    name: str
    ops: OpMix
    pattern: Optional[PatternSpec] = None
    extra_patterns: Tuple[PatternSpec, ...] = ()

    def compute_cycles(self) -> float:
        """Cycles of pure computation this task demands."""
        return self.ops.cpu_cycles()

    def build_streams(
        self, buffers: Mapping[str, Buffer], line_size: int
    ) -> List[AccessStream]:
        """Materialize the task's access streams, in execution order."""
        return _build_streams(self, buffers, line_size)


@dataclass(frozen=True)
class GpuKernel:
    """A GPU kernel: operation mix + memory patterns."""

    name: str
    ops: OpMix
    pattern: Optional[PatternSpec] = None
    extra_patterns: Tuple[PatternSpec, ...] = ()

    def total_flops(self) -> float:
        """FLOPs of pure computation this kernel demands."""
        return self.ops.gpu_flops()

    def build_streams(
        self, buffers: Mapping[str, Buffer], line_size: int
    ) -> List[AccessStream]:
        """Materialize the kernel's access streams, in execution order."""
        return _build_streams(self, buffers, line_size)
