"""Micro-benchmark base class.

The paper requires four properties of its micro-benchmark code
(§III-B); the base class records how each is realized here:

- **Stressing capability** — workloads use enough repetitions that the
  steady-state (warm) iteration dominates the measurement.
- **Workload variability** — every benchmark runs under each relevant
  communication model with the same task definitions.
- **Selectivity** — each benchmark stresses one functional component
  (the GPU LL-L1 path, the threshold knee, the fabric overlap).
- **Portability** — benchmarks are written against the board-agnostic
  workload IR; any :class:`~repro.soc.board.BoardConfig` runs them.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.soc.soc import SoC


class MicroBenchmark(abc.ABC):
    """One device-characterization micro-benchmark."""

    #: Human-readable name.
    name: str = ""

    @abc.abstractmethod
    def run(self, soc: SoC) -> Any:
        """Execute the benchmark on ``soc`` and return its result record."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
