"""The ``TimingBackend`` seam between the SoC and its timing engine.

Every :class:`~repro.soc.hierarchy.CacheHierarchy` owns one backend:

- :class:`AnalyticBackend` — the closed-form path the repo has always
  used (exact LRU replay for small traces, analytic estimators for
  large/virtual ones);
- :class:`SimulatedBackend` — the event-driven path: synthesized access
  streams replayed through bit-PLRU caches (:mod:`repro.sim.engine`)
  and the DDR row-buffer model (:mod:`repro.sim.dramsim`), with
  overlapped execution resolved by the contention queue
  (:mod:`repro.sim.contention`).

Backends are small frozen dataclasses: picklable (they ride the
process-pool characterization jobs), comparable, and hashable (the
framework caches one microbenchmark suite per distinct backend).
:meth:`TimingBackend.cache_token` feeds the characterization store key
so analytic and simulated entries can never collide.

Layering: this module must not import :mod:`repro.soc.hierarchy` (the
hierarchy imports us); it talks to hierarchies purely through the
methods they pass themselves into.  Resolving a backend
(:func:`get_backend`) imports no NumPy; :meth:`SimulatedBackend.
synthesize` imports it when it synthesizes a virtual stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.sim.config import SimConfig

if TYPE_CHECKING:
    import numpy as np

    from repro.soc.stream import AccessStream


@dataclass(frozen=True)
class TimingBackend:
    """Base of the timing-backend protocol (see module docstring)."""

    name = "abstract"

    @property
    def is_analytic(self) -> bool:
        """Whether the analytic fast paths may serve this backend."""
        return self.name == "analytic"

    def cache_token(self) -> dict:
        """Identity fields for characterization cache keys."""
        return {"name": self.name}

    def process(self, hierarchy, stream: AccessStream, mode: str):
        """Serve ``stream`` on ``hierarchy``; returns a MemoryResult."""
        raise NotImplementedError


@dataclass(frozen=True)
class AnalyticBackend(TimingBackend):
    """The closed-form timing model (the repo's original path)."""

    name = "analytic"

    def process(self, hierarchy, stream: AccessStream, mode: str):
        return hierarchy._process_default(stream, mode)


@dataclass(frozen=True)
class SimulatedBackend(TimingBackend):
    """The event-driven cache/DRAM simulator."""

    config: SimConfig = field(default_factory=SimConfig)

    name = "simulated"

    def cache_token(self) -> dict:
        return {"name": self.name, "config": self.config.signature()}

    def process(self, hierarchy, stream: AccessStream, mode: str):
        return hierarchy._process_simulated(stream, self)

    # ------------------------------------------------------------------
    # access-stream synthesis
    # ------------------------------------------------------------------

    def synthesize(
        self, stream: AccessStream, hierarchy
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """Addresses and write flags to simulate for one pass.

        Materialized streams are replayed as-is.  Virtual streams (too
        large to trace) are synthesized from their shape parameters —
        pattern, per-pass transaction count, footprint and write
        fraction — over a *window*: a representative prefix of the
        footprint, never smaller than twice the largest cache in the
        hierarchy (so capacity thrashing survives the cut), with
        simulated counts scaled back up by the returned factor.
        """
        if not stream.is_virtual:
            return stream.addresses, stream.is_write, 1.0
        import numpy as np

        from repro.soc.stream import PatternKind

        n = stream.transactions_per_pass
        tsize = stream.transaction_size
        footprint = max(stream.footprint_bytes or tsize, tsize)
        line = hierarchy.caches[-1].config.line_size
        cap_lines = max(
            self.config.max_window_lines,
            2 * max(c.config.num_lines for c in hierarchy.caches),
        )
        window = min(footprint, cap_lines * line)
        if window >= footprint:
            n_sim = n
        else:
            n_sim = max(1, int(n * (window / footprint)))
        n_sim = min(n_sim, self.config.max_sim_transactions)
        scale = n / n_sim
        index = np.arange(n_sim, dtype=np.int64)
        pattern = stream.pattern
        if pattern is PatternKind.SINGLE_ADDRESS:
            addresses = np.zeros(n_sim, dtype=np.int64)
        elif pattern is PatternKind.SPARSE:
            # Distinct pseudo-random lines: maximally cache-hostile,
            # like the materialized sparse builder.
            lines_avail = max(1, int(window) // line)
            rng = np.random.default_rng(self.config.seed)
            permutation = rng.permutation(lines_avail).astype(np.int64)
            addresses = permutation[index % lines_avail] * line
        else:
            # LINEAR / FRACTION / TILED / STRIDED: n transactions
            # covering the window evenly.  For the paper's
            # read-write-pair kernels (two transactions per element)
            # consecutive transactions land on the same element, so the
            # synthesized trace reproduces the ld/st pairing exactly.
            addresses = ((index * int(window)) // n_sim // tsize) * tsize
        write_fraction = stream.write_fraction
        if write_fraction <= 0.0:
            writes = np.zeros(n_sim, dtype=bool)
        elif write_fraction >= 1.0:
            writes = np.ones(n_sim, dtype=bool)
        else:
            # Bresenham spread: evenly interleaved writes at the exact
            # requested fraction (0.5 yields read,write,read,write —
            # the ld/st pair order).
            writes = (
                np.floor((index + 1) * write_fraction)
                - np.floor(index * write_fraction)
            ) > 0
        return addresses, writes, scale


#: The default backend (shared instance; backends are stateless).
ANALYTIC = AnalyticBackend()

#: CLI / API names.
BACKEND_NAMES = ("analytic", "simulated")


def get_backend(
    spec: Union[None, str, TimingBackend],
    config: Optional[SimConfig] = None,
) -> TimingBackend:
    """Resolve a backend argument.

    Accepts ``None`` (analytic), a name (``"analytic"`` /
    ``"simulated"``), or an already-built backend instance (returned
    unchanged; ``config`` must then be omitted).
    """
    if isinstance(spec, TimingBackend):
        if config is not None:
            raise ConfigurationError(
                "cannot combine a backend instance with a sim config"
            )
        return spec
    if spec is None or spec == "analytic":
        return ANALYTIC if config is None else AnalyticBackend()
    if spec == "simulated":
        return SimulatedBackend(config=config or SimConfig())
    raise ConfigurationError(
        f"unknown timing backend {spec!r}; expected one of {BACKEND_NAMES}"
    )
