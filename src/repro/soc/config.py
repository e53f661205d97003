"""Board-description dataclasses of the caches and processors.

Pure values: a :class:`~repro.soc.board.BoardConfig` is built from
them, keyed by them (:func:`repro.perf.cache.cache_key`) and compared
by them, so this module imports neither NumPy nor a timing model.  The
models that consume them live in :mod:`repro.soc.cache`,
:mod:`repro.soc.cpu` and :mod:`repro.soc.gpu`, which re-export these
names.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import is_power_of_two


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one cache level.

    ``size_bytes`` must equal ``num_sets * ways * line_size`` with a
    power-of-two number of sets so set selection is a mask.
    """

    name: str
    size_bytes: int
    line_size: int
    ways: int
    write_back: bool = True
    write_allocate: bool = True

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigurationError(f"{self.name}: size must be positive")
        if not is_power_of_two(self.line_size):
            raise ConfigurationError(
                f"{self.name}: line size must be a power of two, got {self.line_size}"
            )
        if self.ways <= 0:
            raise ConfigurationError(f"{self.name}: ways must be positive")
        if self.size_bytes % (self.line_size * self.ways):
            raise ConfigurationError(
                f"{self.name}: size {self.size_bytes} is not a multiple of "
                f"line_size*ways = {self.line_size * self.ways}"
            )
        if not is_power_of_two(self.num_sets):
            raise ConfigurationError(
                f"{self.name}: number of sets must be a power of two, got {self.num_sets}"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.line_size * self.ways)

    @property
    def num_lines(self) -> int:
        """Total line capacity."""
        return self.size_bytes // self.line_size


@dataclass(frozen=True)
class CPUConfig:
    """Datasheet-level CPU complex description."""

    name: str
    frequency_hz: float
    l1: CacheConfig
    llc: CacheConfig
    l1_bandwidth: float
    llc_bandwidth: float
    mlp: float = 4.0
    #: Fraction of *streaming* memory time hidden behind computation
    #: (out-of-order window + hardware prefetch).  Dependent
    #: single-address chains hide nothing regardless of this value.
    memory_hide_factor: float = 0.85
    flops_per_cycle: float = 8.0
    #: Sustained instructions per cycle of one core on scalar FP code.
    #: Differentiates microarchitectures at equal frequency (Cortex-A57
    #: vs. Denver2 vs. Carmel).
    ipc: float = 1.0

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ConfigurationError(f"{self.name}: frequency must be positive")
        if self.l1_bandwidth <= 0 or self.llc_bandwidth <= 0:
            raise ConfigurationError(f"{self.name}: cache bandwidths must be positive")
        if self.mlp < 1:
            raise ConfigurationError(f"{self.name}: MLP must be >= 1")
        if not 0.0 <= self.memory_hide_factor <= 1.0:
            raise ConfigurationError(
                f"{self.name}: memory_hide_factor must be in [0, 1]"
            )
        if self.flops_per_cycle <= 0:
            raise ConfigurationError(f"{self.name}: flops_per_cycle must be positive")
        if self.ipc <= 0:
            raise ConfigurationError(f"{self.name}: ipc must be positive")


@dataclass(frozen=True)
class GPUConfig:
    """Datasheet-level iGPU description."""

    name: str
    frequency_hz: float
    num_sms: int
    warp_size: int
    l1: CacheConfig
    llc: CacheConfig
    l1_bandwidth: float
    llc_bandwidth: float
    flops_per_cycle_per_sm: float = 128.0
    kernel_launch_overhead_s: float = 5.0e-6

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ConfigurationError(f"{self.name}: frequency must be positive")
        if self.num_sms <= 0:
            raise ConfigurationError(f"{self.name}: need at least one SM")
        if self.warp_size <= 0:
            raise ConfigurationError(f"{self.name}: warp size must be positive")
        if self.l1_bandwidth <= 0 or self.llc_bandwidth <= 0:
            raise ConfigurationError(f"{self.name}: cache bandwidths must be positive")
        if self.kernel_launch_overhead_s < 0:
            raise ConfigurationError(f"{self.name}: launch overhead cannot be negative")
