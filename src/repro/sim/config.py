"""Configuration of the event-driven simulation backend.

Every field of :class:`SimConfig` changes simulated timing, so the
whole config participates in the characterization cache key (via
:meth:`SimConfig.signature`); the audit test in
``tests/sim/test_cache_key_audit.py`` enforces that no field can be
added here without re-keying the store.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import is_power_of_two


@dataclass(frozen=True)
class SimConfig:
    """Tunables of the event-driven backend.

    Attributes:
        max_window_lines: virtual streams larger than this many cache
            lines are simulated over a representative prefix window and
            scaled (never smaller than twice the largest cache, so
            capacity thrashing survives the cut).
        max_sim_transactions: hard cap on synthesized transactions per
            pass; streaming patterns keep identical line-level behaviour
            under subsampling because the window is preserved.
        dram_banks: number of DRAM banks (power of two).
        dram_row_bytes: row-buffer size per bank (power of two).
        row_hit_cycles: DRAM command cycles charged per row-buffer hit
            (integer, kept exactly for the bit-identity tests).
        row_miss_cycles: cycles per row-buffer miss (precharge +
            activate + access).
        row_hit_efficiency: fraction of peak pin bandwidth sustained by
            row-hit traffic.
        row_miss_efficiency: fraction of peak sustained by row-miss
            (random) traffic.
        contention_quantum_bytes: arbitration granularity of the
            shared-interconnect contention queue.
        seed: seed for synthesized sparse access streams.
    """

    max_window_lines: int = 1 << 17
    max_sim_transactions: int = 1 << 21
    dram_banks: int = 8
    dram_row_bytes: int = 2048
    row_hit_cycles: int = 4
    row_miss_cycles: int = 20
    row_hit_efficiency: float = 0.82
    row_miss_efficiency: float = 0.48
    contention_quantum_bytes: int = 4096
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_window_lines <= 0 or self.max_sim_transactions <= 0:
            raise ConfigurationError("simulation window caps must be positive")
        if not is_power_of_two(self.dram_banks):
            raise ConfigurationError(
                f"dram_banks must be a power of two, got {self.dram_banks}"
            )
        if not is_power_of_two(self.dram_row_bytes):
            raise ConfigurationError(
                f"dram_row_bytes must be a power of two, got {self.dram_row_bytes}"
            )
        if self.row_hit_cycles <= 0 or self.row_miss_cycles <= 0:
            raise ConfigurationError("DRAM cycle costs must be positive")
        if self.row_miss_cycles < self.row_hit_cycles:
            raise ConfigurationError("a row miss cannot be cheaper than a hit")
        for name in ("row_hit_efficiency", "row_miss_efficiency"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ConfigurationError(f"{name} must be in (0, 1], got {value}")
        if self.row_miss_efficiency > self.row_hit_efficiency:
            raise ConfigurationError(
                "row-miss traffic cannot be more efficient than row-hit traffic"
            )
        if self.contention_quantum_bytes <= 0:
            raise ConfigurationError("contention quantum must be positive")

    def signature(self) -> dict:
        """Every timing-relevant field, for characterization keys."""
        return dataclasses.asdict(self)
