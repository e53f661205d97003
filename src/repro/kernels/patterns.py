"""Declarative access-pattern specifications.

A :class:`PatternSpec` names a logical buffer and a shape; it
materializes into an :class:`~repro.soc.stream.AccessStream` only once
the communication-model executor has placed the buffer in physical
memory (different models use different regions).  This indirection is
what lets one workload definition run unchanged under SC, UM, and ZC.

Every built stream is tagged with the region kind of its buffer: the
zero-copy executor uses the tag to treat pinned pages as uncacheable
while private buffers stay cached (as on real devices, where only the
pinned mapping is uncacheable/I-O-coherent).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.errors import WorkloadError
from repro.soc.address import Buffer

if TYPE_CHECKING:
    from repro.soc.stream import AccessStream


class PatternSpec(abc.ABC):
    """Base class: a buffer-relative access shape."""

    buffer: str

    def build(self, buffers: Mapping[str, Buffer], line_size: int) -> AccessStream:
        """Materialize the stream against placed buffers.

        Args:
            buffers: logical name → physical buffer.
            line_size: cache line size of the accessing processor (used
                by patterns whose shape depends on line granularity).
        """
        # Streams exist only in simulation: NumPy loads with the first.
        from repro.soc.stream import AccessStream

        buffer = self._resolve(buffers)
        stream = self._build(AccessStream, buffer, line_size)
        stream.region_kind = buffer.region.kind
        return stream

    @abc.abstractmethod
    def _build(self, streams: type, buffer: Buffer,
               line_size: int) -> AccessStream:
        """Shape-specific materialization through the ``streams``
        (:class:`~repro.soc.stream.AccessStream`) constructors."""

    def _resolve(self, buffers: Mapping[str, Buffer]) -> Buffer:
        try:
            return buffers[self.buffer]
        except KeyError:
            raise WorkloadError(
                f"pattern references unknown buffer {self.buffer!r}; "
                f"known: {sorted(buffers)}"
            ) from None


@dataclass(frozen=True)
class LinearPattern(PatternSpec):
    """Sequential sweep; optionally read-then-write per element."""

    buffer: str
    read_write_pairs: bool = True
    write: bool = False
    repeats: int = 1

    def _build(self, streams, buffer: Buffer, line_size: int) -> AccessStream:
        return streams.linear(
            buffer,
            write=self.write,
            repeats=self.repeats,
            read_write_pairs=self.read_write_pairs,
        )


@dataclass(frozen=True)
class SingleAddressPattern(PatternSpec):
    """Repeated accesses to a single element (MB1's CPU routine)."""

    buffer: str
    count: int
    write_every: int = 2

    def _build(self, streams, buffer: Buffer, line_size: int) -> AccessStream:
        return streams.single_address(
            buffer, count=self.count, write_every=self.write_every
        )


@dataclass(frozen=True)
class FractionPattern(PatternSpec):
    """Sweep only the leading fraction of the buffer (MB2's knob)."""

    buffer: str
    fraction: float
    repeats: int = 1
    read_write_pairs: bool = True

    def _build(self, streams, buffer: Buffer, line_size: int) -> AccessStream:
        return streams.fraction(
            buffer,
            fraction=self.fraction,
            repeats=self.repeats,
            read_write_pairs=self.read_write_pairs,
        )


@dataclass(frozen=True)
class StridedPattern(PatternSpec):
    """Constant-stride walk (sub-line strides defeat prefetching on the
    uncached path while still touching every line)."""

    buffer: str
    stride_elements: int
    write: bool = False
    repeats: int = 1

    def _build(self, streams, buffer: Buffer, line_size: int) -> AccessStream:
        return streams.strided(
            buffer,
            stride_elements=self.stride_elements,
            write=self.write,
            repeats=self.repeats,
        )


@dataclass(frozen=True)
class SparsePattern(PatternSpec):
    """Maximally cache-hostile distinct-line walk (MB3's kernel)."""

    buffer: str
    count: int
    seed: int = 0
    write_fraction: float = 0.5

    def _build(self, streams, buffer: Buffer, line_size: int) -> AccessStream:
        return streams.sparse(
            buffer,
            count=self.count,
            line_size=line_size,
            seed=self.seed,
            write_fraction=self.write_fraction,
        )


@dataclass(frozen=True)
class TiledPattern(PatternSpec):
    """Sweep a subset of equal tiles (the Fig-4 zero-copy pattern).

    ``parity`` selects even (0) or odd (1) tiles of ``num_tiles`` equal
    slices of the buffer.
    """

    buffer: str
    num_tiles: int
    parity: int
    read_write_pairs: bool = True
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.num_tiles <= 0:
            raise WorkloadError("num_tiles must be positive")
        if self.parity not in (0, 1):
            raise WorkloadError(f"parity must be 0 or 1, got {self.parity}")

    def _build(self, streams, buffer: Buffer, line_size: int) -> AccessStream:
        tile_elements = buffer.num_elements // self.num_tiles
        if tile_elements == 0:
            raise WorkloadError(
                f"buffer {buffer.name!r} too small for {self.num_tiles} tiles"
            )
        ranges = [
            buffer.sub_range(i * tile_elements, tile_elements)
            for i in range(self.num_tiles)
            if i % 2 == self.parity
        ]
        return streams.over_ranges(
            ranges, read_write_pairs=self.read_write_pairs, repeats=self.repeats
        )


@dataclass(frozen=True)
class VirtualLinearPattern(PatternSpec):
    """Shape-only sequential sweep: MB3's 2^27 floats, and MB1's
    LLC-sized sweeps, which the closed forms model exactly.

    The buffer's own element count defines the sweep length; no
    addresses are materialized, so the analytic backend serves it
    through the closed forms and the simulated one synthesizes it.
    """

    buffer: str
    read_write_pairs: bool = True
    repeats: int = 1

    def _build(self, streams, buffer: Buffer, line_size: int) -> AccessStream:
        return streams.virtual_linear(
            num_elements=buffer.num_elements,
            element_size=buffer.element_size,
            read_write_pairs=self.read_write_pairs,
            repeats=self.repeats,
        )


@dataclass(frozen=True)
class VirtualSparsePattern(PatternSpec):
    """Shape-only max-miss walk for huge buffers."""

    buffer: str
    accesses_per_element: float = 1.0
    repeats: int = 1
    write_fraction: float = 0.5

    def _build(self, streams, buffer: Buffer, line_size: int) -> AccessStream:
        count = max(1, int(buffer.num_elements * self.accesses_per_element))
        return streams.virtual_sparse(
            num_accesses=count,
            footprint_bytes=buffer.size,
            element_size=buffer.element_size,
            repeats=self.repeats,
            write_fraction=self.write_fraction,
        )
