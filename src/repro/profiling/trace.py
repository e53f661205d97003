"""Trace-driven workloads: bring your own memory trace.

The paper's flow consumes *counters* from a standard profiler.  Real
tuning sessions often have more: a memory access trace of the hot
kernel (from a binary instrumentation tool or a simulator dump).  This
module turns such traces into first-class workloads so the framework
can classify and tune applications it has never seen:

1. load a trace (in-memory arrays, CSV, or ``.npz``),
2. normalize it into a buffer-relative :class:`RecordedTrace`,
3. build a :class:`~repro.kernels.workload.Workload` whose GPU kernel
   (and optionally CPU routine) replays the trace.

Replayed streams use the CUSTOM pattern, so they always run through the
exact cache simulator — trace-driven tuning trades speed for fidelity.
"""

from __future__ import annotations

import csv
import io
import pathlib
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple, Union

import numpy as np

from repro.errors import ProfilingError
from repro.kernels.ops import OpMix
from repro.kernels.patterns import PatternSpec
from repro.kernels.task import CpuTask, GpuKernel
from repro.kernels.workload import BufferSpec, Direction, Workload
from repro.soc.address import Buffer
from repro.soc.stream import AccessStream, PatternKind

#: Structured row layout of a parsed trace (the vectorized CSV path
#: materializes the whole file as one array of these).
TRACE_ROW_DTYPE = np.dtype([("offset", np.int64), ("write", np.bool_)])

#: ``rw`` spellings that mean *store* (matching the scalar parser).
_WRITE_FLAGS = ("w", "1", "true", "write", "st")


#: Powers of ten for the vectorized digit contraction (int64-safe).
_POW10 = 10 ** np.arange(19, dtype=np.int64)

#: ``str.strip``'s whitespace restricted to ASCII bytes (tab, \\n, \\v,
#: \\f, \\r, the C1 separators and space) as a byte-indexed table.
_SPACE_LUT = np.zeros(256, dtype=np.bool_)
_SPACE_LUT[9:14] = True
_SPACE_LUT[28:33] = True

_DIGIT_LUT = np.zeros(256, dtype=np.bool_)
_DIGIT_LUT[ord("0"):ord("9") + 1] = True

_LOWER_LUT = np.arange(256, dtype=np.uint8)
_LOWER_LUT[ord("A"):ord("Z") + 1] += 32

#: Lowercase table widened so a gather yields packing-ready keys.
_LOWER_LUT64 = _LOWER_LUT.astype(np.uint64)


def _pack_flag_key(token: bytes) -> int:
    """Little-endian packing of a short token into one integer."""
    key = 0
    for j, byte in enumerate(token):
        key |= byte << (8 * j)
    return key


#: The write spellings as packed keys (all are <= 5 bytes, so 8-byte
#: keys separate every distinct stripped/lowercased token).
_WRITE_KEYS = np.array(
    [_pack_flag_key(flag.encode("ascii")) for flag in _WRITE_FLAGS],
    dtype=np.uint64,
)


def _next_in_range(positions: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray) -> np.ndarray:
    """First element of sorted ``positions`` in each [lo, hi), else hi."""
    if len(positions) == 0:
        return hi.copy()
    i = np.minimum(np.searchsorted(positions, lo), len(positions) - 1)
    candidate = positions[i]
    return np.where((candidate >= lo) & (candidate < hi), candidate, hi)


def _parse_csv_strict(
    text: str,
    data: np.ndarray,
    padded: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    commas: np.ndarray,
    c1: np.ndarray,
    has_comma: np.ndarray,
    digit_mask: np.ndarray,
) -> Optional[np.ndarray]:
    """Decode a *strict* trace: no sign/strip handling required.

    The caller guarantees no ``-`` bytes and no line mixing digits with
    whitespace, so a row is numeric exactly when its first cell is all
    digits and cells never need stripping.  Everything then reduces to
    per-row gathers: a running digit count classifies rows, a
    power-of-ten contraction over at most 18 gathers decodes offsets,
    and 8 gathers pack the ``rw`` cell into a comparison key.  Returns
    ``None`` when an offset exceeds 18 digits (the scalar parser then
    raises its authentic overflow).
    """
    counts = np.empty(len(data) + 1, dtype=np.int32)
    counts[0] = 0
    np.cumsum(digit_mask, dtype=np.int32, out=counts[1:])
    digits1 = counts[c1] - counts[starts]
    numeric = (digits1 == c1 - starts) & (c1 > starts)
    short = numeric & ~has_comma
    if short.any():
        row = int(np.flatnonzero(short)[0])
        bad = text[starts[row]:ends[row]]
        raise ProfilingError(f"trace row needs offset,rw: {[bad]}")
    sel = np.flatnonzero(numeric)
    if len(sel) == 0:
        return np.empty(0, dtype=TRACE_ROW_DTYPE)
    cc = c1[sel]
    length = cc - starts[sel]
    max_digits = int(length.max())
    if max_digits > 18:
        return None
    value = np.zeros(len(sel), dtype=np.int64)
    for k in range(max_digits):
        value += (padded[cc - 1 - k] & 0x0F) * ((length > k) * _POW10[k])

    s2 = cc + 1
    c2 = _next_in_range(commas, s2, ends[sel])
    key = np.zeros(len(sel), dtype=np.uint64)
    for j in range(8):
        at = s2 + j
        live = at < c2
        if not live.any():
            break
        key |= (_LOWER_LUT64[padded[at]] * live) << np.uint64(8 * j)

    rows = np.empty(len(sel), dtype=TRACE_ROW_DTYPE)
    rows["offset"] = value
    rows["write"] = np.isin(key, _WRITE_KEYS)
    return rows


@dataclass(frozen=True)
class RecordedTrace:
    """A normalized, buffer-relative access trace.

    Offsets are bytes from the start of the traced allocation; the
    allocation's extent defines the workload buffer.
    """

    offsets: np.ndarray
    is_write: np.ndarray
    access_size: int = 4

    def __post_init__(self) -> None:
        offsets = np.asarray(self.offsets, dtype=np.int64)
        writes = np.asarray(self.is_write, dtype=bool)
        if offsets.ndim != 1 or offsets.shape != writes.shape:
            raise ProfilingError(
                "offsets and is_write must be matching 1-D arrays"
            )
        if len(offsets) == 0:
            raise ProfilingError("a trace needs at least one access")
        if offsets.min() < 0:
            raise ProfilingError("trace offsets cannot be negative")
        if self.access_size <= 0:
            raise ProfilingError("access size must be positive")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "is_write", writes)

    @property
    def num_accesses(self) -> int:
        """Accesses in the trace."""
        return len(self.offsets)

    @property
    def extent_bytes(self) -> int:
        """Bytes spanned by the traced allocation."""
        return int(self.offsets.max()) + self.access_size

    @property
    def footprint_bytes(self) -> int:
        """Distinct bytes touched."""
        return int(len(np.unique(self.offsets))) * self.access_size

    @property
    def write_fraction(self) -> float:
        """Store share of the trace."""
        return float(np.count_nonzero(self.is_write)) / self.num_accesses

    # ------------------------------------------------------------------
    # loaders
    # ------------------------------------------------------------------

    @classmethod
    def from_addresses(
        cls,
        addresses: np.ndarray,
        is_write: np.ndarray,
        access_size: int = 4,
    ) -> "RecordedTrace":
        """Normalize absolute addresses (rebased to their minimum)."""
        addresses = np.asarray(addresses, dtype=np.int64)
        if len(addresses) == 0:
            raise ProfilingError("a trace needs at least one access")
        return cls(
            offsets=addresses - addresses.min(),
            is_write=np.asarray(is_write, dtype=bool),
            access_size=access_size,
        )

    @classmethod
    def from_csv(cls, source: Union[str, pathlib.Path, io.TextIOBase],
                 access_size: int = 4) -> "RecordedTrace":
        """Load ``offset,rw`` rows (rw: R/W, r/w, 0/1).

        A header row is skipped automatically when its first cell is
        not numeric; a UTF-8 BOM on the first row is stripped.  The
        file is parsed as NumPy structured-array operations (no per-row
        handling); quoted cells, non-ASCII text and an active fault
        injector take the scalar ``csv`` parser, which remains the
        reference.
        """
        if isinstance(source, (str, pathlib.Path)):
            with open(source, "r", newline="") as handle:
                text = handle.read()
        else:
            text = source.read()
        if text.startswith("\ufeff"):
            text = text[1:]
        rows = cls._parse_block(text)
        if len(rows) == 0:
            raise ProfilingError("the CSV contained no trace rows")
        return cls(
            offsets=rows["offset"],
            is_write=rows["write"],
            access_size=access_size,
        )

    @classmethod
    def iter_chunks(
        cls,
        source: Union[str, pathlib.Path, io.TextIOBase],
        chunk_size: int = 65536,
    ):
        """Decode an ``offset,rw`` CSV stream in bounded memory.

        Yields :data:`TRACE_ROW_DTYPE` arrays of exactly ``chunk_size``
        rows (the final chunk may be shorter; a stream whose row count
        is an exact multiple yields no empty tail chunk).  Blocks are
        read a bounded number of characters at a time and parsed with
        the same strict-form NumPy fast path as :meth:`from_csv` — the
        scalar ``csv`` parser remains the per-block fallback (quoted
        cells, non-ASCII text, an active fault injector), so the
        concatenated chunks are row-identical to a whole-file
        :meth:`from_csv` parse, errors included.

        A stream with no trace rows at all raises the same
        :class:`~repro.errors.ProfilingError` as :meth:`from_csv`.
        """
        if chunk_size < 1:
            raise ProfilingError(
                f"chunk_size must be >= 1, got {chunk_size}",
                code="TRACE_BAD_CHUNK",
                details={"chunk_size": chunk_size},
            )
        if isinstance(source, (str, pathlib.Path)):
            with open(source, "r", newline="") as handle:
                yield from cls._iter_chunks(handle, chunk_size)
        else:
            yield from cls._iter_chunks(source, chunk_size)

    @classmethod
    def _iter_chunks(cls, handle: io.TextIOBase, chunk_size: int):
        # Enough characters per read that the NumPy fast path amortizes
        # its setup, bounded so memory stays O(read + chunk), not O(file).
        read_chars = max(1 << 16, min(chunk_size * 16, 1 << 22))
        carry = ""
        first = True
        pending: list = []
        pending_rows = 0
        total_rows = 0
        while True:
            block = handle.read(read_chars)
            if not block:
                break
            text = carry + block
            if first:
                if text.startswith("\ufeff"):
                    text = text[1:]
                first = False
            text, carry = cls._split_complete_lines(text)
            if not text:
                continue
            rows = cls._parse_block(text)
            if len(rows):
                pending.append(rows)
                pending_rows += len(rows)
                total_rows += len(rows)
            while pending_rows >= chunk_size:
                merged = pending[0] if len(pending) == 1 \
                    else np.concatenate(pending)
                yield merged[:chunk_size]
                remainder = merged[chunk_size:]
                pending = [remainder] if len(remainder) else []
                pending_rows = len(remainder)
        if carry:
            rows = cls._parse_block(carry)
            if len(rows):
                pending.append(rows)
                pending_rows += len(rows)
                total_rows += len(rows)
        while pending_rows > 0:
            merged = pending[0] if len(pending) == 1 \
                else np.concatenate(pending)
            yield merged[:chunk_size]
            remainder = merged[chunk_size:]
            pending = [remainder] if len(remainder) else []
            pending_rows = len(remainder)
        if total_rows == 0:
            raise ProfilingError("the CSV contained no trace rows")

    @staticmethod
    def _split_complete_lines(text: str):
        """``(complete, partial)``: everything through the last line
        terminator, and the tail to carry into the next block.

        A block ending in a bare ``\\r`` holds that byte back too — it
        may be the first half of a ``\\r\\n`` pair split across reads.
        """
        cut = text.rfind("\n")
        if cut >= 0:
            head, tail = text[:cut + 1], text[cut + 1:]
        else:
            # \r-only line endings: the final \r might pair with a \n
            # in the next block, so it can never close a line here.
            cut = text.rfind("\r", 0, len(text) - 1)
            if cut < 0:
                return "", text
            head, tail = text[:cut + 1], text[cut + 1:]
        if head.endswith("\r"):
            return head[:-1], "\r" + tail
        return head, tail

    @classmethod
    def _parse_block(cls, text: str) -> np.ndarray:
        """Rows of one block: the NumPy path for unquoted text, the
        scalar reference parser for what it rejects."""
        rows: Optional[np.ndarray] = None
        if '"' not in text:
            rows = cls._parse_csv_vectorized(text)
        if rows is None:
            rows = cls._parse_csv_scalar(io.StringIO(text, newline=""))
        return rows

    @staticmethod
    def _parse_csv_scalar(handle: io.TextIOBase) -> np.ndarray:
        """Reference parser: one ``csv`` row at a time."""
        offsets = []
        writes = []
        for row in csv.reader(handle):
            if not row:
                continue
            first = row[0].strip()
            if not first or not first.lstrip("-").isdigit():
                continue  # header or comment
            if len(row) < 2:
                raise ProfilingError(f"trace row needs offset,rw: {row}")
            offsets.append(int(first))
            flag = row[1].strip().lower()
            writes.append(flag in _WRITE_FLAGS)
        rows = np.empty(len(offsets), dtype=TRACE_ROW_DTYPE)
        rows["offset"] = offsets
        rows["write"] = writes
        return rows

    @staticmethod
    def _parse_csv_vectorized(text: str) -> Optional[np.ndarray]:
        """Whole-file structured-array parse (no per-row handling).

        The file is mapped as one ``uint8`` buffer and decoded with
        array arithmetic: line/comma positions from ``flatnonzero``, a
        running digit count to classify numeric rows, offsets as a
        digit·power-of-ten contraction, and ``rw`` flags as packed
        8-byte keys (:func:`_parse_csv_strict`).  Equivalent to
        :meth:`_parse_csv_scalar` for the inputs it accepts: the same
        rows are skipped as headers or comments, the same rows are
        rejected for missing columns, and the same ``rw`` spellings
        count as stores.  Returns ``None`` for inputs needing the
        scalar parser's generality (non-ASCII text, signs, cells that
        need stripping, offsets past 18 digits) — byte decoding those
        costs more than ``csv`` does, so the reference path is also
        the fast one there.
        """
        if not text.isascii():
            return None
        # csv.reader splits records on \r\n, \r and \n alike.
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        if not text:
            return np.empty(0, dtype=TRACE_ROW_DTYPE)
        if not text.endswith("\n"):
            text += "\n"
        data = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        if (data == 0).any() or (data == ord("-")).any():
            return None
        # The decoder gathers a few bytes past each cell start; the
        # space padding keeps those reads in bounds and the padding
        # indistinguishable from real trailing whitespace.
        padded = np.concatenate(
            [data, np.full(32, ord(" "), dtype=np.uint8)]
        )
        newlines = np.flatnonzero(data == ord("\n"))
        starts = np.concatenate(([0], newlines[:-1] + 1))
        ends = newlines
        commas = np.flatnonzero(data == ord(","))
        c1 = _next_in_range(commas, starts, ends)
        has_comma = c1 < ends

        # Machine-generated traces never mix digits with whitespace on
        # one line, so no cell ever needs stripping; anything else goes
        # back to the scalar parser.
        digit_mask = _DIGIT_LUT[data]
        spacish = _SPACE_LUT[data] & (data != ord("\n"))
        if spacish.any() and bool(
            (
                np.logical_or.reduceat(digit_mask, starts)
                & np.logical_or.reduceat(spacish, starts)
            ).any()
        ):
            return None
        return _parse_csv_strict(
            text, data, padded, starts, ends, commas, c1,
            has_comma, digit_mask,
        )

    @classmethod
    def from_npz(cls, path: Union[str, pathlib.Path]) -> "RecordedTrace":
        """Load a trace saved with :meth:`save_npz`."""
        with np.load(path) as data:
            missing = {"offsets", "is_write"} - set(data.files)
            if missing:
                raise ProfilingError(
                    f"trace file {path} missing arrays: {sorted(missing)}"
                )
            access_size = int(data["access_size"]) if "access_size" in data.files else 4
            return cls(
                offsets=data["offsets"],
                is_write=data["is_write"],
                access_size=access_size,
            )

    def save_npz(self, path: Union[str, pathlib.Path]) -> None:
        """Persist the trace for later replays."""
        np.savez_compressed(
            path,
            offsets=self.offsets,
            is_write=self.is_write,
            access_size=np.int64(self.access_size),
        )


@dataclass(frozen=True)
class TracePattern(PatternSpec):
    """Pattern spec replaying a recorded trace against a buffer."""

    buffer: str
    trace: RecordedTrace
    repeats: int = 1

    def _build(self, streams, buffer: Buffer, line_size: int) -> AccessStream:
        if self.trace.extent_bytes > buffer.size:
            raise ProfilingError(
                f"trace extent ({self.trace.extent_bytes} B) exceeds buffer "
                f"{buffer.name!r} ({buffer.size} B)"
            )
        return AccessStream(
            addresses=buffer.base + self.trace.offsets,
            is_write=self.trace.is_write,
            transaction_size=self.trace.access_size,
            repeats=self.repeats,
            pattern=PatternKind.CUSTOM,
            footprint_bytes=self.trace.footprint_bytes,
        )


def workload_from_trace(
    name: str,
    gpu_trace: RecordedTrace,
    gpu_flops_per_access: float = 2.0,
    cpu_trace: Optional[RecordedTrace] = None,
    cpu_cycles_per_access: float = 1.0,
    iterations: int = 10,
    shared_direction: Direction = Direction.TO_GPU,
    trace_repeats: int = 1,
) -> Workload:
    """Wrap recorded traces into a tunable workload.

    Args:
        name: workload label.
        gpu_trace: the offloaded kernel's memory trace (required).
        gpu_flops_per_access: compute density accompanying the trace
            (folds the kernel's arithmetic into an effective figure).
        cpu_trace: optional trace of the CPU routine.
        cpu_cycles_per_access: CPU compute density.
        iterations: streaming iterations to model.
        shared_direction: how the traced buffer crosses the boundary
            each iteration (drives SC copy accounting).
        trace_repeats: replays of the trace per kernel launch.
    """
    if iterations < 1:
        raise ProfilingError("iterations must be >= 1")
    element = gpu_trace.access_size
    gpu_buffer = BufferSpec(
        name="traced",
        num_elements=-(-gpu_trace.extent_bytes // element),
        element_size=element,
        shared=True,
        direction=shared_direction,
    )
    buffers = [gpu_buffer]
    cpu_task = None
    if cpu_trace is not None:
        cpu_buffer = BufferSpec(
            name="cpu_traced",
            num_elements=-(-cpu_trace.extent_bytes // cpu_trace.access_size),
            element_size=cpu_trace.access_size,
            shared=False,
        )
        buffers.append(cpu_buffer)
        cpu_task = CpuTask(
            name=f"{name}-cpu-replay",
            ops=OpMix({"add": cpu_cycles_per_access * cpu_trace.num_accesses}),
            pattern=TracePattern(buffer="cpu_traced", trace=cpu_trace,
                                 repeats=trace_repeats),
        )
    gpu_kernel = GpuKernel(
        name=f"{name}-gpu-replay",
        ops=OpMix({"fma": gpu_flops_per_access * gpu_trace.num_accesses / 2.0}),
        pattern=TracePattern(buffer="traced", trace=gpu_trace,
                             repeats=trace_repeats),
    )
    return Workload(
        name=name,
        buffers=tuple(buffers),
        cpu_task=cpu_task,
        gpu_kernel=gpu_kernel,
        iterations=iterations,
    )
