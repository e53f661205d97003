"""Trace-driven workloads."""

import io

import numpy as np
import pytest

from repro.errors import ProfilingError
from repro.kernels.workload import Direction
from repro.model.framework import Framework
from repro.profiling.trace import (
    RecordedTrace,
    TracePattern,
    workload_from_trace,
)
from repro.soc.address import MemoryRegion, RegionKind
from repro.soc.board import get_board


def sequential_trace(n=1024, access_size=4, write_every=0):
    offsets = np.arange(n, dtype=np.int64) * access_size
    writes = np.zeros(n, dtype=bool)
    if write_every:
        writes[write_every - 1 :: write_every] = True
    return RecordedTrace(offsets=offsets, is_write=writes,
                         access_size=access_size)


class TestRecordedTrace:
    def test_properties(self):
        trace = sequential_trace(100, write_every=2)
        assert trace.num_accesses == 100
        assert trace.extent_bytes == 400
        assert trace.footprint_bytes == 400
        assert trace.write_fraction == pytest.approx(0.5)

    def test_from_addresses_rebases(self):
        trace = RecordedTrace.from_addresses(
            np.array([0x7000_1000, 0x7000_1004]),
            np.array([False, True]),
        )
        assert trace.offsets.tolist() == [0, 4]

    def test_validation(self):
        with pytest.raises(ProfilingError):
            RecordedTrace(offsets=np.array([]), is_write=np.array([]))
        with pytest.raises(ProfilingError):
            RecordedTrace(offsets=np.array([-4]), is_write=np.array([False]))
        with pytest.raises(ProfilingError):
            RecordedTrace(offsets=np.array([0]), is_write=np.array([False]),
                          access_size=0)


class TestLoaders:
    def test_csv_round_trip(self):
        text = "offset,rw\n0,R\n4,W\n8,r\n64,w\n"
        trace = RecordedTrace.from_csv(io.StringIO(text))
        assert trace.offsets.tolist() == [0, 4, 8, 64]
        assert trace.is_write.tolist() == [False, True, False, True]

    def test_csv_numeric_rw(self):
        trace = RecordedTrace.from_csv(io.StringIO("0,0\n4,1\n"))
        assert trace.is_write.tolist() == [False, True]

    def test_csv_empty_rejected(self):
        with pytest.raises(ProfilingError):
            RecordedTrace.from_csv(io.StringIO("offset,rw\n"))

    def test_csv_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("0,R\n128,W\n")
        trace = RecordedTrace.from_csv(path)
        assert trace.num_accesses == 2

    def test_npz_round_trip(self, tmp_path):
        original = sequential_trace(64, write_every=4)
        path = tmp_path / "trace.npz"
        original.save_npz(path)
        loaded = RecordedTrace.from_npz(path)
        assert np.array_equal(loaded.offsets, original.offsets)
        assert np.array_equal(loaded.is_write, original.is_write)
        assert loaded.access_size == original.access_size

    def test_npz_missing_arrays(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, offsets=np.array([0]))
        with pytest.raises(ProfilingError):
            RecordedTrace.from_npz(path)


class TestTracePattern:
    def test_replay_addresses(self):
        region = MemoryRegion(name="r", base=0x4000, size=1 << 20,
                              kind=RegionKind.PINNED)
        buffer = region.allocate("traced", 8192, element_size=4)
        trace = sequential_trace(16)
        stream = TracePattern(buffer="traced", trace=trace).build(
            {"traced": buffer}, 64
        )
        assert stream.addresses[0] == buffer.base
        assert stream.addresses[-1] == buffer.base + 60
        assert stream.region_kind is RegionKind.PINNED

    def test_oversized_trace_rejected(self):
        region = MemoryRegion(name="r", base=0, size=1 << 20,
                              kind=RegionKind.PINNED)
        buffer = region.allocate("traced", 16, element_size=4)
        trace = sequential_trace(1024)
        with pytest.raises(ProfilingError):
            TracePattern(buffer="traced", trace=trace).build(
                {"traced": buffer}, 64
            )


class TestWorkloadFromTrace:
    def test_gpu_only_workload(self):
        workload = workload_from_trace("traced-app", sequential_trace(4096))
        assert workload.gpu_kernel is not None
        assert workload.cpu_task is None
        assert workload.buffer("traced").shared

    def test_with_cpu_trace(self):
        workload = workload_from_trace(
            "traced-app", sequential_trace(4096),
            cpu_trace=sequential_trace(512),
        )
        assert workload.cpu_task is not None
        assert not workload.buffer("cpu_traced").shared

    def test_tunable_end_to_end(self):
        """A recorded trace flows through the whole Fig-2 pipeline."""
        workload = workload_from_trace(
            "traced-app", sequential_trace(8192, write_every=2),
            gpu_flops_per_access=8.0, iterations=4,
        )
        report = Framework().tune(workload, get_board("tx2"))
        assert report.recommendation is not None
        assert report.profile.gpu_transactions > 0

    def test_resident_direction_skips_copies(self):
        workload = workload_from_trace(
            "traced-app", sequential_trace(1024),
            shared_direction=Direction.RESIDENT,
        )
        assert workload.copied_bytes_per_iteration == 0

    def test_iterations_validated(self):
        with pytest.raises(ProfilingError):
            workload_from_trace("x", sequential_trace(16), iterations=0)


# ----------------------------------------------------------------------
# vectorized CSV decoder vs the csv-module reference
# ----------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.robustness.faults import FaultPlan
from repro.robustness.inject import inject_faults


def scalar_trace(text, access_size=4):
    """``text`` decoded by the csv-module reference parser alone."""
    if text.startswith("\ufeff"):
        text = text[1:]
    rows = RecordedTrace._parse_csv_scalar(io.StringIO(text, newline=""))
    if len(rows) == 0:
        raise ProfilingError("the CSV contained no trace rows")
    return RecordedTrace(offsets=rows["offset"], is_write=rows["write"],
                         access_size=access_size)


def parse_both(text, access_size=4):
    fast = RecordedTrace.from_csv(io.StringIO(text), access_size=access_size)
    return fast, scalar_trace(text, access_size)


EDGE_CASE_TEXTS = (
    "offset,rw\n0,R\n4,W\n8,r\n64,w\n",       # plain
    "0,0\n4,1\n",                             # numeric flags
    "\n\noffset,rw\n\n12,w\n\n8,r\n",         # blank lines everywhere
    "offset,rw\r\n16,W\r\n20,R\r\n",          # CRLF endings
    "0,R\r4,W\r",                             # bare-CR endings
    "﻿offset,rw\n0,w\n",                 # UTF-8 BOM
    " 8 , W \n 12 , r \n",                    # padded cells
    "08,w\n012,R\n",                          # leading zeros
    "# trace dump\n0,r\n4,w\n",               # non-numeric first line
    "0,r,extra,cols\n4,w,x\n",                # extra columns ignored
    "0,write\n4,read\n8,st\n12,ld\n",         # long flag spellings
    "0,R\n4,W",                               # no trailing newline
    "999999999999999999,w\n0,r\n",            # 18-digit offset
    '"0","W"\n"4","r"\n',                     # quoted cells
)


class TestVectorizedCsv:
    @pytest.mark.parametrize("text", EDGE_CASE_TEXTS)
    def test_equivalent_to_scalar(self, text):
        fast, slow = parse_both(text)
        assert fast.offsets.tolist() == slow.offsets.tolist()
        assert fast.is_write.tolist() == slow.is_write.tolist()
        assert fast.access_size == slow.access_size

    @pytest.mark.parametrize("text", [
        "5\n0,r\n",            # row missing the rw cell
        "0,r\n7\n",            # ...in any position
    ])
    def test_short_row_error_identical(self, text):
        with pytest.raises(ProfilingError) as fast_err:
            RecordedTrace.from_csv(io.StringIO(text))
        with pytest.raises(ProfilingError) as slow_err:
            scalar_trace(text)
        assert str(fast_err.value) == str(slow_err.value)

    @pytest.mark.parametrize("text", [
        "-4,r\n",                       # negative offset
        "--5,w\n",
        "18446744073709551615,w\n",     # > int64
        "offset,rw\n",                  # no data rows
        "",                             # empty file
    ])
    def test_rejections_raise_same_type(self, text):
        rejected = (ProfilingError, OverflowError, ValueError)
        with pytest.raises(rejected) as fast_err:
            RecordedTrace.from_csv(io.StringIO(text))
        with pytest.raises(rejected) as slow_err:
            scalar_trace(text)
        assert type(fast_err.value) is type(slow_err.value)

    def test_injection_uses_scalar_path(self):
        text = "0,R\n4,W\n8,r\n"
        clean = scalar_trace(text)
        with inject_faults(FaultPlan(seed=0)):
            injected = RecordedTrace.from_csv(io.StringIO(text))
        assert injected.offsets.tolist() == clean.offsets.tolist()
        assert injected.is_write.tolist() == clean.is_write.tolist()

    @given(
        offsets=st.lists(
            st.integers(min_value=0, max_value=10 ** 17),
            min_size=1, max_size=60,
        ),
        flags=st.lists(
            st.sampled_from(["r", "w", "R", "W", "0", "1", "read", "write",
                             "st", "ld", "true", "false"]),
            min_size=1, max_size=60,
        ),
        header=st.booleans(),
        crlf=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_random_traces_agree(self, offsets, flags, header, crlf):
        rows = [f"{o},{f}" for o, f in zip(offsets, flags)]
        text = ("offset,rw\n" if header else "") + "\n".join(rows) + "\n"
        if crlf:
            text = text.replace("\n", "\r\n")
        fast, slow = parse_both(text)
        assert fast.offsets.tolist() == slow.offsets.tolist()
        assert fast.is_write.tolist() == slow.is_write.tolist()

    @given(
        n=st.integers(min_value=1, max_value=200),
        access_size=st.sampled_from([1, 4, 8, 64]),
        seed=st.integers(min_value=0, max_value=2 ** 31),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_npz_round_trip(self, tmp_path_factory, n, access_size,
                                     seed):
        rng = np.random.default_rng(seed)
        original = RecordedTrace(
            offsets=rng.integers(0, 1 << 40, size=n).astype(np.int64),
            is_write=rng.random(n) < 0.5,
            access_size=access_size,
        )
        path = tmp_path_factory.mktemp("npz") / "trace.npz"
        original.save_npz(path)
        loaded = RecordedTrace.from_npz(path)
        assert np.array_equal(loaded.offsets, original.offsets)
        assert np.array_equal(loaded.is_write, original.is_write)
        assert loaded.access_size == original.access_size
