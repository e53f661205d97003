"""Simulator workload of the SH-WFS centroid-extraction application.

Maps the functional pipeline (:mod:`repro.apps.shwfs.pipeline`) onto
the workload IR the tuning framework profiles.  The shape parameters
are derived from the algorithm and calibrated against the paper's
Table II profile:

- the camera frame is 320×240 float32 (307 KB) — the copied payload
  that reproduces the paper's per-kernel copy times on the three
  boards' copy engines;
- the GPU centroid kernel streams the prepared frame once (coalesced,
  no reuse — GPU cache usage is low: 1.7-7 % in Table II) and writes
  one centroid pair per subaperture; its effective FLOP count folds
  real reduction-kernel inefficiency (divergence, atomics) and is
  calibrated to the paper's kernel times (453/175/41 µs);
- the CPU routine's hot loop walks a 48 KB calibration table
  (reference centers + gain map, shared with the GPU) with a sub-line
  stride, three passes per frame: the footprint exceeds a 32 KB L1
  (Nano/TX2 → ~19 % LLC usage, matching Table II's 19.8 %) but fits a
  64 KB L1 (Xavier → ~6 %, matching 6.1 %).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.shwfs.config import ShwfsOptics
from repro.kernels.ops import OpMix
from repro.kernels.patterns import LinearPattern, StridedPattern
from repro.kernels.task import CpuTask, GpuKernel
from repro.kernels.workload import BufferSpec, Direction, Workload

#: Camera frame geometry: the functional pipeline's default sensor.
_SENSOR = ShwfsOptics()

#: Calibration table the CPU hot loop walks (bytes).
CALIB_TABLE_BYTES = 48 * 1024

#: Sub-line stride (elements of 4 bytes) of the hot loop: 12-byte
#: steps touch every cache line ~5.3 times.
CALIB_STRIDE_ELEMENTS = 3

#: Hot-loop passes per frame.
CALIB_PASSES = 3

#: Effective GPU work per pixel (fma+add pairs), calibrated to the
#: paper's kernel times on all three boards simultaneously.
GPU_FMA_PER_PIXEL = 247.0

#: CPU preprocessing work per pixel (background subtract + threshold).
CPU_OPS_PER_PIXEL = {"mul": 1.2, "add": 1.2}

#: Per-frame time of the application stages outside the profiled
#: routine/kernel/transfers (camera acquisition, bookkeeping, control
#: output).  Calibrated per board from the paper's Table III totals:
#: total − (CPU + kernel + copy) under SC.
FIXED_OVERHEAD_S = {
    "nano": 280e-6,
    "tx2": 467e-6,
    "xavier": 181e-6,
}


@dataclass(frozen=True)
class ShwfsWorkloadConfig:
    """Knobs of the generated workload."""

    width: int = _SENSOR.image_width
    height: int = _SENSOR.image_height
    subaperture_px: int = _SENSOR.subaperture_px
    frames: int = 100
    overlappable: bool = True
    #: Board whose calibrated fixed overhead to apply ("" → none).
    board_name: str = ""

    @property
    def pixels(self) -> int:
        """Pixels per frame."""
        return self.width * self.height

    @property
    def num_subapertures(self) -> int:
        """Lenslet count."""
        return (self.width // self.subaperture_px) * (
            self.height // self.subaperture_px
        )


def build_shwfs_workload(config: ShwfsWorkloadConfig = ShwfsWorkloadConfig()) -> Workload:
    """The calibrated SH-WFS workload for the tuning framework."""
    pixels = config.pixels
    frame = BufferSpec(
        name="frame",
        num_elements=pixels,
        element_size=4,
        shared=True,
        direction=Direction.TO_GPU,
    )
    calib = BufferSpec(
        name="calib",
        num_elements=CALIB_TABLE_BYTES // 4,
        element_size=4,
        shared=True,
        direction=Direction.TO_GPU,
    )
    centroids = BufferSpec(
        name="centroids",
        num_elements=max(2, config.num_subapertures * 2),
        element_size=4,
        shared=True,
        direction=Direction.TO_CPU,
    )
    cpu_task = CpuTask(
        name="preprocess",
        ops=OpMix.per_element(CPU_OPS_PER_PIXEL, pixels),
        pattern=StridedPattern(
            buffer="calib",
            stride_elements=CALIB_STRIDE_ELEMENTS,
            repeats=CALIB_PASSES,
        ),
    )
    gpu_kernel = GpuKernel(
        name="centroid-extraction",
        ops=OpMix.per_element({"fma": GPU_FMA_PER_PIXEL, "add": GPU_FMA_PER_PIXEL}, pixels),
        pattern=LinearPattern(buffer="frame", read_write_pairs=False),
        extra_patterns=(
            LinearPattern(buffer="centroids", read_write_pairs=False, write=True),
        ),
    )
    return Workload(
        name="shwfs-centroid",
        buffers=(frame, calib, centroids),
        cpu_task=cpu_task,
        gpu_kernel=gpu_kernel,
        iterations=config.frames,
        overlappable=config.overlappable,
        fixed_iteration_overhead_s=FIXED_OVERHEAD_S.get(
            config.board_name.lower(), 0.0
        ),
    )
