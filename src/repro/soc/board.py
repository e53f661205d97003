"""Board configurations and calibrated Jetson presets.

A :class:`BoardConfig` bundles everything the simulator needs to stand
in for one embedded device.  The three presets model the boards the
paper evaluates; their parameters are **calibrated against the paper's
own device measurements** (Table I throughputs, the threshold locations
of Figs. 3 and 6, the copy times of Tables II/IV) rather than invented:

===========  =============  =============  ==============
Table I      ZC (GB/s)      SC (GB/s)      UM (GB/s)
===========  =============  =============  ==============
TX2          1.28           97.34          104.15
Xavier       32.29          214.64         231.14
Nano (†)     1.10           51.20          54.20
===========  =============  =============  ==============

(†) The paper does not publish a Nano row; Fig. 5's caption states the
Nano behaves like the TX2, so the Nano preset is synthesized with
TX2-like coherence behaviour scaled to Maxwell-class bandwidths.  This
substitution is recorded in DESIGN.md.

Key behavioural differences the presets encode (paper §IV-A):

- Nano/TX2 disable the CPU caches too under zero-copy; Xavier keeps
  them enabled thanks to hardware I/O coherence.
- The GPU LL-L1 path under ZC is ~77× slower than SC on TX2 but only
  ~7× slower on Xavier.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.errors import ConfigurationError
from repro.soc.coherence import (
    CoherenceMode,
    FlushCostModel,
    PageMigrationModel,
    ZeroCopyBehavior,
)
from repro.soc.config import CacheConfig, CPUConfig, GPUConfig
from repro.soc.dram import DRAMConfig
from repro.soc.energy import EnergyConfig
from repro.soc.interconnect import InterconnectConfig
from repro.units import gbps, ghz, kib, mib


@dataclass(frozen=True)
class BoardConfig:
    """Complete description of one embedded platform."""

    name: str
    display_name: str
    cpu: CPUConfig
    gpu: GPUConfig
    dram: DRAMConfig
    interconnect: InterconnectConfig
    zero_copy: ZeroCopyBehavior
    flush: FlushCostModel
    page_migration: PageMigrationModel
    energy: EnergyConfig
    copy_engine_bandwidth: float
    um_throughput_factor: float = 1.0
    address_space_bytes: int = 4 * 1024 ** 3  # 4 GiB shared DRAM

    def __post_init__(self) -> None:
        if self.copy_engine_bandwidth <= 0:
            raise ConfigurationError(f"{self.name}: copy bandwidth must be positive")
        if self.um_throughput_factor <= 0:
            raise ConfigurationError(f"{self.name}: UM factor must be positive")
        if self.address_space_bytes <= 0:
            raise ConfigurationError(f"{self.name}: address space must be positive")

    @property
    def io_coherent(self) -> bool:
        """True when ZC keeps the CPU caches on (Xavier-style)."""
        return self.zero_copy.io_coherent


def jetson_tx2() -> BoardConfig:
    """Jetson TX2 preset (Pascal iGPU, no I/O coherence)."""
    cpu = CPUConfig(
        name="tx2-cpu",
        frequency_hz=ghz(2.0),
        l1=CacheConfig(name="cpu-l1", size_bytes=kib(32), line_size=64, ways=4),
        llc=CacheConfig(name="cpu-llc", size_bytes=mib(2), line_size=64, ways=16),
        l1_bandwidth=gbps(48.0),
        llc_bandwidth=gbps(24.0),
        ipc=1.16,
    )
    gpu = GPUConfig(
        name="tx2-gpu",
        frequency_hz=ghz(1.30),
        num_sms=2,
        warp_size=32,
        l1=CacheConfig(name="gpu-l1", size_bytes=kib(48), line_size=64, ways=6),
        llc=CacheConfig(name="gpu-llc", size_bytes=kib(512), line_size=64, ways=16),
        l1_bandwidth=gbps(180.0),
        llc_bandwidth=gbps(97.34),
    )
    return BoardConfig(
        name="tx2",
        display_name="NVIDIA Jetson TX2",
        cpu=cpu,
        gpu=gpu,
        dram=DRAMConfig(peak_bandwidth=gbps(59.7), efficiency=0.75),
        interconnect=InterconnectConfig(total_bandwidth=gbps(59.7) * 0.75),
        zero_copy=ZeroCopyBehavior(
            mode=CoherenceMode.ZC_CACHES_DISABLED,
            gpu_zc_bandwidth=gbps(1.28),
            cpu_zc_bandwidth=gbps(3.2),
            gpu_llc_disabled=True,
            cpu_llc_disabled=True,
            cpu_uncached_latency_s=100e-9,
        ),
        flush=FlushCostModel(),
        page_migration=PageMigrationModel(),
        energy=EnergyConfig(
            static_power_w=2.5,
            cpu_active_power_w=2.0,
            gpu_active_power_w=5.0,
        ),
        copy_engine_bandwidth=gbps(14.0),
        um_throughput_factor=104.15 / 97.34,
    )


def jetson_xavier() -> BoardConfig:
    """Jetson AGX Xavier preset (Volta iGPU, hardware I/O coherence)."""
    cpu = CPUConfig(
        name="xavier-cpu",
        frequency_hz=ghz(2.26),
        l1=CacheConfig(name="cpu-l1", size_bytes=kib(64), line_size=64, ways=4),
        llc=CacheConfig(name="cpu-llc", size_bytes=mib(4), line_size=64, ways=16),
        l1_bandwidth=gbps(96.0),
        llc_bandwidth=gbps(48.0),
        ipc=2.05,
    )
    gpu = GPUConfig(
        name="gpu",
        frequency_hz=ghz(1.377),
        num_sms=8,
        warp_size=32,
        l1=CacheConfig(name="gpu-l1", size_bytes=kib(128), line_size=64, ways=4),
        llc=CacheConfig(name="gpu-llc", size_bytes=kib(512), line_size=64, ways=16),
        l1_bandwidth=gbps(400.0),
        llc_bandwidth=gbps(214.64),
    )
    return BoardConfig(
        name="xavier",
        display_name="NVIDIA Jetson AGX Xavier",
        cpu=cpu,
        gpu=gpu,
        dram=DRAMConfig(peak_bandwidth=gbps(137.0), efficiency=0.75),
        interconnect=InterconnectConfig(total_bandwidth=gbps(137.0) * 0.75),
        zero_copy=ZeroCopyBehavior(
            mode=CoherenceMode.ZC_IO_COHERENT,
            gpu_zc_bandwidth=gbps(32.29),
            cpu_zc_bandwidth=gbps(48.0),
            gpu_llc_disabled=True,
            cpu_llc_disabled=False,
            snoop_latency_s=0.4e-6,
        ),
        flush=FlushCostModel(),
        page_migration=PageMigrationModel(),
        energy=EnergyConfig(
            static_power_w=5.0,
            cpu_active_power_w=4.0,
            gpu_active_power_w=10.0,
        ),
        copy_engine_bandwidth=gbps(18.5),
        um_throughput_factor=231.14 / 214.64,
    )


def jetson_nano() -> BoardConfig:
    """Jetson Nano preset (Maxwell iGPU; TX2-like coherence behaviour).

    The paper omits the Nano from Table I and Fig. 5 because "the
    results on the Nano are equivalent to those of the TX2"; this preset
    is the TX2 coherence behaviour scaled to Maxwell-class bandwidths.
    """
    cpu = CPUConfig(
        name="nano-cpu",
        frequency_hz=ghz(1.43),
        l1=CacheConfig(name="cpu-l1", size_bytes=kib(32), line_size=64, ways=4),
        llc=CacheConfig(name="cpu-llc", size_bytes=mib(2), line_size=64, ways=16),
        l1_bandwidth=gbps(32.0),
        llc_bandwidth=gbps(16.0),
        ipc=0.55,
    )
    gpu = GPUConfig(
        name="nano-gpu",
        frequency_hz=ghz(0.9216),
        num_sms=1,
        warp_size=32,
        l1=CacheConfig(name="gpu-l1", size_bytes=kib(48), line_size=64, ways=6),
        llc=CacheConfig(name="gpu-llc", size_bytes=kib(256), line_size=64, ways=16),
        l1_bandwidth=gbps(96.0),
        llc_bandwidth=gbps(51.2),
    )
    return BoardConfig(
        name="nano",
        display_name="NVIDIA Jetson Nano",
        cpu=cpu,
        gpu=gpu,
        dram=DRAMConfig(peak_bandwidth=gbps(25.6), efficiency=0.75),
        interconnect=InterconnectConfig(total_bandwidth=gbps(25.6) * 0.75),
        zero_copy=ZeroCopyBehavior(
            mode=CoherenceMode.ZC_CACHES_DISABLED,
            gpu_zc_bandwidth=gbps(1.10),
            cpu_zc_bandwidth=gbps(1.6),
            gpu_llc_disabled=True,
            cpu_llc_disabled=True,
            cpu_uncached_latency_s=340e-9,
        ),
        flush=FlushCostModel(),
        page_migration=PageMigrationModel(),
        energy=EnergyConfig(
            static_power_w=1.5,
            cpu_active_power_w=1.5,
            gpu_active_power_w=3.5,
        ),
        copy_engine_bandwidth=gbps(7.0),
        um_throughput_factor=54.2 / 51.2,
    )


_REGISTRY: Dict[str, Callable[[], BoardConfig]] = {
    "nano": jetson_nano,
    "tx2": jetson_tx2,
    "xavier": jetson_xavier,
}


def available_boards() -> List[str]:
    """Names accepted by :func:`get_board`."""
    return sorted(_REGISTRY)


def get_board(name: str) -> BoardConfig:
    """Build a board preset by name (case-insensitive)."""
    key = name.lower()
    try:
        return _REGISTRY[key]()
    except KeyError:
        raise ConfigurationError(
            f"unknown board {name!r}; available: {', '.join(available_boards())}"
        ) from None


def register_board(name: str, factory: Callable[[], BoardConfig]) -> None:
    """Register a custom board preset (e.g. a hypothetical device for
    ablation studies).  Overwriting a built-in name is rejected."""
    key = name.lower()
    if key in _REGISTRY:
        raise ConfigurationError(f"board {name!r} already registered")
    _REGISTRY[key] = factory


# ----------------------------------------------------------------------
# synthetic variants (the design-space explorer's board generator)
# ----------------------------------------------------------------------

#: Coherence-mode choices accepted by :func:`derive_board`.
COHERENCE_CHOICES = ("inherit", "io_coherent", "caches_disabled")

#: Snoop latency a synthesized I/O-coherent variant inherits when its
#: base was not I/O coherent (the Xavier preset's measured value).
_DEFAULT_SNOOP_LATENCY_S = 0.4e-6

#: CPU uncached-path latency a synthesized caches-disabled variant
#: inherits when its base kept the CPU caches on (the TX2's value).
_DEFAULT_CPU_UNCACHED_LATENCY_S = 100e-9


def _is_power_of_two(value: float) -> bool:
    ivalue = int(value)
    if ivalue != value or ivalue <= 0:
        # Fractions 1/2^k scale a power-of-two geometry legally too.
        inverse = 1.0 / value if value > 0 else 0.0
        return inverse > 0 and inverse == int(inverse) and \
            int(inverse) & (int(inverse) - 1) == 0
    return ivalue & (ivalue - 1) == 0


def _with_coherence(zero_copy: ZeroCopyBehavior,
                    coherence: str) -> ZeroCopyBehavior:
    """The base board's ZC behaviour re-expressed under ``coherence``."""
    if coherence == "inherit":
        return zero_copy
    if coherence == "io_coherent":
        return ZeroCopyBehavior(
            mode=CoherenceMode.ZC_IO_COHERENT,
            gpu_zc_bandwidth=zero_copy.gpu_zc_bandwidth,
            cpu_zc_bandwidth=zero_copy.cpu_zc_bandwidth,
            gpu_llc_disabled=True,
            cpu_llc_disabled=False,
            snoop_latency_s=zero_copy.snoop_latency_s
            or _DEFAULT_SNOOP_LATENCY_S,
            cpu_uncached_latency_s=zero_copy.cpu_uncached_latency_s,
        )
    if coherence == "caches_disabled":
        return ZeroCopyBehavior(
            mode=CoherenceMode.ZC_CACHES_DISABLED,
            gpu_zc_bandwidth=zero_copy.gpu_zc_bandwidth,
            cpu_zc_bandwidth=zero_copy.cpu_zc_bandwidth,
            gpu_llc_disabled=True,
            cpu_llc_disabled=True,
            snoop_latency_s=0.0,
            cpu_uncached_latency_s=zero_copy.cpu_uncached_latency_s
            or _DEFAULT_CPU_UNCACHED_LATENCY_S,
        )
    raise ConfigurationError(
        f"unknown coherence mode {coherence!r}; expected one of "
        f"{COHERENCE_CHOICES}"
    )


def derive_board(
    base: BoardConfig,
    name: str,
    dram_bandwidth: float = 1.0,
    gpu_clock: float = 1.0,
    cpu_clock: float = 1.0,
    zc_bandwidth: float = 1.0,
    llc_size: float = 1.0,
    coherence: str = "inherit",
    display_name: str = "",
) -> BoardConfig:
    """A synthetic variant of ``base`` scaled along the explorer's axes.

    The scale factors are multiplicative against the base preset and
    each one moves every field that physically co-varies with it:
    ``dram_bandwidth`` scales the DRAM pins *and* the fabric,
    ``gpu_clock``/``cpu_clock`` scale a core's frequency together with
    its cache bandwidths (on-chip SRAM runs in the core clock domain),
    ``zc_bandwidth`` scales both zero-copy paths, and ``llc_size``
    (a power of two, so the set count stays a mask) scales both LLCs.
    ``coherence`` rewrites the ZC behaviour to the Xavier-style
    I/O-coherent variant or the Nano/TX2 caches-disabled variant.

    Deterministic: same base + same factors ⇒ an identical (frozen,
    fully validated) :class:`BoardConfig`.
    """
    for label, factor in (("dram_bandwidth", dram_bandwidth),
                          ("gpu_clock", gpu_clock),
                          ("cpu_clock", cpu_clock),
                          ("zc_bandwidth", zc_bandwidth),
                          ("llc_size", llc_size)):
        if factor <= 0:
            raise ConfigurationError(
                f"{name}: {label} scale must be positive, got {factor}"
            )
    if not _is_power_of_two(llc_size):
        raise ConfigurationError(
            f"{name}: llc_size scale must be a power of two (the set "
            f"count must stay a mask), got {llc_size}"
        )
    cpu = dataclasses.replace(
        base.cpu,
        frequency_hz=base.cpu.frequency_hz * cpu_clock,
        l1_bandwidth=base.cpu.l1_bandwidth * cpu_clock,
        llc_bandwidth=base.cpu.llc_bandwidth * cpu_clock,
        llc=dataclasses.replace(
            base.cpu.llc, size_bytes=int(base.cpu.llc.size_bytes * llc_size)
        ),
    )
    gpu = dataclasses.replace(
        base.gpu,
        frequency_hz=base.gpu.frequency_hz * gpu_clock,
        l1_bandwidth=base.gpu.l1_bandwidth * gpu_clock,
        llc_bandwidth=base.gpu.llc_bandwidth * gpu_clock,
        llc=dataclasses.replace(
            base.gpu.llc, size_bytes=int(base.gpu.llc.size_bytes * llc_size)
        ),
    )
    zero_copy = dataclasses.replace(
        _with_coherence(base.zero_copy, coherence),
        gpu_zc_bandwidth=base.zero_copy.gpu_zc_bandwidth * zc_bandwidth,
        cpu_zc_bandwidth=base.zero_copy.cpu_zc_bandwidth * zc_bandwidth,
    )
    return dataclasses.replace(
        base,
        name=name,
        display_name=display_name or f"{base.display_name} [{name}]",
        cpu=cpu,
        gpu=gpu,
        dram=dataclasses.replace(
            base.dram, peak_bandwidth=base.dram.peak_bandwidth * dram_bandwidth
        ),
        interconnect=dataclasses.replace(
            base.interconnect,
            total_bandwidth=base.interconnect.total_bandwidth * dram_bandwidth,
        ),
        zero_copy=zero_copy,
    )
