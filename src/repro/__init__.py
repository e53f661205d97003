"""repro — a reproduction of *A Framework for Optimizing CPU-iGPU
Communication on Embedded Platforms* (Lumpp, Patel, Bombieri, DAC 2021).

The package provides:

- a transaction-level simulator of embedded CPU+iGPU SoCs with shared
  DRAM, calibrated Jetson Nano/TX2/AGX-Xavier presets (:mod:`repro.soc`);
- the paper's three communication models — standard copy, unified
  memory, zero-copy — as executors (:mod:`repro.comm`), including the
  tiled zero-copy pattern of Fig. 4;
- the micro-benchmarks (:mod:`repro.microbench`), performance model and
  decision flow (:mod:`repro.model`), and profiler
  (:mod:`repro.profiling`);
- the two case-study applications: Shack-Hartmann wavefront-sensor
  centroid extraction and an ORB feature pipeline (:mod:`repro.apps`).

Quick start::

    from repro import Framework, get_board

    framework = Framework()
    device = framework.characterize(get_board("xavier"))
    print(device.gpu_threshold_pct, device.zc_sc_throughput_ratio)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.comm.base": ("get_model",),
    "repro.comm.report": ("ExecutionReport",),
    "repro.kernels.ops": ("OpMix",),
    "repro.kernels.task": ("CpuTask", "GpuKernel"),
    "repro.kernels.workload": ("BufferSpec", "Workload"),
    "repro.microbench.first": ("FirstMicroBenchmark",),
    "repro.microbench.second": ("SecondMicroBenchmark",),
    "repro.microbench.third": ("ThirdMicroBenchmark",),
    "repro.microbench.suite": ("MicrobenchmarkSuite",),
    "repro.model.framework": ("Framework", "TuningReport"),
    "repro.model.decision": ("Recommendation", "decide"),
    "repro.model.device": ("DeviceCharacterization",),
    "repro.profiling.counters": ("AppProfile",),
    "repro.profiling.profiler": ("Profiler",),
    "repro.soc.stream": ("AccessStream",),
    "repro.soc.board": ("BoardConfig", "available_boards", "get_board",
                        "jetson_nano", "jetson_tx2", "jetson_xavier"),
    "repro.soc.soc": ("SoC",),
})

__all__ = [
    "ExecutionReport",
    "get_model",
    "BufferSpec",
    "CpuTask",
    "GpuKernel",
    "OpMix",
    "Workload",
    "FirstMicroBenchmark",
    "SecondMicroBenchmark",
    "ThirdMicroBenchmark",
    "MicrobenchmarkSuite",
    "Framework",
    "Recommendation",
    "TuningReport",
    "decide",
    "DeviceCharacterization",
    "AppProfile",
    "Profiler",
    "AccessStream",
    "BoardConfig",
    "SoC",
    "available_boards",
    "get_board",
    "jetson_nano",
    "jetson_tx2",
    "jetson_xavier",
    "__version__",
]
