"""Micro-benchmarks: device characterization (paper §III-B).

Three micro-benchmarks extrapolate the device characteristics the
performance model needs:

- :class:`FirstMicroBenchmark` — peak GPU LL-L1 cache throughput per
  communication model (Table I) and the per-task execution times of
  Fig. 5.
- :class:`SecondMicroBenchmark` — the fraction sweep yielding the
  cache-usage thresholds and zones (Figs. 3 and 6).
- :class:`ThirdMicroBenchmark` — balanced overlapped CPU+GPU execution
  giving the device-level max speedups (Fig. 7).

:class:`MicrobenchmarkSuite` runs all three and assembles a
:class:`~repro.model.device.DeviceCharacterization`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.microbench.base": ("MicroBenchmark",),
    "repro.microbench.first": ("FirstBenchResult", "FirstMicroBenchmark"),
    "repro.microbench.second": ("SecondBenchResult", "SecondMicroBenchmark"),
    "repro.microbench.third": ("ThirdBenchResult", "ThirdMicroBenchmark"),
    "repro.microbench.suite": ("MicrobenchmarkSuite",),
})

__all__ = [
    "MicroBenchmark",
    "FirstMicroBenchmark",
    "FirstBenchResult",
    "SecondMicroBenchmark",
    "SecondBenchResult",
    "ThirdMicroBenchmark",
    "ThirdBenchResult",
    "MicrobenchmarkSuite",
]
