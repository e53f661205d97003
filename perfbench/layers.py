"""The layer entry points the traced run wraps, and the per-layer metrics.

Each entry names the public function a layer exposes and the span name
its calls are recorded under.  ``LAYER_METRICS`` lists every per-layer
metric in the order ``BENCHMARK.json`` declares them; ``README.md`` in
this directory says which end-to-end metric each one should move.
"""

from __future__ import annotations

from typing import Dict, Tuple

from spans import Tracer

#: metric name -> (kind, source).  Kinds: ``self`` (total self seconds of
#: the span name), ``calls`` (span count), ``ratio`` / ``serve`` /
#: ``import`` (computed by :func:`layer_metrics`).
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "cli.import_s": ("import", ""),
    "cli.run_s": ("self", "cli.run"),
    "perf.cache.key_s": ("self", "perf.cache.key"),
    "perf.cache.load_s": ("self", "perf.cache.load"),
    "perf.cache.store_s": ("self", "perf.cache.store"),
    "perf.cache.hit_ratio": ("ratio", "cache_hits"),
    "microbench.mb1_s": ("self", "microbench.mb1"),
    "microbench.mb2_s": ("self", "microbench.mb2"),
    "microbench.mb3_s": ("self", "microbench.mb3"),
    "microbench.suite_runs": ("calls", "microbench.suite"),
    "soc.hierarchy.process_s.analytic":
        ("self", "soc.hierarchy.process.analytic"),
    "soc.hierarchy.process_s.simulated":
        ("self", "soc.hierarchy.process.simulated"),
    "soc.hierarchy.process_summaries_s":
        ("self", "soc.hierarchy.process_summaries"),
    "comm.execute_s.SC": ("self", "comm.execute.SC"),
    "comm.execute_s.UM": ("self", "comm.execute.UM"),
    "comm.execute_s.ZC": ("self", "comm.execute.ZC"),
    "profiling.profile_s": ("self", "profiling.profile"),
    "profiling.profile_calls": ("calls", "profiling.profile"),
    "profiling.repeat_ratio": ("ratio", "profile_repeats"),
    "model.decide_s": ("self", "model.decide"),
    "model.decide_calls": ("calls", "model.decide"),
    "model.retune_s": ("self", "model.retune"),
    "serve.wait_s": ("serve", "wait_s"),
    "serve.service_s": ("serve", "service_s"),
    "serve.batch_size": ("serve", "batch_size"),
    "serve.coalesced_ratio": ("serve", "coalesced_ratio"),
    "serve.shed": ("serve", "shed"),
    "stream.window.push_s": ("self", "stream.window.push"),
    "stream.source.to_profile_s": ("self", "stream.source.to_profile"),
    "stream.source.usage_series_s": ("self", "stream.source.usage_series"),
    "stream.drift.update_s": ("self", "stream.drift.update"),
    "profiling.trace.decode_s": ("self", "profiling.trace.decode"),
    "stream.source.features_s": ("self", "stream.source.features"),
    "obs.report.from_tuning_s": ("self", "obs.report.from_tuning"),
}

#: Units of the per-layer metrics, by kind.
KIND_UNITS = {"self": "s", "calls": "count", "ratio": "ratio",
              "import": "s"}
SERVE_UNITS = {"wait_s": "s", "service_s": "s", "batch_size": "count",
               "coalesced_ratio": "ratio", "shed": "count"}


def unit_of(metric: str) -> str:
    kind, source = LAYER_METRICS[metric]
    return SERVE_UNITS[source] if kind == "serve" else KIND_UNITS[kind]


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point (undone by ``tracer.uninstall``)."""
    import repro.cli
    import repro.model.decision
    import repro.perf.cache
    from repro.comm.standard_copy import StandardCopyModel
    from repro.comm.unified_memory import UnifiedMemoryModel
    from repro.comm.zero_copy import ZeroCopyModel
    from repro.microbench.first import FirstMicroBenchmark
    from repro.microbench.second import SecondMicroBenchmark
    from repro.microbench.suite import MicrobenchmarkSuite
    from repro.microbench.third import ThirdMicroBenchmark
    from repro.model.framework import Framework
    from repro.obs.report import TuneReport
    from repro.perf.cache import ShardedCharacterizationStore
    from repro.profiling.profiler import Profiler
    from repro.profiling.trace import RecordedTrace
    from repro.soc.hierarchy import CacheHierarchy
    from repro.stream.drift import DriftDetector
    from repro.stream.engine import StreamTuner
    from repro.stream.sources import CounterWindowSource, TraceWindowSource
    from repro.stream.window import SlidingWindow

    notes = tracer.notes

    tracer.wrap_function(repro.cli, "main", "cli.run")
    tracer.wrap_function(repro.perf.cache, "cache_key", "perf.cache.key")
    tracer.wrap_function(repro.model.decision, "decide", "model.decide")
    tracer.wrap_method(
        ShardedCharacterizationStore, "load", "perf.cache.load",
        result_hook=lambda device: notes["cache_hits"].append(
            device is not None))
    tracer.wrap_method(ShardedCharacterizationStore, "store",
                       "perf.cache.store")
    tracer.wrap_method(MicrobenchmarkSuite, "run_all", "microbench.suite")
    tracer.wrap_method(FirstMicroBenchmark, "run", "microbench.mb1")
    tracer.wrap_method(SecondMicroBenchmark, "run", "microbench.mb2")
    tracer.wrap_method(ThirdMicroBenchmark, "run", "microbench.mb3")
    tracer.wrap_method(
        CacheHierarchy, "process",
        lambda a, k: f"soc.hierarchy.process.{a[0].backend.name}")
    tracer.wrap_method(CacheHierarchy, "process_summaries",
                       "soc.hierarchy.process_summaries")
    for cls, model in ((StandardCopyModel, "SC"), (UnifiedMemoryModel, "UM"),
                       (ZeroCopyModel, "ZC")):
        tracer.wrap_method(cls, "execute", f"comm.execute.{model}")

    seen_profiles = set()

    def observe_profile(args, kwargs):
        profiler, workload = args[0], args[1]
        model = kwargs.get("model", args[2] if len(args) > 2 else "SC")
        key = (workload.name, profiler.soc.board.name, str(model).upper(),
               profiler.soc.backend.name)
        notes["profile_repeats"].append(key in seen_profiles)
        seen_profiles.add(key)

    tracer.wrap_method(Profiler, "profile", "profiling.profile",
                       observe=observe_profile)
    tracer.wrap_method(Framework, "tune", "framework.tune")
    tracer.wrap_method(Framework, "retune", "model.retune")
    tracer.wrap_method(TuneReport, "from_tuning", "obs.report.from_tuning")
    tracer.wrap_method(StreamTuner, "run", "stream.run")
    tracer.wrap_method(SlidingWindow, "push", "stream.window.push")
    tracer.wrap_method(DriftDetector, "update", "stream.drift.update")
    for cls in (CounterWindowSource, TraceWindowSource):
        tracer.wrap_method(cls, "to_profile", "stream.source.to_profile")
        tracer.wrap_method(cls, "usage_series",
                           "stream.source.usage_series")
        tracer.wrap_method(cls, "feature_chunks", "stream.source.features")
    tracer.wrap_method(RecordedTrace, "iter_chunks", "profiling.trace.decode")


def _ratio(flags) -> float:
    return sum(flags) / len(flags) if flags else 0.0


def layer_metrics(tracer: Tracer, serve_answers, import_s: float
                  ) -> Dict[str, Tuple[float, int]]:
    """``metric -> (value, samples)`` for every per-layer metric.

    Layers the run never entered report 0 with 0 samples.
    """
    selfs = tracer.self_times()
    out: Dict[str, Tuple[float, int]] = {}
    for metric, (kind, source) in LAYER_METRICS.items():
        if kind == "self":
            calls, seconds = selfs.get(source, (0, 0.0))
            out[metric] = (seconds, calls)
        elif kind == "calls":
            calls = selfs.get(source, (0, 0.0))[0]
            out[metric] = (float(calls), calls)
        elif kind == "ratio":
            flags = tracer.notes.get(source, [])
            out[metric] = (_ratio(flags), len(flags))
        elif kind == "import":
            out[metric] = (import_s, 1 if import_s else 0)
        else:
            out[metric] = _serve_metric(source, serve_answers)
    return out


def combine(parts) -> Dict[str, Tuple[float, int]]:
    """Merge per-path :func:`layer_metrics` results: times, calls and
    shed counts add up; ratios and means are weighted by samples."""
    out: Dict[str, Tuple[float, int]] = {}
    for metric, (kind, source) in LAYER_METRICS.items():
        values = [part[metric] for part in parts]
        n = sum(count for _, count in values)
        if kind in ("self", "calls") or source == "shed":
            out[metric] = (sum(value for value, _ in values), n)
        else:
            out[metric] = (sum(value * count for value, count in values) / n
                           if n else 0.0, n)
    return out


def _serve_metric(source: str, answers) -> Tuple[float, int]:
    """Aggregate ``(shed, wait_s, service_s, batch_size, coalesced_with)``
    tuples: the shed count, the coalesced share or a mean."""
    n = len(answers)
    if source == "shed":
        return float(sum(a[0] for a in answers)), n
    if not n:
        return 0.0, 0
    if source == "coalesced_ratio":
        return _ratio([a[4] > 0 for a in answers]), n
    column = {"wait_s": 1, "service_s": 2, "batch_size": 3}[source]
    return sum(a[column] for a in answers) / n, n
