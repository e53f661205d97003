"""repro.obs — tracing, metrics and run-report observability.

The decision flow is a multi-stage pipeline (characterize → profile →
compute usage metrics → estimate speedups → decide); this package
records *why* each run did what it did:

- :mod:`repro.obs.trace` — nested span tracing with monotonic timing,
  structured attributes and thread/process-safe context propagation
  (``ParallelRunner`` workers merge their spans into the parent trace);
- :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges and fixed-bucket histograms (cache hits/misses/corruptions,
  transport choices, fault activations, per-phase times);
- :mod:`repro.obs.export` — JSONL and Chrome trace-event exporters
  (loadable in Perfetto) plus a plain-text run summary;
- :mod:`repro.obs.report` — :class:`~repro.obs.report.TuneReport`, a
  serializable record of every ``Framework.tune`` intermediate.

Everything is guarded by the one module-level flag in
:mod:`repro.obs.state`: ``repro --obs-off`` (or ``REPRO_OBS=0``) turns
every instrumentation site into a no-op costing one branch.

::

    from repro import obs

    with obs.span("tune", board="xavier"):
        obs.counter_inc("perf.cache.hit")
    obs.write_chrome_trace("trace.json")   # open in ui.perfetto.dev

See ``docs/observability.md`` for the full API and workflow.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.export": ("chrome_trace", "jsonl_lines", "load_artifact",
                         "load_jsonl", "summary", "validate_chrome_trace",
                         "write_chrome_trace", "write_jsonl"),
    "repro.obs.metrics": ("REGISTRY", "MetricsRegistry", "counter_inc",
                          "gauge_set", "observe"),
    "repro.obs.report": ("TuneReport",),
    "repro.obs.state": ("disable", "enable", "enabled"),
    "repro.obs.trace": ("Span", "TraceContext", "capture", "clear",
                        "current_context", "event", "get_spans",
                        "merge_spans", "span"),
})

__all__ = [
    "REGISTRY",
    "MetricsRegistry",
    "Span",
    "TraceContext",
    "TuneReport",
    "capture",
    "chrome_trace",
    "clear",
    "counter_inc",
    "current_context",
    "disable",
    "enable",
    "enabled",
    "event",
    "gauge_set",
    "get_spans",
    "jsonl_lines",
    "load_artifact",
    "load_jsonl",
    "merge_spans",
    "observe",
    "span",
    "summary",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
