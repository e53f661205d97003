"""Performance layer: vectorized sweeps, parallel fan-out, persistence.

Three orthogonal speedups for the characterize-once / tune-many
workflow:

- :mod:`repro.perf.batch` — MB2's fraction sweep as closed-form
  :class:`~repro.soc.analytic.SummaryBatch` evaluations (one NumPy
  batch instead of one simulated stream per point);
- :mod:`repro.perf.parallel` — ordered process-pool ``map`` with a
  graceful serial fallback, used by
  :meth:`~repro.microbench.suite.MicrobenchmarkSuite.characterize_many`
  and the ``repro bench`` grid;
- :mod:`repro.perf.cache` — the persistent on-disk store of
  characterizations and profiles,
  :class:`~repro.perf.cache.ShardedCharacterizationStore`, keyed by a
  content hash of the inputs and the package version (key-prefix
  shards, byte-budgeted LRU eviction, per-shard hit/miss metrics).

(:mod:`repro.perf.grid` is imported by the CLI's ``bench`` command —
it builds frameworks and must stay out of this namespace to keep the
microbench → perf import edge acyclic.)
"""

from repro._lazy import lazy_exports

#: The batch engine and the process pool (``concurrent.futures.process``)
#: stay unloaded for callers that only need the store, such as a
#: ``repro tune`` process.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.perf.batch": ("BatchUnsupported", "mb2_cpu_points",
                         "mb2_gpu_points", "vectorized_second_sweep"),
    "repro.perf.cache": ("ShardedCharacterizationStore", "ShardStats",
                         "cache_key", "characterization_from_dict",
                         "characterization_to_dict", "default_cache_dir",
                         "default_store_budget"),
    "repro.perf.parallel": ("ParallelRunner",),
})

__all__ = [
    "BatchUnsupported",
    "mb2_cpu_points",
    "mb2_gpu_points",
    "vectorized_second_sweep",
    "ShardedCharacterizationStore",
    "ShardStats",
    "cache_key",
    "characterization_from_dict",
    "characterization_to_dict",
    "default_cache_dir",
    "default_store_budget",
    "ParallelRunner",
]
