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
- :mod:`repro.perf.cache` — a persistent on-disk characterization
  cache keyed by a content hash of the board, the micro-benchmark
  parameters and the package version, and its default backend
  :class:`~repro.perf.cache.ShardedCharacterizationStore` (key-prefix
  shards, byte-budgeted LRU eviction, per-shard hit/miss metrics).

(:mod:`repro.perf.grid` is imported lazily by the CLI — it pulls in
the application pipelines and must stay out of this namespace to keep
the microbench → perf import edge acyclic.)
"""

import importlib

from repro.perf.cache import (
    CharacterizationCache,
    ShardedCharacterizationStore,
    ShardStats,
    cache_key,
    characterization_from_dict,
    characterization_to_dict,
    default_cache_dir,
    default_store_budget,
)

#: Names served on first access (PEP 562): the batch engine and the
#: process pool (``concurrent.futures.process``) stay unloaded for
#: callers that only need the store, such as a ``repro tune`` process.
_LAZY = {
    "BatchUnsupported": "repro.perf.batch",
    "mb2_cpu_points": "repro.perf.batch",
    "mb2_gpu_points": "repro.perf.batch",
    "vectorized_second_sweep": "repro.perf.batch",
    "ParallelRunner": "repro.perf.parallel",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "BatchUnsupported",
    "mb2_cpu_points",
    "mb2_gpu_points",
    "vectorized_second_sweep",
    "CharacterizationCache",
    "ShardedCharacterizationStore",
    "ShardStats",
    "cache_key",
    "characterization_from_dict",
    "characterization_to_dict",
    "default_cache_dir",
    "default_store_budget",
    "ParallelRunner",
]
