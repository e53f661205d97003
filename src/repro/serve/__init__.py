"""repro.serve — tuning-as-a-service: the asyncio multi-tenant front end.

The layer that turns the library into a system: heavy request traffic
enters here and is answered by the same ``Framework.tune`` flow the
paper describes, amortized three ways —

- **micro-batching** (:mod:`repro.serve.coalescer`): compatible
  in-flight requests (same characterization content hash, model and
  strictness) that queue while the dispatch workers are busy group
  into one characterize-once ``tune_many`` batch, dispatched as soon
  as a worker is free; identical requests collapse onto a single tune
  whose answer fans out;
- **shared characterization store**
  (:class:`~repro.perf.cache.ShardedCharacterizationStore`): key-prefix
  shards, byte-budgeted LRU eviction, cross-process single-flight
  stampede protection;
- **backpressure** (:mod:`repro.serve.server`): a bounded in-flight
  limit past which overload is shed into degraded ``KEEP_CURRENT``
  answers with coded caveats, and per-request deadlines with
  :mod:`repro.resilience.deadline` semantics.

``repro serve requests.json`` answers a one-shot request stream from
the command line.  See ``docs/serving.md``.
"""

from repro.serve.coalescer import (
    DEFAULT_MAX_BATCH,
    BatchKey,
    Coalescer,
    PendingBatch,
    PendingItem,
    TuneAnswer,
    TuneRequest,
    UniqueJob,
    plan_unique_jobs,
    shed_report,
)
from repro.serve.server import ServeConfig, ServeStats, TuneServer, serve_all

__all__ = [
    "DEFAULT_MAX_BATCH",
    "BatchKey",
    "Coalescer",
    "PendingBatch",
    "PendingItem",
    "ServeConfig",
    "ServeStats",
    "TuneAnswer",
    "TuneRequest",
    "TuneServer",
    "UniqueJob",
    "plan_unique_jobs",
    "serve_all",
    "shed_report",
]
