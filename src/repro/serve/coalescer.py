"""Micro-batching coalescer: group compatible in-flight tune requests.

The paper's framework makes one decision per application × board; at
serving scale the same few decisions are requested by many tenants at
once.  The coalescer exploits that: requests that arrive within a small
time/size window and share a **batch key** — the characterization
content hash (board + micro-benchmark parameters + version), the
current communication model and the strictness — are dispatched as one
batch instead of N serial tunes.  Within a batch, *identical* requests
(same bundled app, board and model) collapse onto a single
``Framework.tune`` whose report fans out to every requester.

Two invariants the tests pin down:

- a batch never mixes incompatible keys — each
  :class:`PendingBatch` is keyed, and :meth:`Coalescer.add` routes a
  request only to the batch with exactly its key;
- batching is answer-transparent — a batched answer is bit-identical
  to the serial ``Framework.tune`` answer for every request in the
  batch (dedup shares one report object; distinct workloads ride the
  characterize-once ``tune_many`` path, which runs the very same
  per-workload flow).

The coalescer itself is synchronous state (usable and testable without
an event loop); :class:`~repro.serve.server.TuneServer` owns the
asyncio window timers and dispatch.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.apps import APPS
from repro.errors import ServeError
from repro.kernels.workload import Workload
from repro.model.framework import TuningReport, conservative_report
from repro.profiling.counters import AppProfile

#: Default coalescing window: long enough to catch a concurrent burst,
#: short enough to stay invisible next to a single profile run.
DEFAULT_WINDOW_S = 0.005

#: Default size window: a full batch dispatches without waiting.
DEFAULT_MAX_BATCH = 16

@dataclass(frozen=True)
class TuneRequest:
    """One tenant's tune question.

    Exactly one of three payloads: ``app`` names a bundled application
    (its workload is built deterministically for the board),
    ``workload`` carries an explicit
    :class:`~repro.kernels.workload.Workload`, or ``profile`` ships
    already-measured counters — the online re-tune path: no profiling
    runs server-side, the framework only re-evaluates the Fig-2
    decision (``Framework.retune``) against the board's cached
    characterization.  ``deadline_s`` is a per-request budget measured
    from submission; a request whose budget expires while queued is
    shed with a coded degraded answer instead of being served late.
    """

    board: str
    app: Optional[str] = None
    workload: Optional[Workload] = None
    profile: Optional[AppProfile] = None
    current_model: str = "SC"
    strict: bool = False
    deadline_s: Optional[float] = None
    tenant: str = ""

    def validate(self) -> None:
        """Raise a structured :class:`ServeError` on a malformed request."""
        payloads = sum(p is not None
                       for p in (self.app, self.workload, self.profile))
        if payloads != 1:
            raise ServeError(
                "a request names exactly one of 'app', 'workload' or "
                f"'profile', got app={self.app!r}, workload="
                f"{getattr(self.workload, 'name', None)!r}, profile="
                f"{getattr(self.profile, 'workload_name', None)!r}",
                code="SERVE_BAD_REQUEST",
                details={"app": self.app, "board": self.board},
            )
        if (self.profile is not None
                and self.profile.board_name != self.board):
            raise ServeError(
                f"profile was measured on {self.profile.board_name!r} "
                f"but the request targets {self.board!r}",
                code="SERVE_BAD_REQUEST",
                details={"profile_board": self.profile.board_name,
                         "board": self.board},
            )
        if self.app is not None and self.app not in APPS:
            raise ServeError(
                f"unknown application {self.app!r}; available: "
                + ", ".join(APPS),
                code="SERVE_BAD_REQUEST",
                details={"app": self.app},
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ServeError(
                f"deadline_s must be positive, got {self.deadline_s}",
                code="SERVE_BAD_REQUEST",
                details={"deadline_s": self.deadline_s},
            )

    @property
    def workload_name(self) -> str:
        """The name the answer reports for this request's workload."""
        if self.workload is not None:
            return self.workload.name
        if self.profile is not None:
            return self.profile.workload_name
        return str(self.app)


@dataclass(frozen=True)
class TuneAnswer:
    """The server's reply to one :class:`TuneRequest`.

    ``status`` is ``"ok"`` (a full tune ran), ``"shed"`` (overload or
    an expired queue deadline produced a degraded ``KEEP_CURRENT``
    report with coded caveats) or ``"error"`` (a strict-mode tune
    raised; ``error`` carries the structured error dict).
    """

    request: TuneRequest
    report: Optional[TuningReport]
    status: str
    error: Optional[Dict[str, Any]] = None
    batch_size: int = 1
    coalesced_with: int = 0
    wait_s: float = 0.0
    service_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def shed(self) -> bool:
        return self.status == "shed"


@dataclass(frozen=True)
class BatchKey:
    """What makes two in-flight requests batch-compatible.

    ``characterization`` is the content hash the persistent store keys
    entries by (board config + micro-benchmark parameters + package
    version), so two boards that merely share a name never mix, and a
    re-parameterized suite splits from stale traffic automatically.
    """

    characterization: str
    board: str
    current_model: str
    strict: bool


@dataclass
class PendingItem:
    """One queued request plus its completion plumbing."""

    request: TuneRequest
    future: Any
    enqueued: float = field(default_factory=time.monotonic)

    def remaining_s(self, now: Optional[float] = None) -> Optional[float]:
        """Per-request budget left, or ``None`` for no deadline."""
        if self.request.deadline_s is None:
            return None
        now = time.monotonic() if now is None else now
        return self.request.deadline_s - (now - self.enqueued)


@dataclass
class PendingBatch:
    """The open window for one batch key."""

    key: BatchKey
    board: Any  # resolved BoardConfig (resolved once at key time)
    opened: float = field(default_factory=time.monotonic)
    items: List[PendingItem] = field(default_factory=list)
    timer: Any = None
    dispatched: Optional[float] = None

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class UniqueJob:
    """One de-duplicated unit of work inside a batch.

    ``items`` are every request this job answers: requests for the
    same bundled app on the same board (same model, same strictness —
    guaranteed by the batch key) are answer-identical by construction,
    so they share one tune.  Profile-carrying re-tune requests dedupe
    by value — :class:`~repro.profiling.counters.AppProfile` is a
    frozen (hashable) dataclass, so N streams re-asking about the same
    window share one ``Framework.retune``.  Requests carrying explicit
    workloads are never deduplicated — workload equality is not
    checkable cheaply.
    """

    dedupe_key: Tuple[Any, ...]
    items: List[PendingItem] = field(default_factory=list)
    workload: Optional[Workload] = None
    profile: Optional[AppProfile] = None


class Coalescer:
    """Keyed pending-batch table with time/size windows.

    Not thread-safe by itself: the server mutates it only from the
    event loop.  ``add`` opens a batch per key on demand; a batch
    leaves the table exactly once, via :meth:`pop` (size window or
    shutdown flush) or :meth:`pop_if` (window timer, identity-checked
    so a timer can never dispatch a *successor* batch of its key).
    """

    def __init__(self, window_s: float = DEFAULT_WINDOW_S,
                 max_batch: int = DEFAULT_MAX_BATCH) -> None:
        if window_s < 0 or max_batch < 1:
            raise ServeError(
                f"need window_s >= 0 and max_batch >= 1, got "
                f"window_s={window_s}, max_batch={max_batch}",
                code="SERVE_BAD_CONFIG",
                details={"window_s": window_s, "max_batch": max_batch},
            )
        self.window_s = window_s
        self.max_batch = max_batch
        self._batches: Dict[BatchKey, PendingBatch] = {}

    def __len__(self) -> int:
        return sum(len(batch) for batch in self._batches.values())

    @property
    def open_batches(self) -> List[PendingBatch]:
        return list(self._batches.values())

    def add(self, key: BatchKey, board: Any,
            item: PendingItem) -> Tuple[PendingBatch, bool, bool]:
        """Queue ``item`` under ``key``.

        Returns ``(batch, opened, full)``: ``opened`` means this item
        created the batch (the caller should start its window timer),
        ``full`` means the size window closed (the caller should pop
        and dispatch now).
        """
        batch = self._batches.get(key)
        opened = batch is None
        if opened:
            batch = PendingBatch(key=key, board=board)
            self._batches[key] = batch
        batch.items.append(item)
        return batch, opened, len(batch) >= self.max_batch

    def pop(self, key: BatchKey) -> Optional[PendingBatch]:
        """Remove and return the batch for ``key`` (None if absent)."""
        return self._batches.pop(key, None)

    def pop_if(self, key: BatchKey,
               batch: PendingBatch) -> Optional[PendingBatch]:
        """Remove ``batch`` only if it is still the one registered.

        A window timer holds a reference to the batch it opened; by the
        time it fires, a size-window dispatch may have replaced it with
        a fresh batch under the same key.  Identity-checking keeps the
        timer from stealing the successor's window.
        """
        current = self._batches.get(key)
        if current is not batch:
            return None
        return self._batches.pop(key)

    def flush(self) -> List[PendingBatch]:
        """Remove and return every open batch (shutdown drain)."""
        batches = list(self._batches.values())
        self._batches.clear()
        return batches


def plan_unique_jobs(items: List[PendingItem]) -> List[UniqueJob]:
    """Collapse a batch's requests into unique units of work.

    Bundled-app requests sharing ``(app, board)`` merge (the batch key
    already fixed model and strictness); explicit-workload requests
    each get their own job.  Job order follows first appearance, so
    the execution order — and therefore any per-tune observable side
    effect — is deterministic for a fixed arrival order.
    """
    jobs: Dict[Tuple[Any, ...], UniqueJob] = {}
    fresh = itertools.count()
    for item in items:
        request = item.request
        if request.workload is not None:
            key: Tuple[Any, ...] = ("workload", next(fresh))
        elif request.profile is not None:
            key = ("profile", request.profile)
        else:
            key = ("app", request.app, request.board)
        job = jobs.get(key)
        if job is None:
            job = UniqueJob(dedupe_key=key, workload=request.workload,
                            profile=request.profile)
            jobs[key] = job
        job.items.append(item)
    return list(jobs.values())


def shed_report(request: TuneRequest, code: str, detail: str,
                device: Any = None) -> TuningReport:
    """A degraded ``KEEP_CURRENT`` report for a request the server
    sheds (overload, expired queue deadline) — same shape and caveat
    style as the framework's own degraded answers, so callers handle
    both identically."""
    return conservative_report(request.workload_name, request.board,
                               request.current_model,
                               [f"request shed — {code}: {detail}"], device)
