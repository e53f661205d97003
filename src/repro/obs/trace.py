"""Nested span tracing with monotonic timing.

A *span* is one named, timed region of work with structured attributes;
spans nest through a :mod:`contextvars` context variable, so the tree
is correct across threads and ``async`` boundaries without any caller
bookkeeping::

    from repro.obs import span

    with span("tune", board="xavier"):
        with span("characterize"):
            ...

Completed spans land in a process-wide, lock-guarded buffer that the
exporters (:mod:`repro.obs.export`) turn into JSONL or Chrome
trace-event files.  When :mod:`repro.obs.state` is disabled, ``span``
returns one shared no-op object and records nothing.

Process propagation
-------------------

:class:`~repro.perf.parallel.ParallelRunner` workers run in separate
processes with their own (empty) buffers.  The parent captures a
:class:`TraceContext` before fanning out, the worker wraps its task in
:func:`capture` — which collects exactly the spans that task produced —
and the parent folds them back with :func:`merge_spans`, which re-keys
the worker-local span ids so they cannot collide with the parent's.
Worker spans keep the worker's real ``pid``/``tid``, so a Chrome trace
shows one lane per worker process.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.obs import state

R = TypeVar("R")

#: Completed spans kept in memory; once the buffer is full each new
#: span is dropped (and counted), a bound so a long-lived process
#: cannot grow without limit.
MAX_SPANS = 100_000

_BUFFER: List["Span"] = []
_LOCK = threading.Lock()
_DROPPED = 0
_IDS = itertools.count(1)

#: The innermost live span's id in the current execution context.
_CURRENT: ContextVar[Optional[int]] = ContextVar("repro_obs_span", default=None)


@dataclass(frozen=True)
class Span:
    """One completed, timed region (or instant event when
    ``start_s == end_s`` and ``kind == "event"``)."""

    name: str
    start_s: float
    end_s: float
    pid: int
    tid: int
    span_id: int
    parent_id: Optional[int]
    kind: str = "span"
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Wall-clock span length (monotonic clock)."""
        return self.end_s - self.start_s


def _record(span_obj: Span) -> None:
    global _DROPPED
    with _LOCK:
        if len(_BUFFER) >= MAX_SPANS:
            _DROPPED += 1
            return
        _BUFFER.append(span_obj)


class _NullSpan:
    """The shared disabled-mode span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attributes) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _LiveSpan:
    """An in-flight span; becomes a :class:`Span` on exit."""

    __slots__ = ("name", "attributes", "span_id", "parent_id", "_start",
                 "_token")

    def __init__(self, name: str, attributes: Dict[str, Any]) -> None:
        self.name = name
        self.attributes = attributes

    def set(self, **attributes) -> "_LiveSpan":
        """Attach attributes to the live span (returns self)."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "_LiveSpan":
        self.parent_id = _CURRENT.get()
        self.span_id = next(_IDS)
        self._token = _CURRENT.set(self.span_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        _CURRENT.reset(self._token)
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        _record(Span(
            name=self.name,
            start_s=self._start,
            end_s=end,
            pid=os.getpid(),
            tid=threading.get_ident(),
            span_id=self.span_id,
            parent_id=self.parent_id,
            attributes=self.attributes,
        ))
        return False


def span(name: str, **attributes):
    """A context manager timing one named region.

    Attributes must be JSON-representable (the exporters stringify
    anything else).  Disabled mode returns the shared no-op span.
    """
    if not state.ENABLED:
        return NULL_SPAN
    return _LiveSpan(name, attributes)


def event(name: str, **attributes) -> None:
    """Record one structured instant event at the current nesting."""
    if not state.ENABLED:
        return
    now = time.perf_counter()
    _record(Span(
        name=name,
        start_s=now,
        end_s=now,
        pid=os.getpid(),
        tid=threading.get_ident(),
        span_id=next(_IDS),
        parent_id=_CURRENT.get(),
        kind="event",
        attributes=attributes,
    ))


def current_span_id() -> Optional[int]:
    """The innermost live span's id, or ``None`` outside any span."""
    return _CURRENT.get()


def get_spans() -> List[Span]:
    """A snapshot copy of the completed-span buffer (record order)."""
    with _LOCK:
        return list(_BUFFER)


def dropped_spans() -> int:
    """Spans discarded because the buffer hit :data:`MAX_SPANS`."""
    return _DROPPED


def clear() -> None:
    """Empty the span buffer (the id counter keeps advancing)."""
    global _DROPPED
    with _LOCK:
        _BUFFER.clear()
        _DROPPED = 0


# ----------------------------------------------------------------------
# cross-process propagation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TraceContext:
    """A picklable snapshot linking worker spans under a parent span."""

    enabled: bool
    parent_id: Optional[int]


def current_context() -> TraceContext:
    """The context to ship to a worker process (picklable)."""
    return TraceContext(enabled=state.ENABLED, parent_id=_CURRENT.get())


def capture(ctx: TraceContext, fn: Callable[[], R]) -> Tuple[R, List[Span]]:
    """Run ``fn`` and collect exactly the spans it produced.

    Worker-side half of the fan-out protocol: the collected spans are
    removed from this process's buffer (they will live in the parent's
    instead) and rooted at ``ctx.parent_id``.
    """
    if not ctx.enabled:
        return fn(), []
    token = _CURRENT.set(ctx.parent_id)
    with _LOCK:
        mark = len(_BUFFER)
    try:
        result = fn()
    finally:
        _CURRENT.reset(token)
        with _LOCK:
            collected = _BUFFER[mark:]
            del _BUFFER[mark:]
    return result, collected


def merge_spans(spans: Sequence[Span]) -> None:
    """Fold worker-exported spans into this process's buffer.

    Worker-local span ids are re-keyed with fresh parent-process ids
    (a worker's counter also starts at 1, so raw ids would collide);
    parent references to ids outside the batch — the fan-out point's
    own span — are preserved verbatim.
    """
    if not state.ENABLED or not spans:
        return
    # Parents start no later than their children, so a start-ordered
    # pass sees every parent before its descendants.
    ordered = sorted(spans, key=lambda s: s.start_s)
    mapping: Dict[int, int] = {}
    for span_obj in ordered:
        new_id = next(_IDS)
        mapping[span_obj.span_id] = new_id
        parent = span_obj.parent_id
        if parent is not None:
            parent = mapping.get(parent, parent)
        _record(replace(span_obj, span_id=new_id, parent_id=parent))
