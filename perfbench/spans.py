"""In-memory span recorder that wraps the program's layer entry points.

The traced run installs :class:`Tracer` around the public functions each
layer exposes (``cache_key``, ``Profiler.profile``, ``decide`` ...).
Nothing in the program changes: the wrappers are set on the modules and
classes for the duration of the traced run and removed afterwards.

A span is ``(span_id, name, start, end, parent_id, op_id, thread)``.
Parents are tracked per thread, so spans recorded in the server's worker
threads nest correctly among themselves; a top-level span starts a new
operation and every span below it carries that operation's id.
A layer's *self time* is its span duration minus the time its direct
children cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, str, float, float, Optional[int], Optional[int], int]


class Tracer:
    """Records spans and owns the wrappers it installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Per-(name) attributes gathered by wrappers, e.g. profile keys.
        self.notes: Dict[str, list] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._restore: List[Callable[[], None]] = []

    # -- recording --------------------------------------------------------

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self):
        stack = self._stack()
        span_id = self._new_id()
        if stack:
            parent, op = stack[-1][0], stack[-1][1]
        else:
            parent, op = None, span_id
        stack.append((span_id, op))
        return span_id, parent, op

    def _exit(self, name: str, span_id: int, parent, op, start: float) -> None:
        end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append((span_id, name, start, end, parent, op,
                               threading.get_ident()))

    def call(self, name: str, fn, *args, **kwargs):
        span_id, parent, op = self._enter()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, span_id, parent, op, start)

    # -- wrapping ---------------------------------------------------------

    def _span_wrapper(self, func, name_of):
        tracer = self
        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                name = name_of(args, kwargs)
                inner = func(*args, **kwargs)
                while True:
                    try:
                        item = tracer.call(name, next, inner)
                    except StopIteration:
                        return
                    yield item
            return gen_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return tracer.call(name_of(args, kwargs), func, *args, **kwargs)
        return wrapper

    @staticmethod
    def _hooked(wrapped, func, observe, result_hook):
        """Add an argument observer and a result hook around ``wrapped``."""
        if observe is None and result_hook is None:
            return wrapped

        @functools.wraps(func)
        def hooked(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            result = wrapped(*args, **kwargs)
            if result_hook is not None:
                result_hook(result)
            return result
        return hooked

    def wrap_method(self, cls, attr: str, name, observe=None,
                    result_hook=None) -> None:
        """Wrap ``cls.attr`` (plain, class- or static method).

        ``name`` is a span name or a callable ``(args, kwargs) -> name``.
        ``observe(args, kwargs)`` sees each call's arguments and
        ``result_hook(result)`` its return value; the layer metrics use
        them for repeat and hit ratios.
        """
        raw = cls.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        func = raw.__func__ if kind else raw
        name_of = name if callable(name) else (lambda a, k, n=name: n)
        wrapped = self._hooked(self._span_wrapper(func, name_of), func,
                               observe, result_hook)
        setattr(cls, attr, kind(wrapped) if kind else wrapped)
        self._restore.append(lambda: setattr(cls, attr, raw))

    def wrap_function(self, module, attr: str, name: str) -> None:
        """Wrap a module-level function everywhere it was imported.

        ``from module import f`` binds ``f`` in the importer, so every
        loaded ``repro`` module holding the same object is patched too.
        """
        original = getattr(module, attr)
        wrapped = self._span_wrapper(original, lambda a, k: name)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
                self._restore.append(
                    lambda m=mod: setattr(m, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- results ----------------------------------------------------------

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, total self seconds)``."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for span_id, name, start, end, _, _, _ in self.spans:
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - child_time.get(span_id, 0.0)
        return {name: (int(c), s) for name, (c, s) in totals.items()}

    def write_jsonl(self, path) -> None:
        """Write every span once, one JSON object per line."""
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, op, thread in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "op": op,
                    "thread": thread}) + "\n")
