"""Span tracing for the benchmark's traced run.

The traced run times the calls into each layer's public functions.  The
wrappers live here, in the benchmark, and are installed only for the
traced run: the program itself carries no tracing code, and the
untraced run executes exactly what users execute.

Every wrapped call is a span.  Spans nest through a per-thread stack,
so each span knows its parent label and the time its direct wrapped
children took; a label's *self* time is its total minus that child
time.  Counts (calls, and whatever an ``observe`` hook records from
arguments or results) are kept at the same boundaries, so ratios are
measured where the work happens.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: a child span may exceed its parent by no more than clock jitter
NESTING_SLACK_S = 1e-6


class LabelStats:
    """Aggregate of every span with one label."""

    __slots__ = ("calls", "total_s", "child_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Installs timing wrappers and aggregates their spans.

    Each thread keeps its own span stack and tables, merged on read, so
    the farm gateway's loop thread and the client thread never share a
    counter.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[dict[str, Any]] = []
        self._patches: list[tuple[Any, str, Any]] = []
        #: (attribute name, wrapper, original) of every wrapped function
        self._functions: list[tuple[str, Any, Any]] = []

    # -- per-thread state ------------------------------------------------
    def _state(self) -> dict[str, Any]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {
                "stack": [],
                "labels": defaultdict(LabelStats),
                "pairs": defaultdict(lambda: [0.0, 0]),
                "counts": defaultdict(float),
                "violations": 0,
            }
            with self._lock:
                self._threads.append(state)
            self._local.state = state
        return state

    def count(self, key: str, amount: float = 1) -> None:
        """Add to a named counter (called from ``observe`` hooks)."""
        self._state()["counts"][key] += amount

    def parent_label(self) -> str | None:
        """Label of the innermost open span of this thread; in an
        ``observe`` hook, the direct parent of the call observed."""
        stack = self._state()["stack"]
        return stack[-1][1] if stack else None

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn: Callable, label: str,
              observe: Callable[["Tracer", tuple, dict, Any], None] | None):
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state["stack"]
            frame = [0.0, label]  # [direct-children seconds, label]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                stack.pop()
                stats = state["labels"][label]
                stats.calls += 1
                stats.total_s += elapsed
                stats.child_s += frame[0]
                if frame[0] > elapsed + NESTING_SLACK_S:
                    state["violations"] += 1
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    pair = state["pairs"][(parent[1], label)]
                else:
                    pair = state["pairs"][(None, label)]
                pair[0] += elapsed
                pair[1] += 1
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", label)
        traced.__qualname__ = getattr(fn, "__qualname__", label)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def wrap_method(self, cls: type, name: str, label: str,
                    observe=None) -> None:
        """Replace ``cls.name`` with a timing wrapper."""
        original = cls.__dict__[name]
        setattr(cls, name, self._wrap(original, label, observe))
        self._patches.append((cls, name, original))

    def wrap_function(self, qualified: str, label: str,
                      observe=None) -> None:
        """Replace ``module:function`` with a timing wrapper in its own
        module and in every loaded module that imported it by name."""
        modname, _, attr = qualified.partition(":")
        module = importlib.import_module(modname)
        original = getattr(module, attr)
        traced = self._wrap(original, label, observe)
        self._functions.append((attr, traced, original))
        self._swap(attr, original, traced)

    @staticmethod
    def _swap(attr: str, old: Any, new: Any) -> None:
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if namespace is not None and namespace.get(attr) is old:
                setattr(mod, attr, new)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, also in modules that
        imported a wrapped function after it was installed."""
        for cls, name, original in reversed(self._patches):
            setattr(cls, name, original)
        for attr, traced, original in reversed(self._functions):
            self._swap(attr, traced, original)
        self._patches.clear()
        self._functions.clear()

    # -- reading -------------------------------------------------------
    def labels(self) -> dict[str, LabelStats]:
        merged: dict[str, LabelStats] = defaultdict(LabelStats)
        with self._lock:
            for state in self._threads:
                for label, stats in state["labels"].items():
                    out = merged[label]
                    out.calls += stats.calls
                    out.total_s += stats.total_s
                    out.child_s += stats.child_s
        return merged

    def pair_s(self, parent: str | None, child: str) -> float:
        """Time spent in ``child`` spans whose direct parent span is
        ``parent`` (``None``: top-level spans)."""
        with self._lock:
            return sum(state["pairs"][(parent, child)][0]
                       for state in self._threads
                       if (parent, child) in state["pairs"])

    def child_calls(self, parent: str) -> int:
        """Number of wrapped calls made directly inside ``parent``."""
        with self._lock:
            return sum(calls for state in self._threads
                       for (p, _), (_, calls) in state["pairs"].items()
                       if p == parent)

    def self_s(self, label: str, wrapper_cost_s: float) -> float:
        """``label``'s self time without the wrapper cost its traced
        children add to it (see :func:`wrapper_cost_s`)."""
        stats = self.labels()[label]
        return max(0.0, stats.self_s
                   - wrapper_cost_s * self.child_calls(label))

    def counts(self) -> dict[str, float]:
        merged: dict[str, float] = defaultdict(float)
        with self._lock:
            for state in self._threads:
                for key, value in state["counts"].items():
                    merged[key] += value
        return merged

    def violations(self) -> int:
        """Spans whose direct children took longer than the span."""
        with self._lock:
            return sum(state["violations"] for state in self._threads)


def wrapper_cost_s(calls: int = 20_000) -> float:
    """Seconds a traced child call adds to its parent's self time.

    Measured on this host as the parent self time of ``calls`` traced
    calls of an empty function, minus the same loop over the untraced
    function.
    """
    def child() -> None:
        pass

    def loop(fn) -> None:
        for _ in range(calls):
            fn()

    tracer = Tracer()
    traced_child = tracer._wrap(child, "child", None)
    traced_loop = tracer._wrap(loop, "parent", None)
    start = time.perf_counter()
    loop(child)
    bare = time.perf_counter() - start
    traced_loop(traced_child)
    return max(0.0, (tracer.labels()["parent"].self_s - bare) / calls)
