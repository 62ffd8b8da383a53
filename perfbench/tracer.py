"""Benchmark-side tracing of calls into qplasma's layer modules.

``Tracer.install()`` wraps every public function of each layer module (the
names in its ``__all__``), plus the public methods and ``__post_init__``
validation of its public classes, at every place a ``qplasma.*`` module
binds them (``qplasma.dielectric.g_a`` as well as ``qplasma.kernels.g_a``),
so calls between layers are seen too.  Nothing under ``src/`` is edited:
renamed or new public entry points are picked up from ``__all__``.

Two kinds of record are kept in memory and written out at the end:

* full spans (id, name, start, end, parent span, op id, self time) for the
  coarse boundaries in ``FULL_SPANS`` and for the benchmark's own ops;
* for every other call, an aggregate (count, total time, self time) keyed by
  function and caller, so the millions of kernel calls cost no memory.

Self time is a call's duration minus the part of it its traced children
cover.  Children on the same thread run one after another, so their
durations add; children on other threads (the sweep's worker pool) are
attributed to the main thread's innermost open call, and the union of their
intervals is taken.  Per-thread durations include time spent waiting for
the interpreter lock, so layer self times summed over threads can exceed
the wall time when the pool runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from collections import Counter
from time import perf_counter

PACKAGE = "qplasma"
LAYERS = ("kernels", "dielectric", "sweep", "svg", "cli", "kohn", "quadrature", "units")
FULL_SPANS = frozenset({
    "cli.main",
    "sweep.run_sweep",
    "sweep.SweepResult.csv_text",
    "sweep.SweepResult.svg_text",
    "svg.line_plot",
    "kohn.singularity_broadening_scan",
    "quadrature.oracle_scan",
})


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class _Frame:
    __slots__ = ("name", "layer", "child_s", "foreign", "span_id", "anchor", "op_id")

    def __init__(self, name, layer, parent, span_id, op_id=None):
        self.name = name
        self.layer = layer
        self.child_s = 0.0
        self.foreign = None
        self.span_id = span_id
        if parent is None:
            self.anchor, self.op_id = span_id, op_id
        else:
            self.anchor = span_id if span_id is not None else parent.anchor
            self.op_id = parent.op_id if op_id is None else op_id


class Tracer:
    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[tuple[dict, Counter]] = []
        self._main_stack: list[_Frame] = []
        self._main_ident = threading.main_thread().ident
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- frames --
    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            agg, errs = {}, Counter()
            stack = self._main_stack if threading.get_ident() == self._main_ident else []
            st = self._local.st = (stack, agg, errs)
            with self._lock:
                self._per_thread.append((agg, errs))
        return st

    def _span_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _enter(self, name, layer, full, op_id=None):
        stack, agg, errs = self._state()
        foreign = False
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent, foreign = self._main_stack[-1], True
        else:
            parent = None
        frame = _Frame(name, layer, parent, self._span_id() if full else None, op_id)
        stack.append(frame)
        return frame, parent, foreign, stack, agg, errs

    def _exit(self, frame, parent, foreign, stack, agg, t0, t1):
        stack.pop()
        dur = t1 - t0
        covered = frame.child_s
        if frame.foreign:
            covered += union_length(frame.foreign)
        self_s = dur - covered if covered < dur else 0.0
        if parent is not None:
            if foreign:
                with self._lock:
                    if parent.foreign is None:
                        parent.foreign = []
                    parent.foreign.append((t0, t1))
            else:
                parent.child_s += dur
        key = (frame.name, parent.name if parent is not None else "-")
        entry = agg.get(key)
        if entry is None:
            agg[key] = [1, dur, self_s]
        else:
            entry[0] += 1
            entry[1] += dur
            entry[2] += self_s
        if frame.span_id is not None:
            self.spans.append((frame.span_id, frame.name, t0, t1,
                               parent.anchor if parent is not None else None, frame.op_id, self_s))

    def span(self, name: str, op_id=None):
        """Context manager for a benchmark-side full span (an op)."""
        return _Span(self, name, op_id)

    # -------------------------------------------------------- wrapping --
    def _wrap(self, fn, name, layer):
        tracer = self
        full = name in FULL_SPANS
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, parent, foreign, stack, agg, errs = tracer._enter(name, layer, full)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if parent is None or parent.layer != layer:
                    errs[(layer, type(exc).__name__)] += 1
                raise
            finally:
                tracer._exit(frame, parent, foreign, stack, agg, t0, perf_counter())
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def targets(self):
        """(layer, qualified name, function, owning class or None) for every
        traced entry point of the installed package."""
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for public in getattr(mod, "__all__", ()):
                obj = getattr(mod, public)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield layer, f"{layer}.{public}", obj, None
                elif inspect.isclass(obj):
                    for attr, member in vars(obj).items():
                        if attr.startswith("_") and attr != "__post_init__":
                            continue
                        if inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod)):
                            yield layer, f"{layer}.{public}.{attr}", member, obj

    def install(self, count_calls=()):
        """Wrap every target; ``count_calls`` is a list of (owner, attr,
        counter name) for foreign callables that are only counted."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer, name, member, cls in list(self.targets()):
            if cls is not None:
                if isinstance(member, (classmethod, staticmethod)):
                    wrapped = type(member)(self._wrap(member.__func__, name, layer))
                else:
                    wrapped = self._wrap(member, name, layer)
                self._patch(cls, name.rsplit(".", 1)[1], wrapped)
                continue
            wrapped = self._wrap(member, name, layer)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is member:
                        self._patch(mod, attr, wrapped)
        for owner, attr, counter in count_calls:
            self._patch(owner, attr, self._counting(vars(owner)[attr], counter))

    def _counting(self, fn, counter):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # --------------------------------------------------------- results --
    def aggregates(self) -> dict[tuple[str, str], list]:
        """(function, caller) -> [count, total_s, self_s], all threads."""
        merged: dict[tuple[str, str], list] = {}
        for agg, _ in self._per_thread:
            for key, (n, total, own) in agg.items():
                m = merged.setdefault(key, [0, 0.0, 0.0])
                m[0] += n
                m[1] += total
                m[2] += own
        return merged

    def errors(self) -> Counter:
        """(layer, exception class) -> exceptions that left the layer."""
        out: Counter = Counter()
        for _, errs in self._per_thread:
            out.update(errs)
        return out


class _Span:
    def __init__(self, tracer, name, op_id):
        self.tracer, self.name, self.op_id = tracer, name, op_id

    def __enter__(self):
        self.state = self.tracer._enter(self.name, "bench", True, self.op_id)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        frame, parent, foreign, stack, agg, _ = self.state
        self.tracer._exit(frame, parent, foreign, stack, agg, self.t0, perf_counter())
        return False
