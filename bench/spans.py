"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each edgecurrents module, plus the
two internal hooks ``oracle.quad`` (one adaptive quadrature per call) and
``multifermion.residuals`` (one Gauss-Newton residual evaluation), by
rebinding the name in every edgecurrents module that holds it.  Public
methods of the modules' classes are wrapped on the class, and callables
stored in returned dataclasses (``CurrentDecomposition.bulk_smooth``) are
wrapped as they are returned, so that per-point closures count for their
layer.  Nothing under ``src/`` is edited: ``install`` rebinds and
``uninstall`` restores.

Each span records its name, start, end, parent span and operation id.  Spans
are kept in memory (up to ``max_spans``; later ones are only aggregated) and
written out by ``save``.  Self time is a span's duration minus the time its
child spans cover; the code under test is single-threaded, so spans nest.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("params", "spectrum", "fd", "currents", "oracle", "multifermion", "cli")
# Internal names wrapped in addition to the public functions.
HOOKS = ("oracle.quad", "multifermion.residuals")


def _size(v) -> int:
    shape = getattr(v, "shape", None)
    if shape is not None:
        n = 1
        for d in shape:
            n *= int(d)
        return n
    if isinstance(v, (list, tuple)):
        return len(v)
    return 1


def _arg_getter(fn, name: str):
    """Return a function (args, kwargs) -> value of parameter ``name``, or None."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    if name not in params:
        return None
    i = params.index(name)
    return lambda args, kwargs: args[i] if len(args) > i else kwargs.get(name)


def _point_counter(layer: str, fn):
    """Points a call evaluates: x (or k) values, or the xs*ys tensor grid; field grid for fd."""
    if layer == "fd":
        get = _arg_getter(fn, "field")
        if get is None:
            return None
        return lambda a, k: _size(get(a, k)) // 2
    if layer not in ("currents", "spectrum"):
        return None
    gx, gy = _arg_getter(fn, "xs"), _arg_getter(fn, "ys")
    if gx is not None and gy is not None:
        return lambda a, k: _size(gx(a, k)) * _size(gy(a, k))
    for name in ("x", "k"):
        g = _arg_getter(fn, name)
        if g is not None:
            return lambda a, k, g=g: _size(g(a, k))
    return None


class Tracer:
    """Records spans around the wrapped library functions of one process."""

    def __init__(self, max_spans: int):
        self.max_spans = max_spans
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.s_name = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.points: Counter = Counter()
        self.spans_seen = 0
        self.op_id = 0
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._saved: list[tuple] = []
        self._callable_fields: dict[type, tuple[str, list[str]]] = {}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, label: str, count_points):
        nid = self._intern(label)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][2] if stack else -1
            idx = -1
            if len(tracer.s_name) < tracer.max_spans:
                idx = len(tracer.s_name)
                tracer.s_name.append(nid)
                tracer.s_start.append(0.0)
                tracer.s_end.append(0.0)
                tracer.s_parent.append(parent)
                tracer.s_op.append(tracer.op_id)
            if count_points is not None:
                tracer.points[nid] += count_points(args, kwargs)
            frame = [clock(), 0.0, idx]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if type(result) in tracer._callable_fields:
                    result = tracer._wrap_fields(result)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                tracer.spans_seen += 1
                tracer.calls[nid] += 1
                tracer.self_s[nid] += dur - frame[1]
                tracer.total_s[nid] += dur
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    tracer.s_start[idx] = frame[0]
                    tracer.s_end[idx] = end

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _wrap_fields(self, obj):
        layer, names = self._callable_fields[type(obj)]
        cls = type(obj).__name__
        return dataclasses.replace(obj, **{
            f: self._wrap(getattr(obj, f), f"{layer}.{cls}.{f}",
                          _point_counter(layer, getattr(obj, f)))
            for f in names if inspect.isfunction(getattr(obj, f))})

    def install(self) -> None:
        """Wrap every public function and hook of the loaded edgecurrents modules."""
        wrappers: dict[int, tuple] = {}
        self.missing = []
        for layer in LAYERS:
            mod = sys.modules.get(f"edgecurrents.{layer}")
            if mod is None:
                self.missing.append(layer)
                continue
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}",
                                                         _point_counter(layer, obj)))
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for hook in HOOKS:
            layer, name = hook.split(".")
            mod = sys.modules.get(f"edgecurrents.{layer}")
            obj = getattr(mod, name, None) if mod is not None else None
            if obj is None:
                self.missing.append(hook)
            elif id(obj) not in wrappers:
                wrappers[id(obj)] = (obj, self._wrap(obj, hook, None))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "edgecurrents" or modname.startswith("edgecurrents.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._saved.append((mod, attr, val))

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for name, fn in list(vars(cls).items()):
            if inspect.isfunction(fn) and not name.startswith("_"):
                setattr(cls, name, self._wrap(fn, f"{layer}.{cls.__name__}.{name}",
                                              _point_counter(layer, fn)))
                self._saved.append((cls, name, fn))
        if dataclasses.is_dataclass(cls):
            names = [f.name for f in dataclasses.fields(cls) if "Callable" in str(f.type)]
            if names:
                self._callable_fields[cls] = (layer, names)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved = []
        self._callable_fields = {}

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-name counters, mergeable across processes."""
        return {
            "calls": {self.names[i]: c for i, c in self.calls.items()},
            "self_s": {self.names[i]: s for i, s in self.self_s.items()},
            "total_s": {self.names[i]: s for i, s in self.total_s.items()},
            "points": {self.names[i]: s for i, s in self.points.items()},
            "missing": list(self.missing),
            "spans_seen": self.spans_seen,
            "spans_kept": len(self.s_name),
        }

    def spans(self) -> list[list]:
        return [[self.names[self.s_name[i]], self.s_start[i], self.s_end[i],
                 self.s_parent[i], self.s_op[i]] for i in range(len(self.s_name))]

    def save(self, path, extra_spans: list | None = None) -> None:
        """Write the kept spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for row in self.spans():
                fh.write(json.dumps(row) + "\n")
            for row in extra_spans or ():
                fh.write(json.dumps(row) + "\n")


def merge(summaries: list[dict]) -> dict:
    """Sum counters of several tracer summaries (e.g. one per CLI child process)."""
    out = {"calls": Counter(), "self_s": Counter(), "total_s": Counter(), "points": Counter(),
           "missing": set(), "spans_seen": 0, "spans_kept": 0}
    for s in summaries:
        for key in ("calls", "self_s", "total_s", "points"):
            out[key].update(s[key])
        out["missing"].update(s["missing"])
        out["spans_seen"] += s["spans_seen"]
        out["spans_kept"] += s["spans_kept"]
    out["missing"] = sorted(out["missing"])
    return out
