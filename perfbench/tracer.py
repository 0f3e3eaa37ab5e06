"""Boundary spans for phaselab's layers, recorded from outside the program.

``Tracer.install`` rebinds every boundary function in each phaselab
module namespace that holds it. Boundary functions are each module's
``__all__`` functions, ``cli.main``, and any function one phaselab module
imports from another. Each call records one span (name, start, end,
parent span, op id) in flat arrays kept in memory; ``uninstall`` restores
the originals. No source file changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("qstate", "schedule", "geometry", "phases", "cli")


class Tracer:
    def __init__(self):
        self.modules = [importlib.import_module(f"phaselab.{m}") for m in LAYERS]
        self.names: list[str] = []  # span name ids index this list
        self.name_of = array("i")
        self.parent = array("l")
        self.op_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.op = -1
        self._stack = [-1]
        self._restore: list = []

    def boundary_functions(self) -> dict:
        """Original function -> span name ``<layer>.<function>``."""
        found = {}
        for mod in self.modules:
            exported = set(getattr(mod, "__all__", ()))
            if mod.__name__.endswith(".cli"):
                exported.add("main")
            for name, obj in vars(mod).items():
                if not inspect.isfunction(obj) or not obj.__module__.startswith("phaselab."):
                    continue
                imported = obj.__module__ != mod.__name__
                if imported or name in exported:
                    found[obj] = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
        return found

    def _wrap(self, fn, name_id: int):
        name_of, parent, op_of = self.name_of, self.parent, self.op_of
        start, end, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            op_of.append(self.op)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return span

    def install(self) -> None:
        wrappers = {}
        for fn, name in self.boundary_functions().items():
            self.names.append(name)
            wrappers[fn] = self._wrap(fn, len(self.names) - 1)
        for mod in [importlib.import_module("phaselab"), *self.modules]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in self._restore:
            setattr(mod, attr, obj)
        self._restore.clear()

    def summary(self, ops: int) -> dict:
        """Per-op aggregates: for each layer and each function, self time
        (span duration minus the time its child spans cover) and calls.
        A layer's calls count only spans entered from another layer."""
        names = np.array(self.names)
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        span_name = names[name_of]
        layer = np.array([n.split(".", 1)[0] for n in names])[name_of]
        parent_layer = np.where(has_parent, layer[np.where(has_parent, parent, 0)], "")
        out = {}
        for n in self.names:
            sel = span_name == n
            out[f"{n}.calls"] = int(sel.sum()) / ops
            out[f"{n}.self_s"] = float(self_s[sel].sum()) / ops
        for lay in LAYERS:
            sel = layer == lay
            out[f"{lay}.calls"] = int((sel & (parent_layer != lay)).sum()) / ops
            out[f"{lay}.self_s"] = float(self_s[sel].sum()) / ops
        return out

    def write(self, path: str) -> None:
        """All spans as CSV: index, op, name, parent index, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,op,name,parent,start,end\n")
            for i, (n, p, o, s, e) in enumerate(
                zip(self.name_of, self.parent, self.op_of, self.start, self.end)
            ):
                fh.write(f"{i},{o},{self.names[n]},{p},{s!r},{e!r}\n")
