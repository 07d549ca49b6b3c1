"""In-memory span recorder that wraps the library's layers from outside.

`Tracer.install` rebinds the public functions and a few classes that the
pipeline modules (oracle, runtime, adversaries, cli) hold in their
namespaces, so every call the pipeline makes across a module boundary opens
a span.  Classes are wrapped by a timed subclass with the same name, because
`Graph.from_stream` instantiates `cls` and callers may check `isinstance`.
`src/` is not edited; `uninstall` puts the original objects back.

A span is (name, parent span, op, start ns, end ns), kept in flat arrays
and written out once at the end.  Spans are recorded only while an op runs.
"""
from __future__ import annotations

import functools
import gzip
import inspect
from array import array
from time import perf_counter_ns
from types import ModuleType
from typing import Callable, Iterable, Optional, Sequence

# Namespaces whose names get rebound: every cross-module call on the
# pipeline path is looked up in one of these.
PIPELINE_MODULES = ("oracle", "runtime", "adversaries", "cli")

# Classes whose hot methods carry a layer's work; "__init__" times construction.
CLASS_METHODS = {
    "Graph": ("__init__",),
    "AdviceAlgorithm": ("step",),
    "Greedy": ("step",),
    "GreedyVariant": ("step",),
}

OP = "op"  # root span the harness opens around each op


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.active = False
        self._stack: list[int] = []
        self._op_index = -1
        self._undo: list[tuple[ModuleType, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_index)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def run_op(self, index: int, call: Callable[[], object]) -> object:
        """Run one op under a root span, recording every span inside it."""
        self._op_index = index
        self.active = True
        i = self._open(self._id(OP))
        try:
            return call()
        finally:
            self._close(i)
            self.active = False

    def wrap_function(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    def wrap_class(self, cls: type, methods: Iterable[str]) -> type:
        layer = cls.__module__.rsplit(".", 1)[-1]
        attrs = {"__module__": cls.__module__, "__qualname__": cls.__qualname__}
        for meth in methods:
            label = f"{layer}.{cls.__name__}" + ("" if meth == "__init__" else f".{meth}")
            attrs[meth] = self.wrap_function(label, getattr(cls, meth))
        return type(cls.__name__, (cls,), attrs)

    def install(self, package: str, modules: dict[str, ModuleType]) -> None:
        """Rebind traced versions into each pipeline module's namespace."""
        wrapped: dict[int, object] = {}
        for modname in PIPELINE_MODULES:
            mod = modules[modname]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not (getattr(obj, "__module__", None) or "").startswith(package + "."):
                    continue
                if inspect.isfunction(obj):
                    if id(obj) not in wrapped:
                        layer = obj.__module__.rsplit(".", 1)[-1]
                        wrapped[id(obj)] = self.wrap_function(f"{layer}.{obj.__qualname__}", obj)
                elif inspect.isclass(obj) and attr in CLASS_METHODS:
                    if id(obj) not in wrapped:
                        wrapped[id(obj)] = self.wrap_class(obj, CLASS_METHODS[attr])
                else:
                    continue
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    # -- analysis ---------------------------------------------------------

    def summary(self, weights: Optional[Sequence[float]] = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is the span's duration minus its direct children's; spans
        nest strictly because the process runs one thread.  `weights`, indexed
        by op id, rescales each op's span times."""
        n = len(self.start)
        dur = array("q", (e - s for s, e in zip(self.start, self.end)))
        child = array("q", bytes(8 * n))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        names = self.names
        for i in range(n):
            row = out[names[self.name[i]]]
            w = weights[self.op[i]] / 1e9 if weights is not None else 1e-9
            row["calls"] += 1
            row["total_s"] += dur[i] * w
            row["self_s"] += (dur[i] - child[i]) * w
        return out

    def child_names(self, parent_name: str) -> list[set[str]]:
        """For each span called `parent_name`, the names of its direct children."""
        pid = self._ids.get(parent_name)
        if pid is None:
            return []
        kids: dict[int, set[str]] = {i: set() for i in range(len(self.start)) if self.name[i] == pid}
        for i in range(len(self.start)):
            p = self.parent[i]
            if p in kids:
                kids[p].add(self.names[self.name[i]])
        return list(kids.values())

    def write(self, path) -> None:
        """Gzipped TSV, one span per line, times in ns from the first span."""
        t0 = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.names[self.name[i]]}"
                    f"\t{self.start[i] - t0}\t{self.end[i] - t0}\n"
                )
