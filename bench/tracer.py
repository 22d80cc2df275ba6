"""Span tracer installed from outside the program.

`Tracer.install` wraps every public function defined in the given layer
modules and rebinds each module-level reference to it (module attributes,
and values of module-level dicts, also inside tuples), so that calls made
between modules go through the wrapper.  A wrapper opens a span only when
the call crosses from one layer into another; calls within a layer run
unwrapped apart from one comparison.  Spans are (name, start, end, parent)
and stay in memory until `write` is called.  `uninstall` restores every
reference.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, layers: dict):
        self.layers = layers          # layer name -> module
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open = [-1]             # indices of open spans; -1 is the root
        self._layer = ["bench"]       # layer of each open span
        self._restore: list = []

    def _wrap(self, layer: str, name: str, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        open_, layer_stack, clock = self._open, self._layer, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer_stack[-1] == layer:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(name)
            parents.append(open_[-1])
            ends.append(0.0)
            open_.append(i)
            layer_stack.append(layer)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()
                layer_stack.pop()
        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one pass."""
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1])
        self.ends.append(0.0)
        self._open.append(i)
        self._layer.append("bench")
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[i] = time.perf_counter()
            self._open.pop()
            self._layer.pop()

    def install(self) -> None:
        wrapped = {}
        for layer, mod in self.layers.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap(layer, f"{layer}.{attr}", obj)

        def swap(obj):
            if id(obj) in wrapped:
                return wrapped[id(obj)]
            if isinstance(obj, tuple) and any(id(o) in wrapped for o in obj):
                return tuple(wrapped.get(id(o), o) for o in obj)
            return obj

        for mod in self.layers.values():
            for attr, obj in list(vars(mod).items()):
                new = swap(obj)
                if new is not obj:
                    self._restore.append((setattr, mod, attr, obj))
                    setattr(mod, attr, new)
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        new = swap(val)
                        if new is not val:
                            self._restore.append((dict.__setitem__, obj, key, val))
                            obj[key] = new

    def uninstall(self) -> None:
        for put, target, key, original in reversed(self._restore):
            put(target, key, original)
        self._restore.clear()

    def self_times(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Self time per layer over spans[first:last]: each span's duration
        minus the part covered by its child spans."""
        last = len(self.names) if last is None else last
        child = [0.0] * (last - first)
        for i in range(first, last):
            p = self.parents[i]
            if p >= first:
                child[p - first] += self.ends[i] - self.starts[i]
        out: dict[str, float] = {}
        for i in range(first, last):
            layer = self.names[i].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (self.ends[i] - self.starts[i]
                                                - child[i - first])
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "start": self.starts,
                       "end": self.ends, "parent": self.parents}, fh)
