"""Layer spans recorded from outside ``superfock``.

A layer is one module of the package.  ``Tracer.install`` wraps the public
functions and methods of each layer module (plus the arithmetic operators of
its classes) and rebinds every reference the package holds to them.  A
wrapped call opens a span only when it crosses a layer boundary, that is when
the innermost open span belongs to another layer.  A call from inside its own
layer costs one extra frame and opens no span, so the trace stays affordable
although the polynomial layer makes millions of calls.

``QQi`` operations get no spans: one costs about a microsecond, less than a
span would add.  They are counted instead (``scalar_ops``).

Spans are kept in flat arrays and written out once, after the run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import time
from array import array

ROOT_LAYER = "verify"
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__neg__", "__pow__", "__truediv__", "__rtruediv__")
COUNTED = ("scalars", "QQi")  # module and class whose operations are counted only


def self_times(start, end, parent) -> list[float]:
    """Self time of each span: its duration minus the time its children cover.

    Spans are single-threaded and properly nested, so the children of one span
    never overlap and the time they cover is the sum of their durations.
    ``parent[i]`` is the index of span i's parent, or -1 for a root span.
    """
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


class Tracer:
    def __init__(self):
        self.names: list[str] = []    # span name, by name id
        self.layers: list[str] = []   # layer of each name id
        self.name_id = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run_id = array("I")
        self.max_terms: dict[str, int] = {}
        self._ops = [0]
        self._stack = [(ROOT_LAYER, -1)]
        self._run = 0
        self._root = self._intern(ROOT_LAYER, "verify.run_suite")

    # -- recording -----------------------------------------------------------

    def _intern(self, layer: str, name: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def _open(self, nid: int, parent: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(parent)
        self.run_id.append(self._run)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def span_wrapper(self, layer: str, name: str, fn):
        nid = self._intern(layer, name)
        stack = self._stack
        max_terms = self.max_terms
        end = self.end
        opener = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top[0] == layer:
                return fn(*args, **kwargs)
            idx = opener(nid, top[1])
            stack.append((layer, idx))
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            terms = getattr(result, "terms", None)
            if isinstance(terms, dict) and len(terms) > max_terms.get(layer, 0):
                max_terms[layer] = len(terms)
            return result

        return wrapper

    def counting_wrapper(self, fn):
        ops = self._ops

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ops[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def run(self, run: int):
        """One root span around one ``run_suite`` call; its spans share ``run``."""
        self._run = run
        idx = self._open(self._root, -1)
        self._stack.append((ROOT_LAYER, idx))
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    @property
    def scalar_ops(self) -> int:
        return self._ops[0]

    # -- installation ----------------------------------------------------------

    def install(self, layers: dict[str, object], package: list) -> None:
        """Wrap each layer module (short name -> module) and rebind references.

        ``package`` lists every module of the package; their globals are
        rebound, since ``from .x import f`` copied the unwrapped objects.
        """
        replaced: dict[int, tuple] = {}
        for short, mod in layers.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if short == COUNTED[0]:
                    if inspect.isclass(obj) and obj.__name__ == COUNTED[1]:
                        _wrap_methods(obj, lambda attr: attr == "__init__" or attr in ARITHMETIC,
                                      lambda attr, fn: self.counting_wrapper(fn))
                elif inspect.isclass(obj):
                    _wrap_methods(obj, lambda attr: not attr.startswith("_") or attr in ARITHMETIC,
                                  lambda attr, fn, cls=obj, layer=short:
                                  self.span_wrapper(layer, f"{layer}.{cls.__name__}.{attr}", fn))
                elif callable(obj) and not attr.startswith("_"):
                    replaced[id(obj)] = (obj, self.span_wrapper(short, f"{short}.{attr}", obj))
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    # -- results -----------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict]:
        """Per layer: number of spans, summed self time, largest result."""
        own = self_times(self.start, self.end, self.parent)
        out: dict[str, dict] = {}
        for i, nid in enumerate(self.name_id):
            layer = self.layers[nid]
            row = out.setdefault(layer, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own[i]
        for layer, terms in self.max_terms.items():
            out.setdefault(layer, {"calls": 0, "self_s": 0.0})["max_terms"] = terms
        return out

    def write(self, path) -> int:
        """Write one line per span: name, start, end, parent index, run id.

        The file is gzip-compressed: a traced sample can hold over a million
        spans, and their names repeat.
        """
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("name\tstart\tend\tparent\trun\n")
            for i, nid in enumerate(self.name_id):
                fh.write(f"{self.names[nid]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                         f"\t{self.parent[i]}\t{self.run_id[i]}\n")
        return len(self.start)


def _wrap_methods(cls, wanted, make) -> None:
    """Replace each method of ``cls`` whose name passes ``wanted`` by ``make(name, fn)``."""
    for attr, raw in list(vars(cls).items()):
        if not wanted(attr):
            continue
        if isinstance(raw, (staticmethod, classmethod)):
            setattr(cls, attr, type(raw)(make(attr, raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, make(attr, raw))
