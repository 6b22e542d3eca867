"""An outside-in tracer for the cosegal layers.

`Tracer.install()` replaces every module-level function of the layer
modules with a timing wrapper, at every binding site: the defining module
and every cosegal module that imported the function by name (as in
`from .base import tensor`). `MMorphism.then` and the `__eq__` of
`MObject` and `MMorphism` are wrapped on their classes. `remove()` puts
every original back. The package itself is not modified.

Spans are kept in flat arrays (name, start, end, parent); a span's self
time is its duration minus the durations of its direct children. Spans
are timed with `time.perf_counter`, the clock of the benchmark's own
times, so that a self time can be set against a pass's `run_s`. Work
counters are computed from the call arguments and results, inside a
child span named `trace.counters` so that their cost stays out of the
layer self times.
"""

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("ratmat", "base", "colim", "shapes", "precat", "adjoints",
          "homotopy")
PACKAGE = "cosegal"
COUNTERS = "trace.counters"
# methods wrapped on their classes: (module, class, attribute, span name)
METHODS = (("base", "MMorphism", "then", "base.then"),
           ("base", "MMorphism", "__eq__", "base.eq"),
           ("base", "MObject", "__eq__", "base.eq"))
# several functions reported under one name
ALIASES = {"adjoints.upsilon_map": "adjoints.upsilon",
           "adjoints.upsilon_transpose": "adjoints.upsilon"}


def _nnz(m):
    return sum(1 for row in m for x in row if x)


def _entries(m):
    return len(m) * len(m[0]) if m else 0


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = defaultdict(int)
        self._seen_tensor_args = set()
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def span(self, name):
        """A context manager recording one span, for the benchmark's own
        regions."""
        return _Span(self, self._id(name))

    def _wrap(self, name, fn):
        nid = self._id(name)
        count = getattr(self, "_count_" + name.replace(".", "_"), None)
        cid = self._id(COUNTERS)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(i)
            if count is not None:
                j = open_(cid)
                try:
                    count(args, out)
                finally:
                    close(j)
            return out

        return traced

    # -- work counters -----------------------------------------------------

    def _count_ratmat_kron(self, args, out):
        self.counts["ratmat.kron.entries"] += _entries(out)
        self.counts["ratmat.kron.nnz"] += _nnz(out)

    def _count_ratmat_matmul(self, args, out):
        a, b = args[0], args[1]
        self.counts["ratmat.matmul.madds"] += _entries(a) * (
            len(b[0]) if b else 0)
        self.counts["ratmat.matmul.operand_entries"] += (
            _entries(a) + _entries(b))
        self.counts["ratmat.matmul.operand_nnz"] += _nnz(a) + _nnz(b)

    def _count_ratmat_rref(self, args, out):
        self.counts["ratmat.rref.entries"] += _entries(args[0])

    def _count_base_tensor(self, args, out):
        key = (hash(args[0]), hash(args[1]))
        if key in self._seen_tensor_args:
            self.counts["base.tensor.repeats"] += 1
        else:
            self._seen_tensor_args.add(key)

    # -- installing --------------------------------------------------------

    def install(self):
        """Wrap every layer function at every binding site."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[PACKAGE + "." + layer]
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = ALIASES.get(layer + "." + attr,
                                       layer + "." + attr)
                    wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(modules[PACKAGE + "." + layer], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
        return self

    def remove(self):
        """Restore every original binding."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- reading the spans -------------------------------------------------

    def self_times(self):
        """Per-name totals of self time and calls, and per-root-name
        totals of self time by layer.

        Returns (by_name, by_root): by_name maps a span name to
        [calls, self_s]; by_root maps a root span name to {layer:
        self_s}, where a span's layer is the part of its name before the
        first dot."""
        n = len(self.name)
        parent, start, end, name = self.parent, self.start, self.end, self.name
        child = [0.0] * n
        root = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
                root[i] = root[p]
            else:
                root[i] = i
        by_name = defaultdict(lambda: [0, 0.0])
        by_root = defaultdict(lambda: defaultdict(float))
        layer_of = [nm.split(".", 1)[0] if nm != COUNTERS else COUNTERS
                    for nm in self.names]
        for i in range(n):
            own = end[i] - start[i] - child[i]
            entry = by_name[self.names[name[i]]]
            entry[0] += 1
            entry[1] += own
            by_root[self.names[name[root[i]]]][layer_of[name[i]]] += own
        return by_name, by_root


class _Span:
    __slots__ = ("tracer", "nid", "i")

    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.i = self.tracer._open(self.nid)

    def __exit__(self, *exc):
        self.tracer._close(self.i)
        return False
