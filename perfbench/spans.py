"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the library, every public function and
method of each freepoisson layer module, and rebinds each wrapper
wherever the original object is bound in any freepoisson module (so a
name imported into another module, such as ``enumerate_nc`` in ``ncps``,
is traced too).  Spans are kept in memory with parent links and written
out once, at the end of the run.  A span's self time is its duration
minus the time its child spans cover.
"""

import functools
import inspect
import json
import sys
import time

LAYERS = ("ncpart", "ncps", "algebra", "fock", "transforms", "quantize",
          "classify", "variation", "cli")

# Span fields, by position.
NAME, LAYER, PARENT, OP, START, END = range(6)


class Tracer:
    """In-memory span recorder; off until ``enabled`` is set."""

    def __init__(self):
        self.enabled = False
        self.op = -1
        self.spans = []
        self._stack = []
        self.counts = {}
        self.maxima = {}
        self._observers = {}

    # -- recording ---------------------------------------------------------

    def begin(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, layer, parent, self.op,
                           time.perf_counter(), 0.0])

    def end(self):
        self.spans[self._stack.pop()][END] = time.perf_counter()

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def maximum(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def observe(self, qualname, fn):
        """Call ``fn(tracer, result)`` after each traced call of qualname."""
        self._observers[qualname] = fn

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, layer, qualname):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.begin(qualname, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            seen = tracer._observers.get(qualname)
            if seen is not None:
                seen(tracer, result)
            return result

        return traced

    def install(self, package="freepoisson"):
        """Wrap the public API of every layer module of ``package``."""
        import importlib
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(package + "." + layer)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__",
                                                   None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if not inspect.isgeneratorfunction(obj):
                        replaced[id(obj)] = self._wrap(obj, layer, name)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or
                                   modname.startswith(package + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and callable(obj):
                    setattr(mod, name, replaced[id(obj)])

    def _wrap_class(self, cls, layer):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qualname = cls.__name__ + "." + name
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(
                    self._wrap(attr.__func__, layer, qualname)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(
                    self._wrap(attr.__func__, layer, qualname)))
            elif inspect.isfunction(attr) and \
                    not inspect.isgeneratorfunction(attr):
                setattr(cls, name, self._wrap(attr, layer, qualname))

    # -- aggregation --------------------------------------------------------

    def self_times(self):
        """Per-span self time, in span order."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def write(self, path):
        """One JSON list per span: id, parent, op, layer, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, s[PARENT], s[OP], s[LAYER], s[NAME],
                                     round(s[START], 7), round(s[END], 7)])
                         + "\n")
