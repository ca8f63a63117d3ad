"""Spans and counters recorded around canonsurf's public functions.

`Tracer.install()` replaces every public function of every layer module in
each module namespace that binds it (the package, the layer modules and the
CLI), so nested calls such as reconstruct -> compatibility_floor ->
canonical_factors each get a span. A span is a list
[name, start, end, parent span index, operation id]; spans stay in memory and
are written out once, by `dump`. Nothing is wrapped until `install` runs, so
an untraced run pays no cost.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

LAYERS = ("grid", "catalog", "invariants", "compatibility", "canonical",
          "reconstruction", "special_surfaces", "formats", "cli")

# functions whose file argument gives the bytes written or read: name -> argument index
_FILE_ARGS = {
    "formats.write_obj": 1,
    "formats.write_invariant_grid": 1,
    "formats.write_json": 1,
    "formats.read_invariant_grid": 0,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = []  # [key, value, operation id]
        self.op = None
        self._stack = []

    def count(self, key, value):
        self.counts.append([key, value, self.op])

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        file_arg = _FILE_ARGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if file_arg is not None and len(args) > file_arg:
                    path = args[file_arg]
                    if isinstance(path, str) and os.path.exists(path):
                        self.count(name + ".bytes", os.path.getsize(path))

        return traced

    def _wrap_least_squares(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            fit = fn(*args, **kwargs)
            self.count("canonical.affine_lm.nfev", int(fit.nfev))
            self.count("canonical.affine_lm.starts", 1)
            # status 0: the evaluation cap (max_nfev) stopped the fit
            self.count("canonical.affine_lm.capped", int(fit.status == 0))
            return fit

        return counted

    def install(self):
        import canonsurf
        modules = {layer: importlib.import_module(f"canonsurf.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in (canonsurf, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        canonical = modules["canonical"]
        canonical.least_squares = self._wrap_least_squares(canonical.least_squares)

    def dump(self, path, extra=None):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, **(extra or {})}, fh)


def self_times(spans):
    """Self time of every span: its duration minus the time its children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[k] for k, (_, start, end, _, _) in enumerate(spans)]
