"""Layer spans recorded from outside the package.

``Tracer.install`` wraps the public functions and methods of every package
module, so nothing under ``src/`` carries tracing code.  A layer is a
package module; a few hot entry points get a sub-key of their own
(``uqsl2.hom_basis``, ``tl_category.jw``, ...).  Modules import each other
with ``from .x import y``, so each wrapper replaces the name in every module
that holds the original.

A call opens a span only when it changes key; a call within the same key is
counted and runs unwrapped.  On close, a span adds its duration to its
parent's child time, and its own duration less its child time to its key's
self time.  Spans of the scalar keys are only summed (there are millions);
every other span is kept in memory and written out by ``dump`` at the end.
"""

import importlib
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("scalars", "linalg", "diagrams", "tl_category", "uqsl2", "turaev",
          "functor", "cli")
BENCH = "bench"
SCALAR_KEYS = ("scalars.generic", "scalars.cyclo")

# Methods wrapped on each class; module-level public functions are found by
# name.  Predicates (is_zero, __eq__, __hash__) stay unwrapped: their cost is
# a few dict reads and belongs to the caller.
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
              "inv")
CLASS_METHODS = {
    "scalars": {"ScalarGeneric": ARITHMETIC, "ScalarCyclotomic": ARITHMETIC},
    "linalg": {"Eliminator": ("add", "reduce", "contains", "coordinates")},
    "diagrams": {
        "SimpleDiagram": ("__init__",),
        "TLMorphism": ("__init__", "__add__", "__sub__", "__neg__", "scale",
                       "compose", "tensor", "to_pairs"),
        "GeneratorWord": ("__init__",),
    },
    "uqsl2": {
        "RepMap": ("__init__", "__add__", "__sub__", "__neg__", "scale",
                   "compose", "tensor", "apply", "identity", "zero"),
        "TensorVector": ("__add__", "__sub__", "__neg__", "scale", "tensor"),
    },
    "turaev": {"HattedMorphism": ("__init__",)},
}

# Sub-keys for the entry points a per-layer metric names.
SUB_KEYS = {
    ("scalars", "ScalarCyclotomic"): "scalars.cyclo",
    ("scalars", "cyclotomic_poly"): "scalars.cyclo",
    ("uqsl2", "rep_hom_basis"): "uqsl2.hom_basis",
    ("uqsl2", "RepMap"): "uqsl2.repmap",
    ("tl_category", "jones_wenzl"): "tl_category.jw",
    ("tl_category", "jw_tensor"): "tl_category.jw",
    ("tl_category", "closure_trace"): "tl_category.trace",
    ("tl_category", "markov_closure"): "tl_category.trace",
    ("turaev", "gram_matrix"): "turaev.gram",
    ("turaev", "gram_matrix_literal"): "turaev.gram",
    ("turaev", "purified_hom_dim"): "turaev.gram",
    ("functor", "verify_equivalence"): "functor.verify",
}


def _scalar_key(args):
    # sum_scalars(values, mode) and format_scalar(x) serve both fields
    x = args[-1]
    root = getattr(x, "is_root", None)
    if root is None:
        root = type(x).__name__ == "ScalarCyclotomic"
    return "scalars.cyclo" if root else "scalars.generic"


def _base_key(layer):
    return "scalars.generic" if layer == "scalars" else layer


DYNAMIC_KEYS = {("scalars", "sum_scalars"), ("scalars", "format_scalar")}


class Tracer:
    """Span recorder for one process; create, ``install``, then ``start``."""

    def __init__(self):
        self.active = False
        self.stack = [[BENCH, 0.0, -1]]     # key, child time, span index
        self.self_s = Counter()
        self.entries = Counter()            # spans opened, per key
        self.calls = Counter()              # every call, per function
        self.counts = Counter()             # observed quantities
        self.keys = []
        self._key_id = {}
        self.span_key = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.t0 = self.t1 = 0.0

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, key, observe=None):
        tracer = self
        stack = self.stack
        calls = self.calls
        self_s = self.self_s
        entries = self.entries
        perf = time.perf_counter
        dynamic = callable(key)
        kept = None if dynamic or key in SCALAR_KEYS else self._intern(key)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[name] += 1
            k = key(args) if dynamic else key
            top = stack[-1]
            if top[0] == k:
                result = fn(*args, **kwargs)
            else:
                index = -1
                if kept is not None:
                    index = len(tracer.span_key)
                    tracer.span_key.append(kept)
                    tracer.span_parent.append(top[2])
                    tracer.span_start.append(0.0)
                    tracer.span_end.append(0.0)
                frame = [k, 0.0, index]
                stack.append(frame)
                entries[k] += 1
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf()
                    stack.pop()
                    dur = end - start
                    self_s[k] += dur - frame[1]
                    stack[-1][1] += dur
                    if index >= 0:
                        tracer.span_start[index] = start
                        tracer.span_end[index] = end
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _intern(self, key):
        if key not in self._key_id:
            self._key_id[key] = len(self.keys)
            self.keys.append(key)
        return self._key_id[key]

    def install(self):
        """Wrap every layer's public callables, in place, across modules."""
        modules = {layer: importlib.import_module(f"skeinrep.{layer}")
                   for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not callable(obj)
                        or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                key = (_scalar_key if (layer, name) in DYNAMIC_KEYS
                       else SUB_KEYS.get((layer, name), _base_key(layer)))
                replaced[obj] = self._wrap(obj, f"{layer}.{name}", key,
                                           OBSERVERS.get((layer, name)))
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                key = SUB_KEYS.get((layer, cls_name), _base_key(layer))
                for meth in methods:
                    raw = cls.__dict__[meth]
                    kind = type(raw) if isinstance(raw, staticmethod) else None
                    fn = raw.__func__ if kind else raw
                    w = self._wrap(fn, f"{layer}.{cls_name}.{meth}", key,
                                   OBSERVERS.get((layer, f"{cls_name}.{meth}")))
                    setattr(cls, meth, kind(w) if kind else w)
        for mod in list(sys.modules.values()):
            names = getattr(mod, "__dict__", None)
            if names is None or mod.__name__ == __name__:
                continue
            for attr, obj in list(names.items()):
                try:
                    w = replaced.get(obj)
                except TypeError:           # unhashable module attribute
                    continue
                if w is not None:
                    setattr(mod, attr, w)

    def start(self):
        self.active = True
        self.t0 = time.perf_counter()

    def stop(self):
        self.t1 = time.perf_counter()
        self.active = False

    def pause(self):
        """Stop recording while the benchmark checks a result."""
        self.active = False

    def resume(self):
        self.active = True

    # -- results -----------------------------------------------------------

    @property
    def wall_s(self):
        return self.t1 - self.t0

    def summary(self):
        """Counters and self times as plain data, for the parent process."""
        return {"self_s": dict(self.self_s), "entries": dict(self.entries),
                "calls": dict(self.calls), "counts": dict(self.counts),
                "wall_s": self.wall_s, "spans": len(self.span_key)}

    def dump(self, path):
        """Write the kept spans, one JSON array per line:
        [key, parent span index or -1, start, end] in seconds."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"keys": self.keys, "t0": self.t0}) + "\n")
            for row in zip(self.span_key, self.span_parent,
                           self.span_start, self.span_end):
                fh.write(json.dumps(row) + "\n")


def _rows_added(counts, args, result):
    counts["linalg.rows_added"] += 1
    if result is not None:
        counts["linalg.pivots"] += 1


def _hom_dim(counts, args, result):
    counts["uqsl2.hom_basis.dim"] += len(result)


def _term_pairs(counts, args, result):
    counts["diagrams.compose.term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _sum_terms(counts, args, result):
    counts["scalars.sum_scalars.terms"] += len(args[0])


OBSERVERS = {
    ("linalg", "Eliminator.add"): _rows_added,
    ("uqsl2", "rep_hom_basis"): _hom_dim,
    ("diagrams", "compose"): _term_pairs,
    ("scalars", "sum_scalars"): _sum_terms,
}
