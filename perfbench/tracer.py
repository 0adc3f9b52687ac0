"""Spans around calls into geonorm's public functions, recorded from outside.

``Tracer.install()`` replaces each listed function with a wrapper: in its
defining module and in every geonorm module that bound the same object
with ``from .x import name``.  Classes are traced through ``__init__``
(one span per construction) and methods through the class attribute.
Nothing in the library changes on disk; ``uninstall()`` restores every
binding.

A span holds name, start, end, parent span and op id.  Spans stay in
memory in flat integer arrays and are written out once, after the run.
Self time is a span's duration minus the durations of its direct child
spans, accumulated per function while the run goes.
"""

from __future__ import annotations

import functools
import gzip
import sys
import weakref
from array import array
from time import perf_counter_ns

# (module, function) for every layer; ``Class`` traces constructions and
# ``Class.method`` traces that method.
TARGETS = (
    ("field", "RatFunc"),
    ("linalg", "rref"),
    ("linalg", "invert"),
    ("linalg", "determinant"),
    ("linalg", "intersect_spans"),
    ("linalg", "extend_independent"),
    ("norms", "codiagonalize"),
    ("norms", "DiagNorm"),
    ("norms", "DiagNorm.evaluate"),
    ("norms", "sym_power_norm"),
    ("norms", "det_norm"),
    ("norms", "join"),
    ("geodesics", "geodesic"),
    ("geodesics", "NormGeodesic.at"),
    ("graded", "generate_degree_one"),
    ("graded", "graded_geodesic"),
    ("graded", "check_submultiplicative"),
    ("graded", "asymptotic_stats"),
    ("linprog", "minimize_max_affine"),
    ("plconvex", "prune"),
    ("plconvex", "compare"),
    ("plconvex", "conjugate"),
    ("plconvex", "envelope_constrained"),
    ("plconvex", "marginal_min"),
    ("plconvex", "integrate_difference"),
    ("plconvex", "integrate_abs_difference"),
    ("toric", "ToricMetric.profile"),
    ("toric", "supnorm"),
    ("toric", "fs_from_norm"),
    ("toric", "envelope_P"),
    ("toric", "energy"),
    ("toric", "d1_metric"),
    ("segments", "quantized_level"),
    ("segments", "maximal_segment"),
    ("segments", "legendre_segment"),
    ("segments", "kiselman_dual"),
    ("segments", "segment_from_dual"),
    ("segments", "diagnostics"),
    ("config", "load_config"),
    ("cli", "main"),
)

NAMES = tuple(f"{mod}.{qual}" for mod, qual in TARGETS)


def _reduces(args, kwargs):
    """Whether ``RatFunc(num, den, _reduced)`` runs the gcd reduction."""
    num = args[0] if args else kwargs.get("num", ())
    reduced = args[2] if len(args) > 2 else kwargs.get("_reduced", False)
    return not reduced and any(num)


class Tracer:
    def __init__(self):
        n = len(TARGETS)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.names = array("H")
        self.parents = array("q")
        self.ops = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.op = -1
        self.reduce_calls = 0
        self.prune_in = 0
        self.prune_out = 0
        self.profile_calls = 0
        self.profile_repeats = 0
        self._profiled = {}   # id -> weakref of metrics profiled in this op
        self._stack = []      # [span id, child ns] per open span
        self._undo = []

    # -- op boundaries --------------------------------------------------------

    def begin_op(self, op_id):
        self.op = op_id
        self._profiled = {}

    # -- install / uninstall --------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "geonorm" or name.startswith("geonorm."))]
        for idx, (mod_name, qual) in enumerate(TARGETS):
            mod = sys.modules.get(f"geonorm.{mod_name}")
            head, _, method = qual.partition(".")
            obj = getattr(mod, head, None)
            if obj is None:
                continue  # the layer no longer defines it: reported as 0
            if method or isinstance(obj, type):
                attr = method or "__init__"
                orig = obj.__dict__.get(attr)
                if orig is None:
                    continue
                setattr(obj, attr, self._wrap(idx, orig))
                self._undo.append((obj, attr, orig))
                continue
            wrapper = self._wrap(idx, obj)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is obj:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, obj))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _wrap(self, idx, fn):
        name = NAMES[idx]
        stack = self._stack
        calls, self_ns = self.calls, self.self_ns
        names, parents, ops = self.names, self.parents, self.ops
        starts, ends = self.starts, self.ends
        before = after = None
        if name == "field.RatFunc":
            def before(args, kwargs):
                if _reduces(args[1:], kwargs):
                    self.reduce_calls += 1
        elif name == "toric.ToricMetric.profile":
            def before(args, kwargs):
                obj = args[0]
                self.profile_calls += 1
                ref = self._profiled.get(id(obj))
                if ref is not None and ref() is obj:
                    self.profile_repeats += 1
                else:
                    self._profiled[id(obj)] = weakref.ref(obj)
        elif name == "plconvex.prune":
            def after(args, kwargs, result):
                self.prune_in += len(args[0].pieces)
                self.prune_out += len(result.pieces)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(self.op)
            starts.append(0)
            ends.append(0)
            frame = [sid, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
                dur = t1 - t0
                calls[idx] += 1
                self_ns[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- results --------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics: calls and self time per function, plus ratios."""
        out = {}
        for idx, name in enumerate(NAMES):
            out[f"{name}.calls"] = (self.calls[idx], "count")
            out[f"{name}.self_ms"] = (self.self_ns[idx] / 1e6, "ms")
        out["field.RatFunc.reduce_calls"] = (self.reduce_calls, "count")
        out["plconvex.prune.kept_ratio"] = (
            self.prune_out / self.prune_in if self.prune_in else 0.0, "ratio")
        out["toric.ToricMetric.profile.repeat_ratio"] = (
            self.profile_repeats / self.profile_calls if self.profile_calls else 0.0,
            "ratio")
        return out

    def write_spans(self, path):
        """Spans as gzip'd CSV, one row per span in order of entry."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("# name ids: " + ",".join(NAMES) + "\n")
            fh.write("span,name,start_ns,end_ns,parent,op\n")
            for sid in range(len(self.names)):
                fh.write(f"{sid},{self.names[sid]},{self.starts[sid]},"
                         f"{self.ends[sid]},{self.parents[sid]},{self.ops[sid]}\n")
