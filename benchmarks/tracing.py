"""Per-layer tracing by wrapping nilgeom's public functions from outside.

Every public function of the traced modules is replaced, in its own module
and in every nilgeom module that imported it, by a wrapper that opens a span.
A span records its name, start, end, the span that caused it and the
operation it belongs to; self time is its duration minus the time covered by
its children.  Two kinds of call are folded into their caller instead of
getting a span of their own, because a span would cost more than the call:
``WeilElement`` multiplication (counted and timed as a leaf) and a function's
direct recursion into itself (counted; its time stays in the outer span).
Per-term helpers listed in ``UNTRACED`` are not wrapped at all.

Spans stay in memory and are written, gzip-compressed as JSON lines, when
the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("weil", "expr", "geometry", "coalgebra", "_linalg", "cli")

# helpers that run once per monomial, term or expression node
UNTRACED = {
    "weil": {"mono_degree", "mono_key", "mono_mul", "unit_monomial", "all_monomials"},
    "expr": {"add", "sub", "mul", "div", "pow_", "variables", "is_constant", "scalar_function"},
    "_linalg": {"identity", "mat_vec", "mat_mul", "transpose"},
}

BUILDERS = ("truncated_algebra", "laplace_algebra", "quotient_algebra", "tensor_algebra", "algebra_from_json")
DETECTORS = ("conformal_check", "preserves_laplace_neighbors", "cr_check", "is_harmonic_at",
             "preserves_affine_combinations", "is_laplace_neighbor")
DENSE = ("det", "solve", "invert", "cholesky")
JET_ORDERS = (2, 3, 4, 5, 6)
CURVED_DIMS = (2, 3, 4)
PIPELINE_DIMS = tuple(range(3, 7))


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, name, op, start, end, self seconds)
        self.stack = []  # open frames: [name, id, child seconds]
        self.next_id = 0
        self.op = "setup"
        self.phase = "setup"
        self.calls = {"setup": Counter(), "loop": Counter()}
        self.self_s = {"setup": defaultdict(float), "loop": defaultdict(float)}
        self.samples = defaultdict(list)  # classified inclusive durations (seconds)
        self._restore = []
        self._pending_pipeline = {}
        self.evaluate = None

    # -- installation -----------------------------------------------------

    def install(self):
        from nilgeom import expr, weil

        self.evaluate = expr.evaluate
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"nilgeom.{layer}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_") and name not in UNTRACED.get(layer, ())):
                    originals[obj] = self._wrap(f"{layer}.{name}", obj)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "nilgeom" or module_name.startswith("nilgeom.")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, originals[obj])
        mul = self._leaf("weil.mul", weil.WeilElement.__mul__)
        for attr in ("__mul__", "__rmul__"):
            self._restore.append((weil.WeilElement, attr, getattr(weil.WeilElement, attr)))
            setattr(weil.WeilElement, attr, mul)

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        frame = [name, self.next_id, 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def _close(self, frame, start, end):
        self.stack.pop()
        duration = end - start
        own = duration - frame[2]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        self.self_s[self.phase][frame[0]] += own
        self.spans.append((frame[1], parent[1] if parent else None, frame[0], self.op, start, end, own))
        return duration

    def run_op(self, op_id, kind, fn):
        """Run one benchmark operation under a root span of its own."""
        self.op = op_id
        frame = self._open(f"op.{kind}")
        start = perf_counter()
        try:
            return fn()
        finally:
            self._close(frame, start, perf_counter())

    def _wrap(self, name, fn):
        tracer = self
        classify = getattr(self, "_classify_" + name.split(".", 1)[1], None)
        short = name.split(".", 1)[1]
        detector = short in DETECTORS

        def wrapper(*args, **kwargs):
            tracer.calls[tracer.phase][name] += 1
            stack = tracer.stack
            if stack and stack[-1][0] is name:
                return fn(*args, **kwargs)
            key = classify(args, kwargs) if classify else None
            frame = tracer._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._close(frame, start, perf_counter())
            if key is not None:
                tracer.samples[key].append(duration)
            if detector:
                tracer.samples[f"geometry.{short}"].append(duration)
            if short == "subcoalgebra_generated":
                tracer._pending_pipeline[id(result)] = duration
            elif short == "dual_algebra" and id(args[0]) in tracer._pending_pipeline:
                total = tracer._pending_pipeline.pop(id(args[0])) + duration
                tracer.samples[f"coalgebra.pipeline.dim{args[0].dimension}"].append(total)
            elif name == "cli.main":
                tracer.samples["cli.main"].append(duration)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, name, fn):
        tracer = self

        def leaf(a, b):
            start = perf_counter()
            result = fn(a, b)
            duration = perf_counter() - start
            tracer.calls[tracer.phase][name] += 1
            tracer.self_s[tracer.phase][name] += duration
            if tracer.stack:
                tracer.stack[-1][2] += duration
            return result

        leaf.__wrapped__ = fn
        return leaf

    # -- classification of calls from their inputs ---------------------------

    def _classify_jet_eval(self, args, kwargs):
        offsets = args[2] if len(args) > 2 else kwargs.get("offsets")
        if isinstance(offsets, (list, tuple)) and offsets:
            return f"expr.jet_eval.order{offsets[0].algebra.degree_bound}"
        return None

    def _classify_laplacian(self, args, kwargs):
        metric, x = args[0], args[2]
        mode = args[3] if len(args) > 3 else kwargs.get("mode", "exact")
        if mode == "float":
            return "geometry.laplacian.float"
        if metric.is_standard_flat():
            return "geometry.laplacian.flat"
        n = metric.n
        identity = all(self.evaluate(metric.entry(i, j), x) == (1 if i == j else 0)
                       for i in range(n) for j in range(n))
        return "geometry.laplacian.curved_identity" if identity else f"geometry.laplacian.curved_exact.n{n}"

    # -- results ---------------------------------------------------------

    def loop_started(self):
        self.phase = "loop"

    def per_layer(self, rounds, import_ms=0.0):
        """Totals are for one set-up plus one round of the operation list;
        ``*_ms`` names without ``self`` are medians of one call."""

        def calls(*names):
            return sum(self.calls["setup"][n] + self.calls["loop"][n] / rounds for n in names)

        def self_ms(*names):
            return 1000 * sum(self.self_s["setup"][n] + self.self_s["loop"][n] / rounds for n in names)

        def median_ms(*keys):
            values = [v for k in keys for v in self.samples.get(k, ())]
            return 1000 * statistics.median(values) if values else 0.0

        curved = [k for k in self.samples if k.startswith("geometry.laplacian.curved_exact.n")]
        m = {
            "weil.mul.calls": (calls("weil.mul"), "count"),
            "weil.mul.self_ms": (self_ms("weil.mul"), "ms"),
            "weil.build.calls": (calls(*(f"weil.{b}" for b in BUILDERS)), "count"),
            "weil.build.self_ms": (self_ms(*(f"weil.{b}" for b in BUILDERS)), "ms"),
            "weil.quotient.self_ms": (self_ms("weil.quotient_algebra"), "ms"),
            "expr.jet_eval.calls": (calls("expr.jet_eval"), "count"),
            "expr.jet_eval.self_ms": (self_ms("expr.jet_eval"), "ms"),
            "expr.diff.calls": (calls("expr.diff"), "count"),
            "expr.taylor_coefficients.self_ms": (self_ms("expr.taylor_coefficients"), "ms"),
            "expr.evaluate.calls": (calls("expr.evaluate"), "count"),
        }
        for k in JET_ORDERS:
            m[f"expr.jet_eval.order{k}_ms"] = (median_ms(f"expr.jet_eval.order{k}"), "ms")
        m["expr.parse.self_ms"] = (self_ms("expr.parse_expr", "expr.parse_function"), "ms")
        m["geometry.laplacian.flat_ms"] = (median_ms("geometry.laplacian.flat"), "ms")
        m["geometry.laplacian.curved_exact_ms"] = (median_ms(*curved), "ms")
        m["geometry.laplacian.curved_identity_ms"] = (median_ms("geometry.laplacian.curved_identity"), "ms")
        m["geometry.laplacian.float_ms"] = (median_ms("geometry.laplacian.float"), "ms")
        for n in CURVED_DIMS:
            m[f"geometry.laplacian.curved_exact.n{n}_ms"] = (median_ms(f"geometry.laplacian.curved_exact.n{n}"), "ms")
        m["geometry.geodesic_chart.self_ms"] = (self_ms("geometry.geodesic_chart"), "ms")
        m["geometry.christoffel.self_ms"] = (self_ms("geometry.christoffel"), "ms")
        for d in DETECTORS:
            m[f"geometry.{d}_ms"] = (median_ms(f"geometry.{d}"), "ms")
        m["coalgebra.subcoalgebra_generated.self_ms"] = (self_ms("coalgebra.subcoalgebra_generated"), "ms")
        m["coalgebra.dual_algebra.self_ms"] = (self_ms("coalgebra.dual_algebra"), "ms")
        for d in PIPELINE_DIMS:
            m[f"coalgebra.pipeline.dim{d}_ms"] = (median_ms(f"coalgebra.pipeline.dim{d}"), "ms")
        m["linalg.solve_general.calls"] = (calls("_linalg.solve_general"), "count")
        m["linalg.solve_general.self_ms"] = (self_ms("_linalg.solve_general"), "ms")
        m["linalg.nullspace.self_ms"] = (self_ms("_linalg.nullspace"), "ms")
        m["linalg.dense.calls"] = (calls(*(f"_linalg.{d}" for d in DENSE)), "count")
        m["cli.import_ms"] = (import_ms, "ms")
        m["cli.main_ms"] = (median_ms("cli.main"), "ms")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, parent, name, op, start, end, own in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "op": op,
                                     "start_ms": round(start * 1000, 4), "end_ms": round(end * 1000, 4),
                                     "self_ms": round(own * 1000, 4)}) + "\n")
