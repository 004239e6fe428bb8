"""Per-layer tracing from outside the program.

The tracer replaces a public function of one kndirac module wherever
another module binds it (and in the benchmark's own `PROGRAM` table) with a
wrapper that times the call and counts its work.  A layer's self time is its
span minus the spans of the wrapped calls made inside it.  Spans are folded
into per-layer totals as they close instead of being stored: the cauchy
workload alone makes about 1.4 million wrapped calls per pass.

Functions a module calls through its own globals are not wrapped, so that a
layer never nests inside itself; their time stays in the calling layer.  A
wrapped function that no longer exists reports zero calls.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("geometry", "tetrads", "dirac", "separation", "angular", "radial", "cli")

# (defining module, function name) -> layer
LAYER_OF = {
    ("kndirac.geometry", "tortoise_inverse"): "geometry.inverse",
    ("kndirac.geometry", "interior_offset"): "geometry.inverse",
    ("kndirac.separation", "radial_potential"): "separation.potential",
    ("kndirac.separation", "radial_potential_from_r"): "separation.potential",
    ("kndirac.radial", "integrate"): "radial.dp",
    ("kndirac.radial", "far_field_trajectory"): "radial.magnus",
    ("kndirac.radial", "fit_infinity"): "radial.fit",
    ("kndirac.radial", "fit_horizon"): "radial.fit",
    ("kndirac.angular", "angular_eigenpairs"): "angular",
    ("scipy.linalg._decomp", "eigh"): "angular.eigh",
    ("kndirac.cli", "main"): "cli",
}
# every public function of these modules is a span of the module's layer
WHOLE_MODULE_LAYERS = {"kndirac.tetrads": "tetrads", "kndirac.dirac": "dirac"}


class Layer:
    __slots__ = ("calls", "self_s", "total_s", "points", "steps", "rejected", "evals_in_dp", "rows", "bytes")

    def __init__(self):
        self.calls = self.points = self.steps = self.rejected = 0
        self.evals_in_dp = self.rows = self.bytes = 0
        self.self_s = self.total_s = 0.0


def _outdir(argv):
    argv = list(argv)
    return argv[argv.index("--out") + 1] if "--out" in argv else "out"


def _dir_size(path):
    return sum(os.path.getsize(os.path.join(path, fn)) for fn in os.listdir(path)) \
        if os.path.isdir(path) else 0


class Tracer:
    def __init__(self):
        self.layers = defaultdict(Layer)
        self._child = []  # one open span per entry: time spent in its wrapped children
        self._dp_depth = 0
        self._patched = []

    # -- counting hooks, called after the wrapped function returns ---------
    def _count(self, layer, args, out):
        st = self.layers[layer]
        if layer in ("geometry.inverse", "separation.potential"):
            st.points += int(np.size(args[0]))
            if layer == "separation.potential" and self._dp_depth:
                st.evals_in_dp += 1
        elif layer in ("radial.dp", "radial.magnus"):
            st.steps += int(getattr(out, "steps", 0))
            st.rejected += int(getattr(out, "rejected", 0))
        elif layer == "angular.eigh":
            st.rows += int(np.shape(args[0])[0])
        elif layer == "cli":
            st.bytes += _dir_size(_outdir(args[0] if args else []))

    def wrap(self, layer, fn):
        child = self._child
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            child.append(0.0)
            if layer == "radial.dp":
                tracer._dp_depth += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                inner = child.pop()
                if layer == "radial.dp":
                    tracer._dp_depth -= 1
                st = tracer.layers[layer]
                st.calls += 1
                st.self_s += span - inner
                st.total_s += span
                if child:
                    child[-1] += span
            tracer._count(layer, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _layer_of(self, obj):
        if not callable(obj):
            return None
        mod, name = getattr(obj, "__module__", None), getattr(obj, "__name__", None)
        if (mod, name) in LAYER_OF:
            return LAYER_OF[(mod, name)]
        if mod in WHOLE_MODULE_LAYERS and name and not name.startswith("_") \
                and not isinstance(obj, type):
            return WHOLE_MODULE_LAYERS[mod]
        return None

    def install(self, program):
        """Wrap every binding of a traced function in the other kndirac
        modules and in the benchmark's `program` namespace."""
        import kndirac  # noqa: F401  (loads every module)

        targets = [sys.modules[f"kndirac.{m}"] for m in MODULES if f"kndirac.{m}" in sys.modules]
        for module in targets + [program]:
            for attr, obj in list(vars(module).items()):
                layer = self._layer_of(obj)
                if layer is None or getattr(obj, "__module__", None) == getattr(module, "__name__", ""):
                    continue
                self._patched.append((module, attr, obj))
                setattr(module, attr, self.wrap(layer, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def metrics(self, passes):
        """Per-pass per-layer metrics (counts are whole: every pass is identical)."""
        L = self.layers

        def per(v):
            return v / passes

        inv, pot, dp, mag = L["geometry.inverse"], L["separation.potential"], L["radial.dp"], L["radial.magnus"]
        ang, eig, cli = L["angular"], L["angular.eigh"], L["cli"]
        dp_attempts = dp.steps + dp.rejected
        values = {
            "geometry.inverse.calls": (per(inv.calls), "count"),
            "geometry.inverse.points": (per(inv.points), "count"),
            "geometry.inverse.self_s": (per(inv.self_s), "s"),
            "geometry.inverse.ns_per_point": (1e9 * inv.self_s / inv.points if inv.points else 0.0, "ns"),
            "separation.potential.calls": (per(pot.calls), "count"),
            "separation.potential.points": (per(pot.points), "count"),
            "separation.potential.self_s": (per(pot.self_s), "s"),
            "radial.dp.steps": (per(dp.steps), "count"),
            "radial.dp.rejected": (per(dp.rejected), "count"),
            "radial.dp.evals_per_step": (pot.evals_in_dp / dp_attempts if dp_attempts else 0.0, "1"),
            "radial.dp.self_s": (per(dp.self_s), "s"),
            "radial.dp.us_per_step": (1e6 * dp.total_s / dp_attempts
                                      if dp_attempts else 0.0, "us"),
            "radial.magnus.steps": (per(mag.steps), "count"),
            "radial.magnus.self_s": (per(mag.self_s), "s"),
            "radial.magnus.ns_per_step": (1e9 * mag.total_s / mag.steps
                                          if mag.steps else 0.0, "ns"),
            "radial.fit.self_s": (per(L["radial.fit"].self_s), "s"),
            "angular.calls": (per(ang.calls), "count"),
            "angular.matrix_rows": (per(eig.rows), "count"),
            "angular.self_s": (per(ang.self_s), "s"),
            "angular.eigh_s": (per(eig.self_s), "s"),
            "tetrads.calls": (per(L["tetrads"].calls), "count"),
            "tetrads.self_s": (per(L["tetrads"].self_s), "s"),
            "dirac.calls": (per(L["dirac"].calls), "count"),
            "dirac.self_s": (per(L["dirac"].self_s), "s"),
            "cli.tasks": (per(cli.calls), "count"),
            "cli.self_s": (per(cli.self_s), "s"),
            "cli.bytes_written": (per(cli.bytes), "B"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
