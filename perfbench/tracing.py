"""Per-layer spans and counters, installed from outside the program.

`Tracer.install()` wraps public functions of the `qpois` modules (and three
`numpy.linalg` entry points) and rebinds every name that refers to them in
any `qpois` module, since `cli`, `quasi`, `dirac` and `charvar` bind names
with `from .x import y`.  Spanned functions get a call count and self time (a
span's duration minus the child spans it covers); hot primitives get a call
count only, to keep the overhead small.  `uninstall()` restores every name.
The benchmark runs single-threaded while traced, so one span stack suffices.
"""

from __future__ import annotations

import importlib
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

SPANS = [
    ("fields", "FormField.frame_matrix"),
    ("fields", "Bivector.frame_matrix"),
    ("fields", "jacobiator"),
    ("fields", "bracket_funcs"),
    ("quasi", "momentum_residual"),
    ("quasi", "duality_residual"),
    ("quasi", "reconstruct_dual"),
    ("quasi", "nondegeneracy_check"),
    ("quasi", "jacobiator_vs_phi"),
    ("dirac", "dirac_booleans"),
    ("dirac", "prop_tech_chain"),
    ("dirac", "projections_pq"),
    ("dirac", "cartan_dirac_fibers"),
    ("charvar", "solve_relator"),
    ("charvar", "bracket"),
    ("charvar", "jacobi_invariants"),
    ("charvar", "poisson_ideal_residual"),
    ("groupgeom", "SitePoint.frame"),
    ("groupgeom", "random_point"),
    ("cli", "build_setup"),
    ("cli", "write_report"),
]

COUNTED = [
    ("fields", "FormField.evaluate"),
    ("groupgeom", "word_eval"),
    ("groupgeom", "word_tangent"),
    ("duals", "dexpm"),
    ("duals", "apply_linear"),
    ("liealg", "adjoint_matrix"),
    ("liealg", "cartan3"),
]

NUMPY_COUNTED = ["inv", "lstsq", "svd"]

# (metric, unit, better); the order of BENCHMARK.json's per_layer list
METRICS = [
    ("fields.FormField.frame_matrix.calls", "count", "lower"),
    ("fields.FormField.frame_matrix.self_s", "s", "lower"),
    ("fields.FormField.evaluate.calls", "count", "lower"),
    ("fields.Bivector.frame_matrix.self_s", "s", "lower"),
    ("fields.jacobiator.calls", "count", "lower"),
    ("fields.jacobiator.self_s", "s", "lower"),
    ("fields.bracket_funcs.calls", "count", "lower"),
    ("fields.bracket_funcs.self_s", "s", "lower"),
    ("quasi.momentum_residual.self_s", "s", "lower"),
    ("quasi.duality_residual.self_s", "s", "lower"),
    ("quasi.reconstruct_dual.self_s", "s", "lower"),
    ("quasi.nondegeneracy_check.self_s", "s", "lower"),
    ("quasi.jacobiator_vs_phi.self_s", "s", "lower"),
    ("dirac.dirac_booleans.self_s", "s", "lower"),
    ("dirac.prop_tech_chain.self_s", "s", "lower"),
    ("dirac.projections_pq.self_s", "s", "lower"),
    ("dirac.cartan_dirac_fibers.self_s", "s", "lower"),
    ("charvar.solve_relator.calls", "count", "lower"),
    ("charvar.solve_relator.self_s", "s", "lower"),
    ("charvar.solve_relator.iters", "count", "lower"),
    ("charvar.solve_relator.success_ratio", "ratio", "higher"),
    ("charvar.bracket.self_s", "s", "lower"),
    ("charvar.jacobi_invariants.self_s", "s", "lower"),
    ("charvar.poisson_ideal_residual.self_s", "s", "lower"),
    ("groupgeom.word_eval.calls", "count", "lower"),
    ("groupgeom.word_tangent.calls", "count", "lower"),
    ("groupgeom.SitePoint.frame.self_s", "s", "lower"),
    ("groupgeom.random_point.self_s", "s", "lower"),
    ("duals.dexpm.calls", "count", "lower"),
    ("duals.apply_linear.calls", "count", "lower"),
    ("liealg.adjoint_matrix.calls", "count", "lower"),
    ("liealg.cartan3.calls", "count", "lower"),
    ("cli.build_setup.self_s", "s", "lower"),
    ("cli.write_report.self_s", "s", "lower"),
    ("cli.report_bytes", "B", "lower"),
    ("numpy.linalg.inv.calls", "count", "lower"),
    ("numpy.linalg.lstsq.calls", "count", "lower"),
    ("numpy.linalg.svd.calls", "count", "lower"),
]


class Tracer:
    def __init__(self):
        self._restore = []
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.solves_ok = 0
        self.solver_iters = 0
        self.report_bytes = 0
        self._stack = []

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.self_s[name] += dt - self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _solver(self, fn):
        def wrapper(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.solver_iters += getattr(exc, "iters", None) or 0
                raise
            self.solves_ok += 1
            self.solver_iters += out.iters
            return out
        return wrapper

    def _writer(self, fn):
        def wrapper(report, path):
            fn(report, path)
            self.report_bytes += os.path.getsize(path)
        return wrapper

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, modname, qualname, make):
        mod = importlib.import_module(f"qpois.{modname}")
        name = f"{modname}.{qualname}"
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(mod, cls_name)
            self._set(cls, meth, make(name, cls.__dict__[meth]))
            return
        orig = getattr(mod, qualname)
        wrapped = make(name, orig)
        if modname == "charvar" and qualname == "solve_relator":
            wrapped = self._solver(wrapped)
        elif modname == "cli" and qualname == "write_report":
            wrapped = self._writer(wrapped)
        for other in [m for k, m in sys.modules.items()
                      if k == "qpois" or k.startswith("qpois.")]:
            for attr, val in list(vars(other).items()):
                if val is orig:
                    self._set(other, attr, wrapped)

    def install(self):
        for modname, qualname in SPANS:
            self._wrap(modname, qualname, self._spanned)
        for modname, qualname in COUNTED:
            self._wrap(modname, qualname, self._counted)
        for name in NUMPY_COUNTED:
            self._set(np.linalg, name,
                      self._counted(f"numpy.linalg.{name}",
                                    getattr(np.linalg, name)))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- read-out ---------------------------------------------------------

    def snapshot(self):
        """Metrics of the work since the last reset."""
        out = {}
        for metric, _, _ in METRICS:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = self.calls[base]
            elif kind == "self_s":
                out[metric] = self.self_s[base]
        solves = self.calls["charvar.solve_relator"]
        out["charvar.solve_relator.iters"] = self.solver_iters
        out["charvar.solve_relator.success_ratio"] = (
            self.solves_ok / solves if solves else 1.0)
        out["cli.report_bytes"] = self.report_bytes
        return out
