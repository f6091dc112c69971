"""The benchmark's per-layer tracer still finds the functions it wraps.

`perfbench/tracing.py` wraps functions by module and qualified name, methods
through the class dictionary; a rename in the package would make
`--trace 1` fail only when the benchmark runs.  These install the tracer,
run checks and restore the package, and resolve every exported name.
"""

import importlib
import sys
from pathlib import Path

import pytest

import qpois.charvar as charvar
import qpois.cli as cli
import qpois.quasi as quasi

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_tracer_wraps_and_restores_package_functions():
    originals = {"quasi": quasi.momentum_residual, "cli": cli.momentum_residual,
                 "run_suite": cli.run_suite}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.momentum_residual is not originals["cli"]
        report = cli.run_suite({
            "group": {"family": "SL", "n": 2},
            "site": {"genus": 1, "class_reps": []},
            "seed": 3,
            "samples": 2,
            "checks": ["momentum_form_law"],
        }, "all")
    finally:
        tracer.uninstall()
    assert [r["status"] for r in report["checks"]] == ["passed"]
    assert tracer.calls["quasi.momentum_residual"] == 2
    snap = tracer.snapshot()
    assert snap["quasi.momentum_residual.self_s"] > 0.0
    assert quasi.momentum_residual is originals["quasi"]
    assert cli.momentum_residual is originals["cli"]
    assert cli.run_suite is originals["run_suite"]


def test_tracer_counts_the_memoized_methods():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = cli.run_suite({
            "group": {"family": "SL", "n": 2},
            "site": {"genus": 1, "class_reps": [
                [[[2, 0], [0, 0]], [[0, 0], [0.5, 0]]],
                [[[3, 0], [0, 0]], [[0, 0], [1 / 3, 0]]]]},
            "seed": 3,
            "samples": 2,
            "checks": ["strongness_agreement", "reconstruction_round_trip"],
        }, "all")
    finally:
        tracer.uninstall()
    assert len(report["checks"]) == 2
    for name in ("groupgeom.SitePoint.frame", "fields.FormField.frame_matrix",
                 "fields.Bivector.frame_matrix"):
        assert tracer.calls[name] > 0, name


def test_solver_makes_one_jacobian_per_iteration(monkeypatch):
    """Per lockstep sweep one relator sweep over the rows that start an
    iteration, and one SVD; no least-squares call: the SVD gives every
    damping trial's step.  The rows of the sweeps add up to the rows'
    iterations, and both targets' rows sweep together."""
    config = {
        "group": {"family": "SL", "n": 2},
        "site": {"genus": 2, "class_reps": []},
        "targets": ["identity", "minus_identity"],
        "seed": 1,
        "samples": 3,
    }
    sweeps = []
    sweep = charvar._relator_jacobian

    def counted(site, rel, mats, invs, prefixes, target_inv):
        sweeps.append(len(mats))
        return sweep(site, rel, mats, invs, prefixes, target_inv)

    monkeypatch.setattr(charvar, "_relator_jacobian", counted)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cli.build_setup(config)
        setup = tracer.snapshot()
        tracer.reset()
        report = cli.sample_points(config)
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    iters = sum(row["iters"] for row in report["rows"])
    assert len(report["rows"]) == 6
    assert iters > 0
    assert sum(sweeps) == iters
    assert max(sweeps) == 6 and len(sweeps) < iters
    # building the setup takes the same SVDs and least squares before solving
    svd, lstsq = "numpy.linalg.svd.calls", "numpy.linalg.lstsq.calls"
    assert snap[svd] - setup[svd] == len(sweeps)
    assert snap[lstsq] == setup[lstsq]


MODULES = ["charvar", "cli", "dirac", "duals", "fields", "groupgeom", "liealg",
           "models", "quasi"]


@pytest.mark.parametrize("modname", MODULES)
def test_every_exported_name_resolves(modname):
    mod = importlib.import_module(f"qpois.{modname}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing
