"""The benchmark's per-layer tracer still finds the functions it wraps.

`perfbench/tracing.py` wraps functions by module and qualified name; a
rename in the package would make `--trace 1` fail only when the benchmark
runs.  This installs the tracer, runs one check and restores the package.
"""

import sys
from pathlib import Path

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
        }, "all", jobs=1)
    finally:
        tracer.uninstall()
    assert [r["status"] for r in report["checks"]] == ["passed"]
    assert tracer.calls["quasi.momentum_residual"] == 2
    snap = tracer.snapshot()
    assert snap["quasi.momentum_residual.self_s"] > 0.0
    assert quasi.momentum_residual is originals["quasi"]
    assert cli.momentum_residual is originals["cli"]
    assert cli.run_suite is originals["run_suite"]
