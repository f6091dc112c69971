"""Every package function is reached by a command.

The scan runs `qpois verify all`, `sample` and `bracket` through click's
CliRunner on the README config and three small sites under `sys.setprofile`,
and compares the functions entered with every function and method that the
package source defines.  A function no command enters is dead code or a
test-only knob, unless `NOT_REACHED` lists it with the reason it stays.
"""

import ast
import json
import re
import sys
from pathlib import Path

from click.testing import CliRunner

import qpois
from qpois.cli import main

PACKAGE = Path(qpois.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"

NOT_REACHED = {
    "models.sl2": "library shorthand, used by the README example and tests",
    "models.sl2_abelian": "library shorthand, used by tests",
    "quasi.pg_descriptor": "the one-factor structure, built by tests",
    "duals.Dual.__mul__": "products of functions, plain compositions "
                          "(charvar), built by tests",
    "duals.Dual.__repr__": "debugging aid",
    "charvar.TraceFunction.__repr__": "debugging aid",
    "charvar.solve_relator": "library shorthand, a batch of one; commands "
                             "solve their rows as one batch",
    "errors.SolverStopped.__init__": "the solver's stops, its iteration cap "
                                     "and a stall, which no config here "
                                     "reaches",
    "cli._common": "decorator applied at import, before the scan",
}

_DIAG = [[[2, 0], [0, 0]], [[0, 0], [0.5, 0]]]
CONFIGS = {
    "sl2-g1-punct": {"site": {"genus": 1, "class_reps": [_DIAG]},
                     "samples": 2},
    "sl2ab-g1": {"group": {"family": "sl2_abelian"}, "site": {"genus": 1},
                 "samples": 2},
    "fullgroups": {"site": {"genus": 1, "class_reps": [_DIAG],
                            "variant": "fullgroups"}, "samples": 2},
}


def _defined():
    """"module.qualname" of every def in the package, in co_qualname form."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = scope + child.name
                found.add(f"{module}.{name}")
                visit(child, module, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, scope + child.name + ".")
            else:
                visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return found


def _entered(tmp_path):
    """"module.qualname" of every package function the commands enter."""
    readme = json.loads(re.search(r"```json\n(.*?)```", README.read_text(),
                                  re.S).group(1))
    configs = dict(CONFIGS, readme=readme)
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    runner = CliRunner()
    sys.setprofile(profile)
    try:
        for name, cfg in configs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            for cmd in (["verify", "all"], ["sample"], ["bracket"]):
                result = runner.invoke(main, cmd + [
                    "--config", str(path), "--out", str(tmp_path / "r.json")])
                assert result.exit_code in (0, 1), (name, cmd, result.output)
    finally:
        sys.setprofile(None)
    return {f"{Path(c.co_filename).stem}.{c.co_qualname}" for c in codes
            if Path(c.co_filename).parent == PACKAGE}


def test_every_package_function_is_reached_by_a_command(tmp_path):
    defined = _defined()
    assert set(NOT_REACHED) <= defined, set(NOT_REACHED) - defined
    entered = _entered(tmp_path)
    assert defined - entered == set(NOT_REACHED), {
        "never entered": sorted(defined - entered - set(NOT_REACHED)),
        "listed but entered": sorted(set(NOT_REACHED) & entered),
    }
