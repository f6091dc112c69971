"""Every defaulted parameter in the package, listed, and no private name
shared between modules beyond the listed ones.

Each default is a setting a caller can change.  This test walks the package
source with `ast` and compares the defaulted parameters of every function,
method and lambda with the list below, so a new option has to show up here,
next to the caller that needs it.  A private name that one module imports
from another is a decision two modules must know; only the shared rules and
constants below may cross.
"""

import ast
from pathlib import Path

import qpois

DEFAULTED = {
    "charvar.solve_relator(seed)",
    "cli.build_setup(seed)",
    "cli.compute_brackets(seed)",
    "cli.run_suite(jobs)",
    "cli.run_suite(seed)",
    "cli.sample_points(seed)",
    "fields.FormField.__init__(pair_terms)",
    "fields.FormField.__init__(tau_terms)",
    "models.model_from_config(pairing)",
    "quasi.assemble_surface_site(variant)",
}


class _Defaults(ast.NodeVisitor):
    """Collects "module.qualname(param)" for every parameter with a default."""

    def __init__(self, module):
        self.scope = [module]
        self.found = []

    def _record(self, name, args):
        positional = args.posonlyargs + args.args
        named = positional[len(positional) - len(args.defaults):]
        named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
        self.found += [f"{name}({a.arg})" for a in named]

    def _nested(self, node, name):
        self.scope.append(name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_ClassDef(self, node):
        self._nested(node, node.name)

    def visit_FunctionDef(self, node):
        self._record(".".join(self.scope + [node.name]), node.args)
        self._nested(node, node.name)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self._record(".".join(self.scope + ["<lambda>"]), node.args)
        self.generic_visit(node)


def test_defaulted_parameters_are_the_listed_ones():
    found = []
    for path in sorted(Path(qpois.__file__).parent.glob("*.py")):
        visitor = _Defaults(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += visitor.found
    assert len(found) == len(set(found))
    assert set(found) == DEFAULTED, {
        "unlisted": sorted(set(found) - DEFAULTED),
        "gone": sorted(DEFAULTED - set(found)),
    }


# The private names one module may import from another: the rules and
# constants that several modules share, and the letters of the relator
# solver, which keeps its own folds.
SHARED_PRIVATE = {
    "_BATCH_POINTS": None,      # the batch size of points
    "_rank": None,              # the one rank rule
    "_AD_SAMPLES": None,        # the pairing's invariance samples
    "_dexpm_rows": None,        # the grouped exponential
    "_letters": "charvar",
}


def test_no_module_imports_another_modules_private_name():
    found = []
    for path in sorted(Path(qpois.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            for alias in node.names:
                name = alias.name
                if not name.startswith("_") or name.startswith("__"):
                    continue
                if name in SHARED_PRIVATE and SHARED_PRIVATE[name] in (
                        None, path.stem):
                    continue
                found.append(f"{path.stem}: {name} from {node.module}")
    assert not found, found
