"""Every defaulted parameter in the package, listed.

Each default is a setting a caller can change.  This test walks the package
source with `ast` and compares the defaulted parameters of every function,
method and lambda with the list below, so a new option has to show up here,
next to the caller that needs it.
"""

import ast
from pathlib import Path

import qpois

DEFAULTED = {
    "charvar.poisson_ideal_residual.vanishing(_c)",
    "charvar.poisson_ideal_residual.vanishing(_m)",
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
    "quasi.double_descriptors(i)",
    "quasi.double_descriptors(j)",
    "quasi.internally_fused(i)",
    "quasi.internally_fused(j)",
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
