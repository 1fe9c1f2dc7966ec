"""Every name a module exports is referenced by library code, or listed here."""

import ast
import pathlib

import mdplab

SRC = pathlib.Path(mdplab.__file__).parent

# exported names that no library code references, each with why it stays
UNREFERENCED = {
    "check_s2inf": "wire into the counterexample's age-chain table (ROADMAP item 6)",
    "rate_J_weighted": "wire into the functional MDP's weighted paths (ROADMAP item 3)",
    "check_kac": "wire into a kac check of the CLI conditions task (ROADMAP item 4)",
    "phi_coefficients": "wire into a phi check for finite-state models (ROADMAP item 4)",
    "paroux_sum": "wire into an action of the CLI diophantine task (ROADMAP item 4)",
    "blocking_bound_first_term": "wire into a reported column of criterion 3 (ROADMAP item 4)",
    "dist_to_integers": "exact scalar reference for dist_to_integers_array in tests",
    "sqrt2m1_spec": "test fixture",
    "liouville_literal": "test fixture",
    "GaussPFKernel": "grid reference kernel the benchmark probe imports (ROADMAP item 2)",
    "IteratedFunctionKernel": "grid reference kernel the benchmark probe imports (ROADMAP item 2)",
}


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_every_export_is_referenced_or_listed():
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    # a definition and its __all__ string are not loads, so they do not count
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exported = {name for tree in trees for name in _exports(tree)}
    assert exported - used == set(UNREFERENCED)
