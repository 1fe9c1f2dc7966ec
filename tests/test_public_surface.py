"""Every name a module exports is referenced by library code, or listed here,
and every parameter default in the library is listed here with the callers
that need a value other than it."""

import ast
import pathlib

import mdplab

SRC = pathlib.Path(mdplab.__file__).parent

# exported names that no library code references, each with why it stays
UNREFERENCED = {
    "check_s2inf": "wire into the counterexample's age-chain table (ROADMAP item 9)",
    "rate_J_weighted": "wire into the functional MDP's weighted paths (ROADMAP item 6)",
    "check_kac": "wire into a kac check of the CLI conditions task (ROADMAP item 8)",
    "phi_coefficients": "wire into a phi check for finite-state models (ROADMAP item 8)",
    "paroux_sum": "wire into an action of the CLI diophantine task (ROADMAP item 8)",
    "blocking_bound_first_term": "wire into a reported column of criterion 3 (ROADMAP item 8)",
    "dist_to_integers": "exact scalar reference for dist_to_integers_array in tests",
    "sqrt2m1_spec": "test fixture",
    "liouville_literal": "test fixture",
    "GaussPFKernel": "grid reference kernel the benchmark probe imports; deleted with the "
                     "grid family once the probe moves (ROADMAP items 4/5)",
    "IteratedFunctionKernel": "grid reference kernel the benchmark probe imports; deleted "
                              "with the grid family once the probe moves (ROADMAP items 4/5)",
}

# `qualname.param` of every def parameter with a default, with the callers
# that set it to different values
KNOBS = {
    "main.argv": "the console script passes none (sys.argv); tests pass argument lists",
    "diagnose_series.floor": "check_bis and check_mw pass their floor; check_kac, "
                             "check_class_L and tests pass none",
    "check_mw.n_max": "acceptance 128, CLI `n_max`, perfbench up to 4096",
    "check_mw.floor": "acceptance 0 or 1e-12, CLI `floor`, perfbench 0",
    "check_bis.n_max": "acceptance 128, CLI `n_max`, perfbench up to 4096",
    "check_bis.floor": "acceptance 0 or 1e-12, CLI `floor`, perfbench 0",
    "RngStream.named.replica": "one stream per name (`sigma2`, `c7-rates`) or one per "
                               "replica or size (`simulate` r, `naive` n, `var_sn_m`)",
    "convergents.spec": "the CLI and criterion 5 pass the irrational; perfbench expands "
                        "bare quotients",
    "block_martingale_decompose.check_blocks": "criterion 8 checks 16 blocks, the CLI "
                                               "decompose task 4, a test 8",
    "empirical_mdp_point.replicas": "mdp_scan passes the CLI's replicas; criterion 1's "
                                    "exact oracle draws nothing",
    "empirical_mdp_point.stream": "mdp_scan passes the CLI's stream; criterion 1's exact "
                                  "oracle draws nothing",
    "empirical_mdp_point.sigma2": "mdp_scan passes the config's sigma2; perfbench's naive "
                                  "points read the model's meta; exact points need none",
    "mdp_scan.replicas": "the CLI passes the config's replicas; exact scans in tests pass none",
    "mdp_scan.stream": "the CLI passes named('mdp-scan'); exact scans in tests pass none",
    "GridFunction.from_callable.n_points": "criterion 4 at DEFAULT_GRID; transfer tests "
                                           "257 to 4097 nodes",
    "IntegerBetaPFKernel.__init__.n_points": "criterion 4 at DEFAULT_GRID; transfer "
                                             "tests 1024 and 2048",
    "GaussPFKernel.__init__.n_points": "perfbench's build probe at DEFAULT_GRID; transfer "
                                       "tests 512 and 2048",
    "IteratedFunctionKernel.__init__.n_points": "perfbench's build probe at DEFAULT_GRID; "
                                                "a transfer test 512",
    "FiniteStateKernel.__init__.noise_var": "the alternating model passes its noise "
                                            "variance; the iid chains have none",
    "sigma2_circle_fourier.k_max": "the CLI passes `k_support`, None or a mode cut-off; "
                                   "criterion 2 and tests sum every mode",
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


def _defaults(node, prefix=""):
    """`qualname.param` of each parameter with a default, nested defs included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            args = child.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            yield from (f"{name}.{a.arg}" for a in with_default)
            yield from _defaults(child, name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _defaults(child, prefix + child.name + ".")
        else:
            yield from _defaults(child, prefix)


def test_every_default_is_a_listed_knob():
    found = [k for p in sorted(SRC.glob("*.py")) for k in _defaults(ast.parse(p.read_text()))]
    assert len(found) == len(set(found))
    assert set(found) == set(KNOBS)


def test_every_generator_is_built_by_rng_stream():
    # one rule for deriving streams: numpy seed sequences and generators are
    # built in core.py (RngStream.generator and the batched path that mirrors
    # its keys) and nowhere else in the library
    makers = {"default_rng", "SeedSequence", "Generator", "Philox", "PCG64", "RandomState"}
    files = {p.name for p in SRC.glob("*.py") for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in makers}
    assert files == {"core.py"}
