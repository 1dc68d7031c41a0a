"""The public names of the package root.

The root re-exports what the README, the CLI, the suites and the
benchmark take from it.  The set is pinned here, so that a name comes
back into the root, or leaves it, only through an edit to this list.
"""

import ast
from pathlib import Path
from types import ModuleType

import doublefield

ROOT_EXPORTS = {
    # arakelov
    "ArakelovDivisorKp",
    "arakelov_from_divisor",
    "arch_lambda",
    "bracket",
    "deg_Kp",
    "explore_self_products",
    "fs_kappa_closed_form",
    "fs_kappa_quadrature",
    "fs_point_integral",
    "fs_point_integral_quadrature",
    "g_fs",
    "intersect",
    "principal_arakelov",
    "principal_move",
    "residue_scalar_product",
    # charts
    "fiber_divisor",
    "infx_fiber_divisor",
    # divisors
    "BinaryPlace",
    "DeltaElement",
    "Divisor",
    "Place",
    "UnaryPlace",
    "degree_K",
    "degree_over_K",
    "degree_over_Kp",
    "divisor_of_upoly",
    "principal_divisor",
    "valuation",
    # errors
    "DegreeBound",
    "DoubleFieldError",
    "EqualIsoms",
    "InputError",
    "NotCoprime",
    "NotDegreeOne",
    "ParseError",
    "PrecisionFailure",
    # exact
    "BPoly",
    "UPoly",
    "clear_caches",
    "complex_roots",
    "factor_b",
    "factor_q",
    "gcd_u",
    "resultant_x",
    "squarefree_decomposition",
    # pairing
    "SIDE_K",
    "SIDE_KPRIME",
    "SelfPairing",
    "pair",
    "self_pair_degree_one",
    # residues
    "RationalIsom",
    "correspondence",
    "different_divisor",
    "residue_iso",
    "residue_mod_Kp_degree_one",
    "residue_mod_degree_one",
    # suites
    "SUITES",
    "run_suite",
}


def test_root_exports_are_pinned():
    # submodules become attributes of the package once imported, so
    # they are left out of the comparison
    public = {
        name
        for name, value in vars(doublefield).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == ROOT_EXPORTS


def _imported_modules(path: Path) -> set[str]:
    """Top-level package of every module that the file at path imports,
    inside functions too."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_only_exact_imports_sympy():
    """The bridge in exact is the one route to sympy."""
    sources = sorted(Path(doublefield.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    importers = {p.name for p in sources if "sympy" in _imported_modules(p)}
    assert importers == {"exact.py"}
