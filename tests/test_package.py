"""The public names of the package root.

The root re-exports what the README, the CLI, the suites and the
benchmark take from it.  The set is pinned here, so that a name comes
back into the root, or leaves it, only through an edit to this list.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import doublefield

ROOT_EXPORTS = {
    # arakelov
    "bracket",
    "deg_Kp",
    "explore_self_products",
    "principal_move",
    "residue_scalar_product",
    # divisors
    "BinaryPlace",
    "DeltaElement",
    "Divisor",
    "Place",
    "UnaryPlace",
    "degree_K",
    "divisor_of_upoly",
    "place_bidegree",
    "principal_divisor",
    # errors
    "DegreeBound",
    "DoubleFieldError",
    "InputError",
    "NotCoprime",
    "NotDegreeOne",
    "ParseError",
    # exact
    "BPoly",
    "UPoly",
    "clear_caches",
    "factor_b",
    "factor_q",
    "resultant_x",
    # pairing
    "SIDE_K",
    "SIDE_KPRIME",
    "SelfPairing",
    "pair",
    "self_pair_degree_one",
    # residues
    "correspondence",
    "residue_mod_Kp_degree_one",
    "residue_mod_degree_one",
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
    """Every module that the file at path imports, inside functions too:
    the top-level package of an outside module, and ``.name`` for a
    module of this package however it is written (``from .name import``,
    ``from . import name``, ``from doublefield.name import``)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["doublefield" if node.level else "", node.module]))
            dotted = [f"{module}.{a.name}" for a in node.names] if module == "doublefield" else [module]
        else:
            continue
        for name in dotted:
            top, _, rest = name.partition(".")
            names.add("." + rest.split(".")[0] if top == "doublefield" and rest else top)
    return names


def _importers(module: str) -> set[str]:
    sources = sorted(Path(doublefield.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    return {p.name for p in sources if module in _imported_modules(p)}


def test_only_exact_imports_sympy():
    """The bridge in exact is the one route to sympy."""
    assert _importers("sympy") == {"exact.py"}


# sympy's algorithms, the only names the bridge takes from sympy: the
# product's fallbacks (Wang, the PRS resultant) and their domain ZZ;
# exact does its dense arithmetic, gcds, contents and univariate
# factorization itself, on plain int lists, and the oracle keeps a
# vertical part as one
# rational instead of factoring it
BRIDGED = {
    "ZZ",
    "dmp_factor_list",
    "dmp_resultant",
}


def test_bridge_imports_only_sympy_algorithms():
    """A plain ``import sympy...`` would show up as its module name."""
    path = Path(doublefield.__file__).parent / "exact.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names if a.name.split(".")[0] == "sympy"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sympy":
            names |= {a.name for a in node.names}
    assert names == BRIDGED


def _modules_after(module: str) -> set[str]:
    """The modules a fresh interpreter holds after importing ``module``."""
    code = f"import sys, {module}; print(sorted(sys.modules))"
    src = str(Path(doublefield.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    return set(ast.literal_eval(out))


def test_root_import_leaves_out_the_suites_and_the_oracle():
    """``import doublefield`` loads the product only; verify's suites and
    their oracle come in with ``doublefield.suites``."""
    loaded = _modules_after("doublefield")
    assert "doublefield.exact" in loaded
    assert "doublefield.suites" not in loaded and "doublefield.oracles" not in loaded


def test_cli_import_leaves_out_the_suites_and_the_oracle():
    """Only ``verify`` loads the suites, inside its handler, so
    ``import doublefield.cli`` loads neither them nor the oracle."""
    loaded = _modules_after("doublefield.cli")
    assert "doublefield.cli" in loaded
    assert "doublefield.suites" not in loaded and "doublefield.oracles" not in loaded


@pytest.mark.parametrize("module", ["doublefield", "doublefield.cli"])
def test_import_loads_neither_sympy_nor_mpmath(module):
    """sympy comes in with the bridge's first fallback and mpmath with
    verify's oracle, so importing the product or the CLI loads neither."""
    assert not {"sympy", "mpmath"} & _modules_after(module)


# a divisor whose curve's rows y + 105 and y agree mod 3, 5 and 7, so that
# a resultant, not sympy, proves its content constant; and one with
# x^2 - y^2, which only Wang's algorithm splits
DIVISOR_ROUTES = [
    ("x*y + y + 105", "-inf_x - inf_y + (x*y + y + 105)", False),
    ("(x^2-y^2)/(x*y)", "-(x) - inf_x - (y) - inf_y + (x - y) + (x + y)", True),
]


@pytest.mark.parametrize("expr, printed, loads_sympy", DIVISOR_ROUTES)
def test_divisor_loads_sympy_only_for_a_fallback(expr, printed, loads_sympy):
    """In a fresh interpreter, ``divisor`` prints its divisor, exits 0 and
    holds sympy afterwards only when a fallback ran."""
    code = (
        "import sys\n"
        "from doublefield import cli\n"
        "status = cli.main(['divisor', sys.argv[1]])\n"
        "print(status, 'sympy' in sys.modules)\n"
    )
    src = str(Path(doublefield.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code, expr], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.splitlines() == [printed, f"0 {loads_sympy}"]


def test_only_oracles_imports_mpmath():
    """mpmath serves only the numeric layer, which is verify's oracle."""
    assert _importers("mpmath") == {"oracles.py"}


def test_only_suites_imports_oracles():
    """verify is the one way into the oracle."""
    assert _importers(".oracles") == {"suites.py"}
