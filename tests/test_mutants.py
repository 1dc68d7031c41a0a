"""Mutants that the verify suites must catch.

Each row of ``MUTANTS`` names one plausible mistake in a rule, the
module attribute it replaces, and the suites that must fail while it is
in place, each run from empty memos.  A criterion that no mutant can
fail would hold vacuously; this table keeps that checkable.
"""

import pytest

from doublefield import pairing
from doublefield.divisors import Divisor, UnaryPlace, place_bidegree
from doublefield.exact import clear_caches
from doublefield.suites import run_suite

_rule = pairing._pair_primes_kp
_infx = pairing.infx_fiber_divisor


def _y_form_capped(m, n):
    """A form of X-degree 0 read with multiplicity at most 1."""
    out = _rule(m, n)
    if place_bidegree(m)[0] == 0 or place_bidegree(n)[0] == 0:
        return Divisor.make((p, min(c, 1)) for p, c in out.coeffs)
    return out


def _infx_doubled(g):
    """The X0 reading counted twice."""
    return _infx(g).scale(2)


def _x_unary_against_curve_is_zero(m, n):
    """A finite x-unary place m against a curve n read as 0."""
    if isinstance(m, UnaryPlace) and m.var == "x" and not m.is_infinity() and place_bidegree(n)[1] > 0:
        return Divisor.zero()
    return _rule(m, n)


# (name, module, attribute, mutant, suites that must fail)
MUTANTS = [
    ("y-form-capped-at-1", pairing, "_pair_primes_kp", _y_form_capped, ("principality", "rsp")),
    ("inf_x-doubled", pairing, "infx_fiber_divisor", _infx_doubled, ("principality", "selfpair", "rsp")),
    ("x-unary-against-curve-is-0", pairing, "_pair_primes_kp", _x_unary_against_curve_is_zero, ("symmetry", "rsp")),
]


@pytest.mark.parametrize(
    "module, attr, mutant, suite",
    [
        pytest.param(module, attr, mutant, suite, id=f"{name}-{suite}")
        for name, module, attr, mutant, suites in MUTANTS
        for suite in suites
    ],
)
def test_suite_catches_mutant(monkeypatch, module, attr, mutant, suite):
    monkeypatch.setattr(module, attr, mutant)
    clear_caches()
    try:
        assert run_suite(suite)["ok"] is False
    finally:
        clear_caches()

