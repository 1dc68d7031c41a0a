"""Mutants that the verify suites must catch.

Each row of ``MUTANTS`` names one plausible mistake in a rule, the
modules whose attribute it replaces (every module that imports the
rule), and the suites that must fail while it is in place, each run
from empty memos.  A criterion that no mutant can fail would hold
vacuously; this table keeps that checkable.
"""

import pytest

from doublefield import charts, pairing, suites
from doublefield.divisors import Divisor, UnaryPlace, place_bidegree
from doublefield.exact import UPoly, clear_caches
from doublefield.suites import run_suite

_rule = pairing._pair_primes_kp
_infx = pairing.infx_fiber_divisor
_fiber = charts.fiber_divisor
INF_Y = UnaryPlace.infinity("y")
ZERO_Y = UnaryPlace.finite(UPoly.make("y", [0, 1]))


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


def _bezout_plus_one(f, g):
    """The fiber rule's Bezout number read one too high."""
    return _fiber(f, g) + Divisor.of(INF_Y)


def _infinity_dropped(f, g):
    """The fiber rule without its y = infinity term."""
    d = _fiber(f, g)
    return d - Divisor.of(INF_Y, d.coeff(INF_Y))


def _first_doubled(f, g):
    """The fiber rule's first multiplicity counted twice."""
    d = _fiber(f, g)
    return d + Divisor.of(*d.coeffs[0])


def _infinity_moved_to_zero(f, g):
    """The fiber rule's y = infinity weight put on the place y = 0, which
    keeps the degree."""
    d = _fiber(f, g)
    w = d.coeff(INF_Y)
    return d + Divisor.make({INF_Y: -w, ZERO_Y: w})


_FIBER = (pairing, suites)

# (name, modules, attribute, mutant, suites that must fail)
MUTANTS = [
    ("y-form-capped-at-1", (pairing,), "_pair_primes_kp", _y_form_capped, ("principality", "rsp")),
    ("inf_x-doubled", (pairing,), "infx_fiber_divisor", _infx_doubled, ("principality", "selfpair", "rsp")),
    ("x-unary-against-curve-is-0", (pairing,), "_pair_primes_kp", _x_unary_against_curve_is_zero, ("symmetry", "rsp")),
    ("bezout-plus-inf_y", _FIBER, "fiber_divisor", _bezout_plus_one, ("agreement", "different", "charts")),
    ("inf_y-dropped", _FIBER, "fiber_divisor", _infinity_dropped, ("agreement", "different", "charts")),
    ("first-multiplicity-doubled", _FIBER, "fiber_divisor", _first_doubled, ("agreement", "different", "charts")),
    (
        "inf_y-weight-moved-to-y-0",
        _FIBER,
        "fiber_divisor",
        _infinity_moved_to_zero,
        ("agreement", "different", "support", "charts"),
    ),
]


@pytest.mark.parametrize(
    "modules, attr, mutant, suite",
    [
        pytest.param(modules, attr, mutant, suite, id=f"{name}-{suite}")
        for name, modules, attr, mutant, caught_by in MUTANTS
        for suite in caught_by
    ],
)
def test_suite_catches_mutant(monkeypatch, modules, attr, mutant, suite):
    for module in modules:
        monkeypatch.setattr(module, attr, mutant)
    clear_caches()
    try:
        assert run_suite(suite)["ok"] is False
    finally:
        clear_caches()

