"""Mutants that the verify suites must catch.

Each row of ``MUTANTS`` names one plausible mistake in a rule, the
modules whose attribute it replaces (every module that imports the
rule), and the suites that must fail while it is in place, each run
from empty memos.  A criterion that no mutant can fail would hold
vacuously; this table keeps that checkable.  ``EXAMPLE_MUTANTS`` holds
the mutants that no suite reports as a failure, each with the fixed
example of ``tests/test_exact.py`` that fails instead.
"""

import pytest

from doublefield import arakelov, exact, oracles, pairing, residues, suites
from doublefield.divisors import Divisor, UnaryPlace, degree_K, place_bidegree
from doublefield.exact import UPoly, clear_caches
from doublefield.suites import run_suite
import test_exact

_rule = pairing._pair_primes_kp
_fiber = pairing.fiber_divisor
_substitute = exact._substitute
_g_fs = oracles.g_fs
_kappa = oracles.fs_kappa_closed_form
_deg_Kp = arakelov.deg_Kp
_pair = pairing.pair
_pattern = exact._degree_pattern
_ddf = exact._ddf_p
_lift = exact._hensel_lift
INF_Y = UnaryPlace.infinity("y")
ZERO_Y = UnaryPlace.finite(UPoly.make("y", [0, 1]))


def _y_form_capped(m, n):
    """A form of X-degree 0 read with multiplicity at most 1."""
    out = _rule(m, n)
    if place_bidegree(m)[0] == 0 or place_bidegree(n)[0] == 0:
        return Divisor.make((p, min(c, 1)) for p, c in out.coeffs)
    return out


def _infx_doubled(m, n):
    """The X0 reading counted twice: inf_x against a place of positive
    X-degree."""
    out = _rule(m, n)
    if UnaryPlace.infinity("x") in (m, n) and place_bidegree(m)[0] > 0 and place_bidegree(n)[0] > 0:
        return out.scale(2)
    return out


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


def _substitution_power_plus_one(rows, t0, t1):
    """The fiber resultant's substitution with f1's power one too high: the
    other form read with formal x-degree one more than its own (a zero
    row on top of its rows, which run from x^0 up)."""
    return _substitute(rows + [[]], t0, t1)


def _exquo_skipped(a, b):
    """The fiber resultant's Bezout route without its exact division by
    lc_x of the larger form: the list division returning its dividend."""
    return list(a)


def _g_fs_without_w_term(z, w):
    """The Fubini-Study Green's function without its half log(1 + |w|^2)
    term, which is fs_point_integral(w)."""
    return _g_fs(z, w) - oracles.fs_point_integral(w)


def _kappa_perturbed():
    """The curvature integral's closed form off by 2^-20."""
    return _kappa() + 2.0**-20


def _deg_Kp_off_by_one(D):
    """deg_Kp one too high on divisors of degree above 1."""
    return _deg_Kp(D) + (degree_K(D) > 1)


def _pair_first_place_of_a(A, b, side=pairing.SIDE_KPRIME):
    """pair reading only A's first place, which is not additive in A."""
    return _pair(Divisor.make(A.coeffs[:1]), b, side)


def _pattern_where_p_divides_lc(cs, p):
    """factor_q's degree pattern read even where p divides lc: the
    pattern of cs mod p with its leading zeros dropped."""
    f = [c % p for c in cs]
    while not f[-1]:
        f.pop()
    return _pattern(f, p)


def _pattern_where_not_squarefree(cs, p):
    """factor_q's degree pattern read even where cs mod p has a square
    factor."""
    lc = cs[-1] % p
    if not lc:
        return None
    inv = pow(lc, -1, p)
    return _ddf([c * inv % p for c in cs], p)


def _always_proved(cs):
    """factor_q's pattern verdict declaring every input irreducible."""
    return ()


def _no_roots(cs, p, count):
    """factor_q's rational-root finish finding no root, so that it
    declares every input it decides irreducible."""
    return ()


def _lift_without_lc(cs, r, p, bound):
    """factor_q's Hensel lift stopping past 2*|cs[0]| instead of
    2*|lc*cs[0]|, too early for lc times a root with a denominator."""
    return _lift(cs, r, p, 2 * abs(cs[0]))


def _certified_when_content_free(q):
    """The certificate with its degree sets always empty: every curve
    whose content is constant is proved prime."""
    g = q.transpose() if q.deg_y() < q.deg_x() else q
    return exact.y_content(g).degree() == 0


def _rows_always_coprime(rows):
    """y_content's modular test reporting every curve's rows coprime, so
    that every content reads as constant."""
    return True


_FIBER = (pairing, suites)
_PAIR = (pairing, arakelov, residues, suites)

# (name, modules, attribute, mutant, suites that must fail)
MUTANTS = [
    ("y-form-capped-at-1", (pairing,), "_pair_primes_kp", _y_form_capped, ("principality", "rsp")),
    ("inf_x-doubled", (pairing,), "_pair_primes_kp", _infx_doubled, ("principality", "selfpair", "rsp")),
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
    (
        "substitution-f1-power-off-by-one",
        (exact,),
        "_substitute",
        _substitution_power_plus_one,
        ("symmetry", "agreement", "different", "support", "charts"),
    ),
    ("bezout-without-division", (exact,), "_exquo", _exquo_skipped, ("charts",)),
    ("green-without-w-term", (oracles,), "g_fs", _g_fs_without_w_term, ("calibration",)),
    ("kappa-off-by-2^-20", (suites,), "fs_kappa_closed_form", _kappa_perturbed, ("calibration",)),
    ("deg_Kp-off-by-one-above-degree-1", (suites,), "deg_Kp", _deg_Kp_off_by_one, ("calibration",)),
    (
        "pair-reads-first-place-of-A",
        _PAIR,
        "pair",
        _pair_first_place_of_a,
        ("bilinearity", "principality", "selfpair", "rsp"),
    ),
    ("pattern-proof-always-true", (exact,), "_pattern_verdict", _always_proved, ("charts",)),
    ("rational-roots-never-found", (exact,), "_rational_roots", _no_roots, ("charts",)),
    ("hensel-lift-bound-without-lc", (exact,), "_hensel_lift", _lift_without_lc, ("charts",)),
    ("content-always-constant", (exact,), "_rows_coprime_mod_p", _rows_always_coprime, ("charts",)),
]

# Mutants of the factorizers' proofs that no verify suite reports as a
# failure.  Every reducible polynomial the suites hand to factor_q keeps
# a proper factor degree in the patterns the two pattern mutants read.
# The certificate mutant proves the two reducible products of
# principality's element pool prime, and that suite then raises
# NotCoprime instead of reporting a failure.  Each row names the fixed
# example of tests/test_exact.py that fails instead, and the test that
# checks it.
_PATTERN = test_exact.test_pattern_example_matches_sympy
_REDUCIBLE = test_exact.test_reducible_curve_matches_sympy
# (name, attribute of exact, mutant, example test, example)
EXAMPLE_MUTANTS = [
    ("pattern-read-where-p-divides-lc", "_degree_pattern", _pattern_where_p_divides_lc, _PATTERN, "lc-105"),
    ("pattern-read-where-not-squarefree", "_degree_pattern", _pattern_where_not_squarefree, _PATTERN, "square-mod-5"),
    ("degree-sets-always-empty", "certify_irreducible_bivariate", _certified_when_content_free, _REDUCIBLE, "x^2-y^2"),
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



@pytest.mark.parametrize(
    "attr, mutant, check, example",
    [
        pytest.param(attr, mutant, check, example, id=f"{name}-{example}")
        for name, attr, mutant, check, example in EXAMPLE_MUTANTS
    ],
)
def test_example_catches_mutant(monkeypatch, attr, mutant, check, example):
    monkeypatch.setattr(exact, attr, mutant)
    clear_caches()
    try:
        with pytest.raises(AssertionError):
            check(example)
    finally:
        clear_caches()
