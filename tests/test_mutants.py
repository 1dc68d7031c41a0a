"""Mutants that the verify suites must catch.

Each row of ``MUTANTS`` names one plausible mistake in a rule, the
modules whose attribute it replaces (every module that imports the
rule), and the suites that must fail while it is in place, each run
from empty memos.  A criterion that no mutant can fail would hold
vacuously; this table keeps that checkable.
"""

import itertools
from dataclasses import replace

import pytest

from doublefield import arakelov, exact, oracles, pairing, residues, suites
from doublefield.divisors import Divisor, UnaryPlace, degree_K, place_bidegree
from doublefield.exact import UPoly, clear_caches
from doublefield.suites import run_suite

_rule = pairing._pair_primes_kp
_fiber = pairing.fiber_divisor
_substitute = exact._substitute
_g_fs = oracles.g_fs
_intersect = oracles.intersect
_kappa = oracles.fs_kappa_closed_form
_deg_Kp = arakelov.deg_Kp
_pair = pairing.pair
_pattern = exact._degree_pattern
_ddf = exact._ddf_p
_lift = exact._hensel_lift
_degree_sets = exact._degree_sets
_multifactor_lift = exact._multifactor_lift
_squarefree_parts = exact._squarefree_parts
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


def _intersect_without_vertical(D, E):
    """The Arakelov intersection with both vertical parts N read as 1."""
    return _intersect(replace(D, vertical=1), replace(E, vertical=1))


def _kappa_perturbed():
    """The curvature integral's closed form off by 2^-20."""
    return _kappa() + 2.0**-20


def _deg_Kp_off_by_one(D):
    """deg_Kp one too high on divisors of degree above 1."""
    return _deg_Kp(D) + (degree_K(D) > 1)


def _pair_first_place_of_a(A, b, side=pairing.SIDE_KPRIME):
    """pair reading only A's first place, which is not additive in A."""
    return _pair(Divisor.make(A.coeffs[:1]), b, side)


def _untransposed(D):
    """The swap of x and y left out, so that side K pairs down to Q(y)."""
    return D


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
    return [d for d, g in _ddf([c * inv % p for c in cs], p) for _ in range((len(g) - 1) // d)]


def _gcd_one_step_early(a, b, p):
    """The gcd's Euclid loop stopping one step early, at a nonzero
    constant divisor instead of a zero one: coprime lists get their last
    nonconstant remainder, made monic, as their gcd."""
    if len(a) < len(b):
        a, b = b, a
    a, b = a[:], b[:]
    while len(b) > 1:
        n = len(b) - 1
        inv = pow(b[-1], -1, p)
        for i in range(len(a) - 1, n - 1, -1):
            c = a[i] * inv % p
            if c:
                for j in range(n):
                    a[i - n + j] -= c * b[j]
        a, b = b, exact._trim([c % p for c in a[:n]])
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _always_proved(n, patterns, enough=0):
    """factor_q's pattern test declaring every input irreducible: the
    degree-set rule with no candidate left whenever it is read with
    factor_q's mask of degrees 1 and n - 1 (the certificate reads it
    without one)."""
    return (0, None, None) if enough else _degree_sets(n, patterns, enough)


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
    return exact.y_content_is_constant(g)


def _rows_always_coprime(rows):
    """The content test's modular proof reporting every curve's rows
    coprime, so that every content reads as constant."""
    return True


def _content_resultant_inverted(f):
    """The content test reading its resultant the wrong way round: a
    zero resultant taken for a constant content and a nonzero one for a
    content, so that x*y + y + 105, whose rows y + 105 and y agree mod 3,
    5 and 7, is refused as having one."""
    g = exact.primitive_int_bpoly(f)[1]
    rows = exact._x_rows(g)
    if any(len(row) == 1 for row in rows) or exact._rows_coprime_mod_p(rows):
        return True
    top = exact.BPoly.from_upoly(UPoly("x", tuple(rows[-1])))
    return exact.resultant_x(top, g.transpose()).is_zero()


def _lift_one_step_short(f, leaves, p, k):
    """factor_q's multifactor Hensel lift stopping one quadratic step
    before p^(2^k) > 2B, the modulus the recombination reads it at."""
    return _multifactor_lift(f, leaves, p, max(k - 1, 0))


def _combinations_skip_first(indices, s):
    """factor_q's recombination skipping the first subset of every
    size."""
    return itertools.islice(itertools.combinations(indices, s), 1, None)


def _squarefree_parts_without_multiplicity(c):
    """factor_q's squarefree split giving every part multiplicity 1."""
    return [(a, 1) for a, _ in _squarefree_parts(c)]


_FIBER = (pairing, suites)
_PAIR = (pairing, arakelov, residues, suites)

# (name, modules, attribute, mutant, suites that must fail)
MUTANTS = [
    ("y-form-capped-at-1", (pairing,), "_pair_primes_kp", _y_form_capped, ("principality", "rsp")),
    ("inf_x-doubled", (pairing,), "_pair_primes_kp", _infx_doubled, ("principality", "selfpair", "rsp")),
    ("x-unary-against-curve-is-0", (pairing,), "_pair_primes_kp", _x_unary_against_curve_is_zero, ("symmetry", "rsp")),
    ("side-K-untransposed", (pairing,), "transpose_divisor", _untransposed, ("agreement",)),
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
    ("intersect-drops-vertical", (oracles, suites), "intersect", _intersect_without_vertical, ("calibration",)),
    ("kappa-off-by-2^-20", (suites,), "fs_kappa_closed_form", _kappa_perturbed, ("calibration",)),
    ("deg_Kp-off-by-one-above-degree-1", (suites,), "deg_Kp", _deg_Kp_off_by_one, ("calibration",)),
    (
        "pair-reads-first-place-of-A",
        _PAIR,
        "pair",
        _pair_first_place_of_a,
        ("bilinearity", "principality", "selfpair", "rsp"),
    ),
    ("pattern-proof-always-true", (exact,), "_degree_sets", _always_proved, ("charts",)),
    ("rational-roots-never-found", (exact,), "_rational_roots", _no_roots, ("charts",)),
    ("hensel-lift-bound-without-lc", (exact,), "_hensel_lift", _lift_without_lc, ("charts",)),
    ("content-always-constant", (exact,), "_rows_coprime_mod_p", _rows_always_coprime, ("charts",)),
    ("content-resultant-inverted", (exact,), "y_content_is_constant", _content_resultant_inverted, ("charts",)),
    ("pattern-read-where-p-divides-lc", (exact,), "_degree_pattern", _pattern_where_p_divides_lc, ("charts",)),
    (
        "pattern-read-where-not-squarefree",
        (exact,),
        "_degree_pattern",
        _pattern_where_not_squarefree,
        ("symmetry", "charts"),
    ),
    ("gcd-stops-one-euclid-step-early", (exact,), "_gcd_p", _gcd_one_step_early, ("symmetry", "charts")),
    ("lift-one-step-short", (exact,), "_multifactor_lift", _lift_one_step_short, ("charts",)),
    ("recombination-skips-first-subset", (exact,), "combinations", _combinations_skip_first, ("charts",)),
    (
        "squarefree-split-drops-multiplicity",
        (exact,),
        "_squarefree_parts",
        _squarefree_parts_without_multiplicity,
        ("charts", "rsp"),
    ),
    (
        "degree-sets-always-empty",
        (exact,),
        "certify_irreducible_bivariate",
        _certified_when_content_free,
        ("principality",),
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


