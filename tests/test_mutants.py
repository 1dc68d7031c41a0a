"""Mutants that the verify suites must catch.

Each row of ``MUTANTS`` names one plausible mistake in a rule, the
modules whose attribute it replaces (every module that imports the
rule), and the suites that must fail while it is in place, each run
from empty memos.  A criterion that no mutant can fail would hold
vacuously; this table keeps that checkable.
"""

import inspect
import itertools
from dataclasses import replace

import pytest

from doublefield import arakelov, exact, oracles, pairing, residues, suites
from doublefield.divisors import Divisor, UnaryPlace, degree_K, place_bidegree
from doublefield.exact import UPoly, clear_caches
from doublefield.suites import run_suite

_rule = pairing._pair_primes_kp
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
_gcd_z = exact._gcd_z
INF_Y = UnaryPlace.infinity("y")
ZERO_Y = UnaryPlace.finite(UPoly.make("y", [0, 1]))


def _y_form_capped(m, n):
    """A form of X-degree 0 read with multiplicity at most 1."""
    out = _rule(m, n)
    if place_bidegree(m)[0] == 0 or place_bidegree(n)[0] == 0:
        return [(p, min(c, 1)) for p, c in out]
    return out


def _infx_doubled(m, n):
    """The X0 reading counted twice: inf_x against a place of positive
    X-degree."""
    out = _rule(m, n)
    if UnaryPlace.infinity("x") in (m, n) and place_bidegree(m)[0] > 0 and place_bidegree(n)[0] > 0:
        return [(p, 2 * c) for p, c in out]
    return out


def _x_unary_against_curve_is_zero(m, n):
    """A finite x-unary place m against a curve n read as 0."""
    if isinstance(m, UnaryPlace) and m.var == "x" and not m.is_infinity() and place_bidegree(n)[1] > 0:
        return ()
    return _rule(m, n)


def _on_resultant_route(mutate):
    """``_pair_primes_kp`` with ``mutate`` applied to the divisor it reads
    off Res_x of the curves of two binary or finite x-unary places of
    positive Bezout number; every other reading as it stands."""

    def mutant(m, n):
        (a1, b1), (a2, b2) = place_bidegree(m), place_bidegree(n)
        out = _rule(m, n)
        if min(a1, a2) == 0 or a1 * b2 + a2 * b1 == 0 or m.poly is None or n.poly is None:
            return out
        return mutate(Divisor.make(out)).coeffs

    return mutant


@_on_resultant_route
def _bezout_plus_one(d):
    """The fiber rule's Bezout number read one too high."""
    return d + Divisor.of(INF_Y)


@_on_resultant_route
def _infinity_dropped(d):
    """The fiber rule without its y = infinity term."""
    return d - Divisor.of(INF_Y, d.coeff(INF_Y))


@_on_resultant_route
def _first_doubled(d):
    """The fiber rule's first multiplicity counted twice."""
    return d + Divisor.of(*d.coeffs[0])


@_on_resultant_route
def _infinity_moved_to_zero(d):
    """The fiber rule's y = infinity weight put on the place y = 0, which
    keeps the degree."""
    w = d.coeff(INF_Y)
    return d + Divisor.make({INF_Y: -w, ZERO_Y: w})


def _exquo_skipped(a, b):
    """The exact list division returning its dividend: the squarefree
    split's divisions by the gcd and the cofactor of a rational root
    skipped."""
    return list(a)


def _variant(fn, old, new):
    """The function fn with one piece of its source replaced, compiled in
    fn's module."""
    src = inspect.getsource(fn)
    assert old in src
    scope = {}
    exec(src.replace(old, new), vars(inspect.getmodule(fn)), scope)
    return scope[fn.__name__]


# the subresultant PRS with its remainders left undivided by g*h^delta,
# so that the chain's last remainder carries a spurious factor in y
_prs_undivided = _variant(exact._subresultant_prs, "r = [c // d for c in r]", "pass")
# the PRS ending on a divisor of degree n >= 2 without its final division
# by h^(n - 1)
_prs_final_undivided = _variant(
    exact._subresultant_prs, "return b, sign * (b[0] ** n // h ** (n - 1))", "return b, sign * b[0] ** n"
)
# the PRS updating h to g^delta, without the division by h^(delta - 1)
_prs_h_undivided = _variant(exact._subresultant_prs, "h = g**delta // h ** (delta - 1)", "h = g**delta")
# the gcd over Z returning the PRS's last nonzero remainder G as it
# stands, not its primitive part
_gcd_unreduced = _variant(exact._gcd_z, "return [1] if res else _pp(G)", "return [1] if res else G")
# the resultant's base 2^k with k from half the bits of its Hadamard
# bound, so that large coefficients overflow their digits
_resultant_half_bits = _variant(
    exact.resultant_x,
    "k = (isqrt(nf**a2 * ng**a1) + 1).bit_length() + 1",
    "k = (isqrt(nf**a2 * ng**a1) + 1).bit_length() // 2 + 1",
)


# pair multiplying each term by the first divisor's weight only
_pair_drops_second_weight = _variant(pairing.pair, "c * wm * wn", "c * wm")


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


def _gcd_always_one(a, b):
    """The gcd over Z reading every pair of operands as coprime, so that
    every content in y reads as constant and the squarefree split finds
    every input squarefree."""
    return [1]


def _gcd_accept_where_p_divides_lc(a, b):
    """The gcd over Z accepting coprime images mod 3, 5 and 7 without
    skipping the primes that divide the longer operand's leading
    coefficient, where a shared factor can lose its degree mod p."""
    if b and any(len(exact._gcd_p(exact._mod(a, p), exact._mod(b, p), p)) == 1 for p in (3, 5, 7)):
        return [1]
    return _gcd_z(a, b)


def _gcd_short_pair_coprime(a, b):
    """The gcd over Z reading every pair whose shorter operand has degree
    1 or 2, the pairs it sends straight to the PRS, as coprime."""
    if b and 2 <= min(len(a), len(b)) <= 3:
        return [1]
    return _gcd_z(a, b)


def _no_square_root(a):
    """The integer square root finding no root: every quadratic over Z
    and every curve whose smaller degree is 2 reads as prime."""
    return None


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


_RESULTANT = (pairing, oracles, suites)
_WRONG_DEGREE = ("principality", "agreement", "different", "charts", "rsp")
_PAIR = (pairing, arakelov, residues, suites)

# (name, modules, attribute, mutant, suites that must fail)
MUTANTS = [
    ("y-form-capped-at-1", (pairing,), "_pair_primes_kp", _y_form_capped, ("principality", "rsp")),
    ("inf_x-doubled", (pairing,), "_pair_primes_kp", _infx_doubled, ("principality", "selfpair", "rsp")),
    ("x-unary-against-curve-is-0", (pairing,), "_pair_primes_kp", _x_unary_against_curve_is_zero, ("symmetry", "rsp")),
    ("side-K-untransposed", (pairing,), "transpose_divisor", _untransposed, ("agreement",)),
    # a resultant route read with the wrong degree also fails the degree
    # checks of principality and rsp
    ("bezout-plus-inf_y", (pairing,), "_pair_primes_kp", _bezout_plus_one, _WRONG_DEGREE),
    ("inf_y-dropped", (pairing,), "_pair_primes_kp", _infinity_dropped, _WRONG_DEGREE),
    ("first-multiplicity-doubled", (pairing,), "_pair_primes_kp", _first_doubled, _WRONG_DEGREE),
    (
        "inf_y-weight-moved-to-y-0",
        (pairing,),
        "_pair_primes_kp",
        _infinity_moved_to_zero,
        ("agreement", "different", "support", "charts"),
    ),
    (
        "exquo-returns-dividend",
        (exact,),
        "_exquo",
        _exquo_skipped,
        ("symmetry", "bilinearity", "principality", "charts", "calibration", "rsp"),
    ),
    ("prs-remainders-undivided", (exact,), "_subresultant_prs", _prs_undivided, ("charts",)),
    ("prs-final-division-skipped", (exact,), "_subresultant_prs", _prs_final_undivided, ("charts",)),
    ("prs-h-without-division", (exact,), "_subresultant_prs", _prs_h_undivided, ("charts",)),
    (
        "resultant-half-the-bits",
        _RESULTANT,
        "resultant_x",
        _resultant_half_bits,
        ("symmetry", "agreement", "different", "support", "charts", "calibration"),
    ),
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
    ("pair-drops-second-weight", _PAIR, "pair", _pair_drops_second_weight, ("bilinearity", "rsp")),
    ("pattern-proof-always-true", (exact,), "_degree_sets", _always_proved, ("charts",)),
    ("rational-roots-never-found", (exact,), "_rational_roots", _no_roots, ("charts",)),
    ("hensel-lift-bound-without-lc", (exact,), "_hensel_lift", _lift_without_lc, ("charts",)),
    ("gcd-z-always-one", (exact,), "_gcd_z", _gcd_always_one, ("principality", "charts", "rsp")),
    ("gcd-accept-where-p-divides-lc", (exact,), "_gcd_z", _gcd_accept_where_p_divides_lc, ("charts",)),
    ("gcd-left-unreduced", (exact,), "_gcd_z", _gcd_unreduced, ("symmetry", "principality", "charts", "rsp")),
    (
        "gcd-short-pair-read-as-coprime",
        (exact,),
        "_gcd_z",
        _gcd_short_pair_coprime,
        ("symmetry", "principality", "charts", "rsp"),
    ),
    ("square-root-never-found", (exact,), "_sqrt_z", _no_square_root, ("principality", "charts")),
    ("pattern-read-where-p-divides-lc", (exact,), "_degree_pattern", _pattern_where_p_divides_lc, ("charts",)),
    (
        "pattern-read-where-not-squarefree",
        (exact,),
        "_degree_pattern",
        _pattern_where_not_squarefree,
        ("symmetry", "bilinearity", "principality", "agreement", "charts", "rsp"),
    ),
    (
        "gcd-stops-one-euclid-step-early",
        (exact,),
        "_gcd_p",
        _gcd_one_step_early,
        (
            "symmetry",
            "bilinearity",
            "principality",
            "agreement",
            "different",
            "support",
            "charts",
            "calibration",
            "rsp",
        ),
    ),
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


