"""Properties of the pairing and the residue routes on generated binary
primes of bidegree at most (2, 2), beyond the fixed suite pools, of the
oracle's different and pole divisors on generated degree-one primes, of
the fiber rule under Moebius maps of y, of the
closed-form principal divisors of places against the factoring route
they replaced, of the residue routes and the bracket against the
per-prime routes they replaced, of the one-``make`` pairing,
correspondence and divisor sum against the left folds they replaced,
of the place order against the per-coefficient key it replaced, of
the pairing rule read off place bidegrees against the case analysis over
place families it replaced, and of inf_x against a curve as x = 0
against the curve under x -> 1/x."""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from doublefield.arakelov import _prime_pool, bracket, deg_Kp, principal_move, second_move
from doublefield.divisors import (
    BinaryPlace,
    DeltaElement,
    Divisor,
    UnaryPlace,
    bidegree,
    degree_K,
    degree_one_coeffs,
    div_of_place,
    divisor_of_upoly,
    place_bidegree,
    place_of_curve,
    place_sort_key,
    transpose_divisor,
    transpose_place,
)
from doublefield.errors import InputError, NotCoprime
from doublefield.exact import BPoly, UPoly, clear_caches, factor_q, gcd_u
from doublefield.oracles import different_divisor, pole_divisor
from doublefield.pairing import SIDE_K, SIDE_KPRIME, _pair_primes, fiber_divisor, pair, self_pair_degree_one
from doublefield.residues import (
    _check_coprime_to,
    _degree_one_kp_value,
    _prime_correspondence,
    correspondence,
    residue_mod_degree_one,
    residue_mod_Kp_degree_one,
)
from doublefield.suites import (
    _pull_curve,
    _pull_divisor,
    binary_pool,
    extended_degree_one_pool,
)

PROPERTY_SETTINGS = settings(max_examples=20, deadline=None)
X, Y, ONE = BPoly.gen("x"), BPoly.gen("y"), BPoly.const(1)
INF_Y = UnaryPlace.infinity("y")


@st.composite
def binary_primes(draw):
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            st.sampled_from((-3, -2, -1, 1, 2, 3)),
            min_size=2,
            max_size=5,
        )
    )
    f = BPoly.make(terms)
    assume(f.deg_x() >= 1 and f.deg_y() >= 1)
    # some draws are reducible; a shift f + c of the same bidegree stands
    # in for them, because discarding them (two draws per example)
    # tripped the filter_too_much health check
    for c in (0, 1, -1, 2):
        try:
            return BinaryPlace.make(f + BPoly.const(c))
        except InputError:
            pass
    assume(False)


@PROPERTY_SETTINGS
@given(binary_primes(), binary_primes())
def test_pair_symmetric_with_bezout_degree(m, n):
    assume(m != n)
    A, B = Divisor.of(m), Divisor.of(n)
    for side in (SIDE_K, SIDE_KPRIME):
        assert pair(A, B, side) == pair(B, A, side)
    bezout = m.poly.deg_x() * n.poly.deg_y() + m.poly.deg_y() * n.poly.deg_x()
    assert degree_K(pair(A, B, SIDE_KPRIME)) == bezout


@st.composite
def degree_one_places(draw):
    """a(y)*x - b(y) for coprime a and b of degree at most 3, not both
    constant: a prime because its content in y is gcd(a, b) = 1."""
    coeffs = st.lists(st.integers(-3, 3), min_size=1, max_size=4)
    a, b = (UPoly.make("y", draw(coeffs)) for _ in range(2))
    assume(not a.is_zero() and max(a.degree(), b.degree()) >= 1)
    assume(gcd_u(a, b).degree() == 0)
    return BinaryPlace.make(BPoly.from_upoly(a) * X - BPoly.from_upoly(b))


@PROPERTY_SETTINGS
@given(degree_one_places(), degree_one_places())
def test_different_divisor_is_the_pairing(m, n):
    assume(m != n)
    d = different_divisor(m, n)
    assert d == pair(Divisor.of(m), Divisor.of(n))
    assert d == different_divisor(n, m)
    assert all(c > 0 for _, c in d.coeffs)
    assert degree_K(d) == m.poly.deg_y() + n.poly.deg_y()


@PROPERTY_SETTINGS
@given(degree_one_places())
def test_pole_divisor_is_the_pairing_with_inf_x(m):
    d = pole_divisor(m)
    assert d == pair(Divisor.of(UnaryPlace.infinity("x")), Divisor.of(m))
    assert degree_K(d) == m.poly.deg_y()


@PROPERTY_SETTINGS
@given(binary_primes(), st.integers(-3, 3), st.integers(1, 3))
def test_correspondence_matches_chart_route(m, a, b):
    A = Divisor.of(m)
    p = UnaryPlace.finite(UPoly.make("y", [-a, b]))
    assert correspondence(A, p) == residue_mod_Kp_degree_one(A, p)


# sigma(y) = (ay + b)/(cy + d) as (a, b, c, d), with ad != bc
moebius_maps = st.tuples(*[st.integers(-3, 3)] * 4).filter(lambda s: s[0] * s[3] != s[1] * s[2])


@PROPERTY_SETTINGS
@given(binary_primes(), binary_primes(), moebius_maps)
@example(place_of_curve(X - Y**2), place_of_curve(X - Y), (0, 1, 1, 0))
@example(place_of_curve(X - Y**2), place_of_curve(X - Y), (2, 1, 1, 1))
def test_fiber_divisor_is_moebius_equivariant(m, n, s):
    """fiber_divisor(phi^*f, phi^*g) = sigma^* fiber_divisor(f, g) for
    phi = (id, sigma), each side from empty memos (proof in
    ``suites.run_charts``)."""
    assume(m != n)
    f, g = m.poly, n.poly
    clear_caches()
    expected = _pull_divisor(fiber_divisor(f, g), s)
    clear_caches()
    assert fiber_divisor(_pull_curve(f, s), _pull_curve(g, s)) == expected


def _yplace(*coeffs):
    return UnaryPlace.finite(UPoly.make("y", coeffs))


def test_pull_back_under_inversion_swaps_zero_and_infinity():
    s = (0, 1, 1, 0)  # y -> 1/y
    assert _pull_curve(X - Y**2, s) == X * Y**2 - ONE
    assert _pull_divisor(Divisor.of(INF_Y), s) == Divisor.of(_yplace(0, 1))
    assert _pull_divisor(Divisor.of(_yplace(0, 1)), s) == Divisor.of(INF_Y)
    D = Divisor.make({_yplace(-2, 0, 1): 3, INF_Y: -1})
    assert _pull_divisor(D, s) == Divisor.make({_yplace(-1, 0, 2): 3, _yplace(0, 1): -1})


def test_pull_back_moves_infinity_for_a_map_with_bc_nonzero():
    # sigma(y) = (2y + 1)/(y + 1) sends infinity to 2 and -1 to infinity
    s = (2, 1, 1, 1)
    assert _pull_divisor(Divisor.of(_yplace(-2, 1)), s) == Divisor.of(INF_Y)
    assert _pull_divisor(Divisor.of(INF_Y), s) == Divisor.of(_yplace(1, 1))


weights = st.sampled_from((-2, -1, 1, 2))


@PROPERTY_SETTINGS
@given(binary_primes(), binary_primes(), binary_primes(), weights, weights, weights, weights, weights)
def test_pair_bilinear(p, q, r, w1, w2, w3, w4, w5):
    assume(len({p, q, r}) == 3)
    # A1 and A2 share their support, so additivity also checks that
    # the coefficients multiply, in either argument
    A1 = Divisor.make({p: w1, q: w2})
    A2 = Divisor.make({p: w3, q: w4})
    B = Divisor.of(r, w5)
    for side in (SIDE_K, SIDE_KPRIME):
        assert pair(A1 + A2, B, side) == pair(A1, B, side) + pair(A2, B, side)
        assert pair(B, A1 + A2, side) == pair(B, A1, side) + pair(B, A2, side)


# ---------------------------------------------------------------------------
# closed-form principal divisors of places against the factoring route


def _curve(m) -> BPoly:
    return m.poly if isinstance(m, BinaryPlace) else BPoly.from_upoly(m.poly)


def _factoring_divisor(a: DeltaElement) -> Divisor:
    """div(a) read off its refined factors, with the degree valuations
    den - num at infinity: the route principal_divisor took before the
    closed form."""
    d = {}
    for f, e in a.factors:
        if f.deg_x() >= 1 and f.deg_y() >= 1:
            d[BinaryPlace(f)] = e
        else:
            d[UnaryPlace.finite(f.as_upoly())] = e
    d[UnaryPlace.infinity("x")] = -sum(f.deg_x() * e for f, e in a.factors)
    d[UnaryPlace.infinity("y")] = -sum(f.deg_y() * e for f, e in a.factors)
    return Divisor.make(d)


def _factoring_move(A: Divisor, fresh: int) -> Divisor:
    finite = [(_curve(m), -w) for m, w in A.coeffs if not (isinstance(m, UnaryPlace) and m.is_infinity())]
    moved = A + _factoring_divisor(DeltaElement.from_factors(1, finite))
    support = set(A.support())
    for var in ("x", "y"):
        w = moved.coeff(UnaryPlace.infinity(var))
        if w and UnaryPlace.infinity(var) in support:
            t = fresh
            while UnaryPlace.finite(UPoly.make(var, [-t, 1])) in support:
                t += 1
            lin = BPoly.gen(var) - BPoly.const(t)
            moved = moved + _factoring_divisor(DeltaElement.from_factors(1, [(lin, w)]))
    return moved


def _factoring_second_move(A: Divisor, moved: Divisor, fresh: int) -> Divisor:
    support = set(A.support()) | set(moved.support())
    t = fresh
    while any(UnaryPlace.finite(UPoly.make("y", [-c, 1])) in support for c in (t, t + 1)):
        t += 1
    y = BPoly.gen("y")
    return moved + _factoring_divisor(DeltaElement.from_fraction(y - BPoly.const(t), y - BPoly.const(t + 1)))


@st.composite
def unary_places(draw):
    p = UPoly.make(draw(st.sampled_from("xy")), draw(st.lists(st.integers(-3, 3), min_size=2, max_size=4)))
    assume(p.degree() >= 1)
    return UnaryPlace.finite(factor_q(p)[1][0][0])


@PROPERTY_SETTINGS
@given(st.one_of(binary_primes(), unary_places()))
def test_div_of_place_matches_factoring_route(m):
    D = div_of_place(m)
    assert D == _factoring_divisor(DeltaElement.from_factors(1, [(_curve(m), 1)]))
    assert bidegree(D) == (0, 0)


@pytest.mark.parametrize("var", ["x", "y"])
def test_div_of_place_refuses_infinity(var):
    with pytest.raises(ValueError):
        div_of_place(UnaryPlace.infinity(var))


POOL = _prime_pool(2)
pool_divisors = st.dictionaries(
    st.sampled_from(POOL), st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=1, max_size=4
).map(Divisor.make)


@settings(max_examples=60, deadline=None)
@given(pool_divisors, st.integers(0, 60), st.integers(0, 60))
def test_moves_match_factoring_route(A, fresh, fresh2):
    moved = principal_move(A, fresh)
    assert moved == _factoring_move(A, fresh)
    again = second_move(A, moved, fresh2)
    assert again == _factoring_second_move(A, moved, fresh2)
    for B in (moved, again):
        assert B.disjoint_from(A)
        assert bidegree(B - A) == (0, 0)


def test_second_move_refuses_a_moved_divisor_meeting_A():
    A = Divisor.of(POOL[2])
    with pytest.raises(ValueError, match="meets the support"):
        second_move(A, A + principal_move(A, 5), 7)


def test_self_pairing_moved_matches_factoring_route():
    for m in extended_degree_one_pool():
        den = BPoly.from_upoly(degree_one_coeffs(m)[0].monic())
        expected = Divisor.of(m) - _factoring_divisor(DeltaElement.from_fraction(m.poly, den))
        assert self_pair_degree_one(m).moved == expected


# ---------------------------------------------------------------------------
# residues and the bracket against the per-prime routes they replaced


def _old_residue_of_prime(m, n: BinaryPlace) -> Divisor:
    """Residue of one prime modulo a degree-one binary prime n = a*x - b,
    read off a table of prime families."""
    a, b = degree_one_coeffs(n)
    if isinstance(m, BinaryPlace):
        if m.poly.deg_x() == 1:
            return different_divisor(m, n)
        return fiber_divisor(m.poly, n.poly)
    if m.var == "x":
        if m.is_infinity():
            return pole_divisor(n)
        dp = m.poly.degree()
        cleared = UPoly.zero("y")
        for i, c in enumerate(m.poly.coeffs):
            cleared = cleared + (b**i) * (a ** (dp - i)).scale(c)
        return divisor_of_upoly(cleared, dp * max(a.degree(), b.degree()))
    return Divisor.of(m)


def _old_residue_mod_degree_one(A: Divisor, n: BinaryPlace) -> Divisor:
    degree_one_coeffs(n)
    if A.coeff(n) != 0:
        raise NotCoprime(f"divisor meets the modulus {n}")
    out = Divisor.zero()
    for m, w in A.coeffs:
        out = out + _old_residue_of_prime(m, n).scale(w)
    return out


def _old_residue_mod_Kp_degree_one(A: Divisor, q: UnaryPlace) -> Divisor:
    """The chart loop: each binary prime against the line y = c with x
    and y swapped, x-unary primes passing through."""
    if A.coeff(q) != 0:
        raise NotCoprime(f"divisor meets the modulus {q}")
    q_t = BPoly.make({(1, 0): q.poly.coeffs[1], (0, 0): q.poly.coeffs[0]})
    out = Divisor.zero()
    for m, w in A.coeffs:
        if isinstance(m, BinaryPlace):
            out = out + transpose_divisor(fiber_divisor(q_t, m.poly.transpose())).scale(w)
        elif m.var == "x":
            out = out + Divisor.of(m, w)
    return out


def _old_trace_to_Qy(A: Divisor) -> Divisor:
    """A traced to Q(y): its y-unary components as they stand, every
    other prime at inf_y with its residue degree over Q(x)."""
    out = Divisor.make({m: w for m, w in A.coeffs if isinstance(m, UnaryPlace) and m.var == "y"})
    extra = sum(w * place_bidegree(m)[1] for m, w in A.coeffs if not (isinstance(m, UnaryPlace) and m.var == "y"))
    return out + Divisor.of(UnaryPlace.infinity("y"), extra)


def _old_bracket(A: Divisor, b: Divisor) -> int:
    nA, nB = bidegree(A)[0], bidegree(b)[0]
    return nB * deg_Kp(_old_trace_to_Qy(A)) + nA * deg_Kp(_old_trace_to_Qy(b))


def _outcome(f, *args):
    """The value of f(*args), or the class and message it raises."""
    try:
        return f(*args)
    except Exception as exc:  # the error, not only the value, must agree
        return type(exc), str(exc)


RESIDUE_POOL = binary_pool() + _prime_pool(2)
MODULI = extended_degree_one_pool()
residue_divisors = st.dictionaries(
    st.sampled_from(RESIDUE_POOL), st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=1, max_size=4
).map(Divisor.make)


@settings(max_examples=80, deadline=None)
@given(residue_divisors, st.sampled_from(MODULI + RESIDUE_POOL), st.integers(-6, 6))
def test_residue_routes_match_per_prime_routes(A, n, c):
    if isinstance(n, BinaryPlace):
        assert _outcome(residue_mod_degree_one, A, n) == _outcome(_old_residue_mod_degree_one, A, n)
    q = UnaryPlace.finite(UPoly.make("y", [-c, 1]))
    assert _outcome(residue_mod_Kp_degree_one, A, q) == _outcome(_old_residue_mod_Kp_degree_one, A, q)


@settings(max_examples=80, deadline=None)
@given(residue_divisors, residue_divisors)
def test_bracket_matches_trace_route(A, B):
    assert bracket(A, B) == _old_bracket(A, B) == bracket(B, A)


# ---------------------------------------------------------------------------
# one Divisor.make per pairing and per sum against the left folds they replaced


def _old_make(d: dict) -> Divisor:
    return Divisor(tuple(sorted(((p, c) for p, c in d.items() if c), key=lambda t: place_sort_key(t[0]))))


def _old_add(D: Divisor, E: Divisor) -> Divisor:
    d = dict(D.coeffs)
    for p, c in E.coeffs:
        d[p] = d.get(p, 0) + c
    return _old_make(d)


def _old_pair(A: Divisor, b: Divisor, side: str) -> Divisor:
    if not A.disjoint_from(b):
        raise NotCoprime("pairing requires disjoint supports")
    out = Divisor.zero()
    for m, wm in A.coeffs:
        for n, wn in b.coeffs:
            out = _old_add(out, _pair_primes(m, n, side).scale(wm * wn))
    return out


def _old_correspondence(A: Divisor, p: UnaryPlace) -> Divisor:
    c = _degree_one_kp_value(p)
    _check_coprime_to(A, p)
    out = Divisor.zero()
    for m, w in A.coeffs:
        out = _old_add(out, _prime_correspondence(m, c).scale(w))
    return out


def _same_divisor(new, old):
    """Equal outcomes; a divisor has the same coefficient tuple and prints the same."""
    if isinstance(new, Divisor):
        assert (new.coeffs, str(new)) == (old.coeffs, str(old))
    else:
        assert new == old


@settings(max_examples=60, deadline=None)
@given(residue_divisors, residue_divisors, st.data())
def test_one_make_matches_left_folds(A, B, data):
    for side in (SIDE_K, SIDE_KPRIME):
        _same_divisor(_outcome(pair, A, B, side), _outcome(_old_pair, A, B, side))
        _same_divisor(_outcome(pair, B, A, side), _outcome(_old_pair, B, A, side))
    # C cancels some components of A and shares others with B
    cancelled = data.draw(st.sets(st.sampled_from(A.support())))
    C = Divisor.make({**dict(B.coeffs), **{m: -w for m, w in A.coeffs if m in cancelled}})
    for D, E in ((A, B), (A, C), (C, A), (A, A)):
        _same_divisor(D + E, _old_add(D, E))
        _same_divisor(D - E, _old_add(D, -E))
    assert (A - A).coeffs == ()
    assert all((A + C).coeff(m) == 0 for m in cancelled)


@settings(max_examples=60, deadline=None)
@given(residue_divisors, st.integers(-6, 6))
def test_one_make_correspondence_matches_left_fold(A, c):
    p = UnaryPlace.finite(UPoly.make("y", [-c, 1]))
    _same_divisor(_outcome(correspondence, A, p), _outcome(_old_correspondence, A, p))


# ---------------------------------------------------------------------------
# the place order against the per-coefficient key it replaced


def _old_place_sort_key(p):
    """The key that paired every coefficient as (numerator, denominator)."""
    if isinstance(p, BinaryPlace):
        return (2, 0, tuple((k, (c.numerator, c.denominator)) for k, c in p.poly.terms))
    fam = 0 if p.var == "x" else 1
    if p.poly is None:
        return (fam, 1, ())
    return (fam, 0, tuple((c.numerator, c.denominator) for c in p.poly.coeffs))


places = st.one_of(binary_primes(), unary_places(), st.sampled_from("xy").map(UnaryPlace.infinity))


@settings(max_examples=60, deadline=None)
@given(st.lists(places, min_size=2, max_size=6))
def test_place_sort_key_matches_pair_key(ms):
    old, new = _old_place_sort_key, place_sort_key
    for m in ms:
        for n in ms:
            assert (new(m) < new(n)) == (old(m) < old(n))
            assert (new(m) == new(n)) == (old(m) == old(n)) == (m == n)


# ---------------------------------------------------------------------------
# the pairing rule read off place bidegrees against the family ladder it replaced


def _ladder_degree_over_Kp(m) -> int:
    if isinstance(m, BinaryPlace):
        return m.poly.deg_x()
    return m.degree() if m.var == "x" else 0


def _ladder_pair_primes_kp(m, n) -> Divisor:
    """The seven-way case analysis over place families."""
    m_kp_unary = isinstance(m, UnaryPlace) and m.var == "y"
    n_kp_unary = isinstance(n, UnaryPlace) and n.var == "y"
    if m_kp_unary and n_kp_unary:
        return Divisor.zero()
    if n_kp_unary:
        return Divisor.of(n, _ladder_degree_over_Kp(m)) if _ladder_degree_over_Kp(m) else Divisor.zero()
    if m_kp_unary:
        return Divisor.of(m, _ladder_degree_over_Kp(n)) if _ladder_degree_over_Kp(n) else Divisor.zero()
    if isinstance(m, UnaryPlace) and isinstance(n, UnaryPlace):
        return Divisor.zero()
    if m == UnaryPlace.infinity("x"):
        return fiber_divisor(X, _reversed_in_x(n.poly))
    if n == UnaryPlace.infinity("x"):
        return fiber_divisor(X, _reversed_in_x(m.poly))
    return fiber_divisor(_curve(m), _curve(n))


def _reversed_in_x(f: BPoly) -> BPoly:
    """x^a * f(1/x, y) for f of x-degree a: the curve f under x -> 1/x,
    which sends the fiber of f at x = infinity to its fiber at x = 0."""
    a = f.deg_x()
    return BPoly.make({(a - i, j): c for (i, j), c in f.terms})


@PROPERTY_SETTINGS
@given(binary_primes())
@example(place_of_curve(X - Y))
@example(place_of_curve(X * X * (Y * Y + ONE) + X + Y**3))
def test_infx_pairs_as_x_zero_of_the_reversed_curve(n):
    """pair(inf_x, n) = pair((x), n*) on side Kprime, with n* = x^a*n(1/x, y)
    the image of n under x -> 1/x.  x does not divide the prime n, so n*
    is again a binary prime of bidegree (a, b)."""
    reversed_n = place_of_curve(_reversed_in_x(n.poly))
    assert place_bidegree(reversed_n) == place_bidegree(n)
    x_zero = UnaryPlace.finite(UPoly.make("x", [0, 1]))
    expected = pair(Divisor.of(x_zero), Divisor.of(reversed_n))
    assert pair(Divisor.of(UnaryPlace.infinity("x")), Divisor.of(n)) == expected


def _ladder_pair_primes(m, n, side: str) -> Divisor:
    if side == SIDE_K:
        return transpose_divisor(_ladder_pair_primes_kp(transpose_place(m), transpose_place(n)))
    return _ladder_pair_primes_kp(m, n)


def _prime_near(f: BPoly):
    """The place of f + c for the first c of 0, 1, -1, 2 at which
    ``place_of_curve`` finds a prime."""
    for c in (0, 1, -1, 2):
        try:
            return place_of_curve(f + BPoly.const(c))
        except InputError:
            pass
    assume(False)


@st.composite
def bidegree_3_primes(draw):
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.sampled_from((-3, -2, -1, 1, 2, 3)),
            min_size=2,
            max_size=6,
        )
    )
    f = BPoly.make(terms)
    assume(f.deg_x() >= 1 and f.deg_y() >= 1)
    return _prime_near(f)


@st.composite
def unary_primes(draw):
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3)) + [draw(st.integers(1, 3))]
    return _prime_near(BPoly.from_upoly(UPoly.make(draw(st.sampled_from("xy")), coeffs)))


all_places = st.one_of(bidegree_3_primes(), unary_primes(), st.sampled_from("xy").map(UnaryPlace.infinity))


@settings(max_examples=120, deadline=None)
@given(all_places, all_places)
# one example per reading: X0 = inf_x, a Bezout number of 0, and a form
# of X-degree 0, finite and at infinity
@example(UnaryPlace.infinity("x"), place_of_curve(X * Y - ONE))
@example(place_of_curve(X - ONE), place_of_curve(X + BPoly.const(2)))
@example(place_of_curve(Y - ONE), place_of_curve(X * X - Y))
@example(UnaryPlace.infinity("y"), place_of_curve(X * X * Y - ONE))
def test_pairing_rule_matches_family_ladder(m, n):
    assume(m != n)
    (a1, b1), (a2, b2) = place_bidegree(m), place_bidegree(n)
    for a, b in ((m, n), (n, m)):
        for side in (SIDE_K, SIDE_KPRIME):
            assert _pair_primes(a, b, side) == _ladder_pair_primes(a, b, side)
        assert degree_K(_pair_primes(a, b, SIDE_KPRIME)) == a1 * b2 + a2 * b1
