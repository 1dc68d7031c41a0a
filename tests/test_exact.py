"""Unit tests for the exact arithmetic substrate."""

import math
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ, ZZ
from sympy.polys.factortools import dmp_factor_list

from doublefield import exact
from doublefield.errors import DegreeBound, PrecisionFailure
from doublefield.exact import (
    DEFAULT_FACTOR_DEGREE_BOUND,
    BPoly,
    UPoly,
    _b_domain,
    _from_dmp,
    _from_dup,
    _from_K,
    _to_dmp,
    _to_dup,
    _u_domain,
    certify_irreducible_bivariate,
    complex_roots,
    factor_b,
    factor_q,
    gcd_b,
    gcd_u,
    primitive_int_bpoly,
    primitive_int_upoly,
    resultant_u,
    resultant_x,
    squarefree_decomposition,
)


def up(*coeffs, var="x"):
    return UPoly.make(var, coeffs)


X = BPoly.gen("x")
Y = BPoly.gen("y")


def bp(expr_terms):
    return BPoly.make({k: Fraction(v) for k, v in expr_terms.items()})


small_fracs = st.fractions(min_value=-10, max_value=10, max_denominator=6)


def upoly_strategy(var="x", max_deg=5, coeffs=small_fracs):
    return st.lists(coeffs, min_size=0, max_size=max_deg + 1).map(
        lambda cs: UPoly.make(var, cs)
    )


# integral coefficients take the bridge's ZZ path, the others its QQ path
small_ints = st.integers(-9, 9).map(Fraction)
any_coeffs = st.one_of(small_ints, small_fracs)


def bpoly_strategy(max_deg=3, coeffs=small_fracs, max_terms=6):
    return st.dictionaries(
        st.tuples(st.integers(0, max_deg), st.integers(0, max_deg)), coeffs, max_size=max_terms
    ).map(BPoly.make)


def mixed_upolys(max_deg=5):
    return st.one_of(upoly_strategy(max_deg=max_deg, coeffs=small_ints), upoly_strategy(max_deg=max_deg))


def mixed_bpolys(max_deg=3, max_terms=6):
    return st.one_of(
        bpoly_strategy(max_deg, small_ints, max_terms), bpoly_strategy(max_deg, small_fracs, max_terms)
    )


SX, SY = sympy.symbols("x y")


def sym_u(p):
    """Expression form of a UPoly (test-only oracle input)."""
    s = SX if p.var == "x" else SY
    return sum((sympy.Rational(c.numerator, c.denominator) * s**i for i, c in enumerate(p.coeffs)), sympy.S.Zero)


def sym_b(p):
    return sum(
        (sympy.Rational(v.numerator, v.denominator) * SX**i * SY**j for (i, j), v in p.terms), sympy.S.Zero
    )


def upoly_of_expr(expr, var):
    cs = sympy.Poly(expr, SX if var == "x" else SY, domain="QQ").all_coeffs()
    return UPoly.make(var, [Fraction(int(c.p), int(c.q)) for c in reversed(cs)])


# ---------------------------------------------------------------------------
# UPoly / BPoly arithmetic


class TestUPoly:
    def test_canonical_no_trailing_zeros(self):
        assert up(1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))
        assert up(0).is_zero()

    def test_divmod_roundtrip(self):
        f = up(1, 0, -3, 1)
        g = up(-1, 1)
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.degree() < g.degree()

    def test_eval_compose(self):
        f = up(1, 2, 1)  # (x+1)^2
        assert f.eval(2) == 9
        # substituting a constant for either variable of (x+1)^2 * y
        g = BPoly.from_upoly(f) * Y
        assert g.eval_x(2) == up(0, 9, var="y")
        assert g.eval_y(2) == up(2, 4, 2)

    @settings(max_examples=60)
    @given(upoly_strategy(), upoly_strategy(), upoly_strategy())
    def test_ring_laws(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f

    @settings(max_examples=40)
    @given(upoly_strategy(), upoly_strategy(max_deg=3))
    def test_divmod_identity(self, f, g):
        if g.is_zero():
            return
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.is_zero() or r.degree() < g.degree()


class TestBPoly:
    def test_product(self):
        assert (X - Y) * (X + Y) == X * X - Y * Y

    def test_transpose_involution(self):
        f = X**2 * Y + 3 * X - Y**3
        assert f.transpose().transpose() == f

    def test_eval(self):
        f = X**2 - Y
        assert f.eval_x(3) == up(7, var="y") - up(0, 1, var="y") + up(2, var="y")
        assert f.eval_xy(3, 9) == 0

    @settings(max_examples=40)
    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), small_fracs), max_size=6),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), small_fracs), max_size=6),
    )
    def test_ring_laws(self, a, b):
        f = BPoly.make({(i, j): c for i, j, c in a})
        g = BPoly.make({(i, j): c for i, j, c in b})
        assert f * g == g * f
        assert (f + g) * (f - g) == f * f - g * g

    @settings(max_examples=40)
    @given(mixed_bpolys(max_deg=2, max_terms=4), mixed_upolys(max_deg=3), st.integers(0, 9))
    def test_power_is_repeated_product(self, f, p, n):
        f_n, p_n = BPoly.const(1), UPoly.const("x", 1)
        for _ in range(n):
            f_n, p_n = f_n * f, p_n * p
        assert f**n == f_n
        assert p**n == p_n


# ---------------------------------------------------------------------------
# normalization


class TestPrimitive:
    def test_upoly(self):
        unit, q = primitive_int_upoly(up(Fraction(1, 2), Fraction(-3, 4)))
        assert unit * Fraction(1) != 0
        assert q == up(-2, 3)
        # reconstruct
        assert [unit * c for c in q.coeffs] == list(up(Fraction(1, 2), Fraction(-3, 4)).coeffs)

    def test_bpoly_sign(self):
        unit, q = primitive_int_bpoly(-2 * (X - Y))
        # graded-lex leading term must be positive; x beats y at equal total degree
        assert q == X - Y
        assert unit == -2


# ---------------------------------------------------------------------------
# gcd, resultants, square-free


class TestGcd:
    def test_spec_example(self):
        assert gcd_u(up(-1, 0, 1), up(1, -2, 1)) == up(-1, 1)

    def test_gcd_with_zero(self):
        f = up(2, 4)
        assert gcd_u(f, UPoly.zero("x")) == f.monic()

    def test_coprime(self):
        assert gcd_u(up(1, 0, 1), up(-2, 1)) == up(1)

    @settings(max_examples=40)
    @given(upoly_strategy(max_deg=4), upoly_strategy(max_deg=4))
    def test_divides_both(self, f, g):
        d = gcd_u(f, g)
        if d.is_zero():
            assert f.is_zero() and g.is_zero()
            return
        assert (f % d).is_zero()
        assert (g % d).is_zero()


class TestBridge:
    def test_domain_choice(self):
        assert _u_domain(up(1, -2, 3)) == ZZ
        assert _u_domain(up(1, -2), up(Fraction(1, 2))) == QQ
        assert _b_domain(X - 2 * Y) == ZZ
        assert _b_domain(X - Fraction(2, 3) * Y) == QQ

    def test_dense_layout(self):
        # x is the main variable; rows and coefficients run from the top degree
        assert _to_dmp(X**2 * Y - 3 * Y + BPoly.const(1), ZZ) == [[1, 0], [], [-3, 1]]
        assert _to_dmp(BPoly.zero(), ZZ) == [[]]
        assert _to_dup(up(1, 0, 2), ZZ) == [2, 0, 1]

    @settings(max_examples=80)
    @given(mixed_upolys(), st.sampled_from(("x", "y")))
    def test_upoly_round_trip(self, f, var):
        f = f.with_var(var)
        for K in {_u_domain(f), QQ}:
            assert _from_dup(_to_dup(f, K), var, K) == f

    @settings(max_examples=80)
    @given(mixed_bpolys())
    def test_bpoly_round_trip(self, f):
        for K in {_b_domain(f), QQ}:
            assert _from_dmp(_to_dmp(f, K), K) == f


class TestBridgedAlgebra:
    """Each bridged call against an exact identity or sympy's expression
    layer as an oracle."""

    @settings(max_examples=40, deadline=None)
    @given(mixed_upolys(), mixed_upolys())
    def test_resultant_u_matches_sympy(self, f, g):
        if f.degree() < 1 or g.degree() < 1:
            return
        r = sympy.resultant(sym_u(f), sym_u(g), SX)
        assert resultant_u(f, g) == Fraction(int(r.p), int(r.q))

    @settings(max_examples=40, deadline=None)
    @given(mixed_bpolys(), mixed_bpolys())
    def test_resultant_x_matches_sympy(self, f, g):
        if f.deg_x() < 1 or g.deg_x() < 1:
            return
        # the documented order: Res(g, f) in sympy's argument convention
        r = sympy.resultant(sym_b(g), sym_b(f), SX)
        assert resultant_x(f, g) == upoly_of_expr(r, "y")

    @settings(max_examples=40, deadline=None)
    @given(mixed_upolys(max_deg=3), mixed_upolys(max_deg=3))
    def test_factor_q_reconstructs(self, a, b):
        f = a * b * a
        if f.is_zero():
            return
        unit, fac = factor_q(f)
        prod = UPoly.const("x", unit)
        for p, m in fac:
            assert p.lc() == 1
            prod = prod * p**m
        assert prod == f

    @settings(max_examples=30, deadline=None)
    @given(mixed_bpolys(2, 4), mixed_bpolys(2, 4))
    def test_factor_b_reconstructs(self, a, b):
        f = a * b * a
        if f.is_zero():
            return
        unit, fac = factor_b(f)
        prod = BPoly.const(unit)
        for p, m in fac:
            assert primitive_int_bpoly(p) == (1, p)
            prod = prod * p**m
        assert prod == f

    @settings(max_examples=30, deadline=None)
    @given(mixed_bpolys(2, 4), mixed_bpolys(2, 4), mixed_bpolys(2, 4))
    def test_gcd_b_divides_both(self, a, b, h):
        f, g = a * h, b * h
        if f.is_zero() or g.is_zero():
            return
        d = gcd_b(f, g)
        for p in (f, g):
            assert sympy.rem(sym_b(p), sym_b(d), SX, SY, domain=QQ) == 0
        # the common factor h divides the gcd too
        if h.deg_x() > 0 or h.deg_y() > 0:
            assert sympy.rem(sym_b(d), sym_b(h), SX, SY, domain=QQ) == 0


def _sympy_route(f):
    """factor_b's oracle: sympy's bivariate factorizer through the bridge,
    with each factor put in primitive integer form and sorted."""
    K = _b_domain(f)
    content, fac = dmp_factor_list(_to_dmp(f, K), 1, K)
    unit, out = _from_K(content, K), []
    for p, m in fac:
        u, q = primitive_int_bpoly(_from_dmp(p, K))
        unit *= u**m
        out.append((q, m))
    out.sort(key=lambda t: t[0].terms)
    return unit, out


# curves: positive degree in both variables, mostly irreducible
curves = mixed_bpolys(2, 5).filter(lambda f: f.deg_x() > 0 and f.deg_y() > 0)
nonconstant_upolys = st.sampled_from("xy").flatmap(
    lambda v: upoly_strategy(v, max_deg=2, coeffs=small_ints).filter(lambda p: p.degree() > 0)
)
factor_b_inputs = st.one_of(
    curves,
    st.lists(curves, min_size=2, max_size=3).map(math.prod),
    st.tuples(curves, nonconstant_upolys).map(lambda t: t[0] * BPoly.from_upoly(t[1])),
)


@settings(max_examples=150, deadline=None)
@given(factor_b_inputs)
@example((Y - BPoly.const(1)) * (X + BPoly.const(1)))  # y-content, degree 1 in x
@example((X * Y + BPoly.const(1)) * (X + BPoly.const(1)))  # lc_x vanishes at y = 0
def test_factor_b_matches_sympy_route(f):
    assert factor_b.__wrapped__(f) == _sympy_route(f)


class TestFactorB:
    def test_bound_applies_to_either_variable(self):
        with pytest.raises(DegreeBound):
            factor_b(X**40 - Y**40)
        with pytest.raises(DegreeBound):
            factor_b(X - Y ** (DEFAULT_FACTOR_DEGREE_BOUND + 1))

    def test_degree_one_curves_need_no_factorization(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("factorizer called")

        monkeypatch.setattr(exact, "dmp_factor_list", refuse)
        monkeypatch.setattr(exact, "factor_q", refuse)
        one = BPoly.const(1)
        for f in (X - Y**2, X * Y**2 + Y + one, Y * X**3 + X + one, (X * Y + one).scale(Fraction(-2, 3))):
            u, q = primitive_int_bpoly(f)
            assert factor_b(f) == (u, [(q, 1)])

    def test_undecided_input_pays_one_univariate_factorization(self, monkeypatch):
        factor_q_calls = []
        at_sympy_route = []

        def counting_factor_q(*args):
            factor_q_calls.append(args)
            return factor_q(*args)

        def recording_dmp_factor_list(*args):
            at_sympy_route.append(len(factor_q_calls))
            return dmp_factor_list(*args)

        monkeypatch.setattr(exact, "factor_q", counting_factor_q)
        monkeypatch.setattr(exact, "dmp_factor_list", recording_dmp_factor_list)
        for f, factors in (
            ((X - Y) * (X + Y**2), [X - Y, X + Y**2]),
            (X**2 - Y**2, [X - Y, X + Y]),
        ):
            factor_q_calls.clear()
            at_sympy_route.clear()
            assert factor_b(f) == (1, [(q, 1) for q in factors])
            assert at_sympy_route == [len(factor_q_calls)] and len(factor_q_calls) <= 1

    def test_at_the_bound_still_factors(self):
        f = (X**DEFAULT_FACTOR_DEGREE_BOUND - Y) * BPoly.const(3)
        unit, fac = factor_b(f)
        assert (unit, fac) == (Fraction(3), [(X**DEFAULT_FACTOR_DEGREE_BOUND - Y, 1)])

    def test_difference_of_squares(self):
        unit, fac = factor_b(Y**2 - X**2)
        assert unit == -1
        assert fac == [(X - Y, 1), (X + Y, 1)]


class TestResultant:
    def test_spec_examples(self):
        assert resultant_x(X - Y**2, X - Y) == up(0, 1, -1, var="y")  # y - y^2
        assert resultant_x(X**2 + BPoly.const(1), X - BPoly.const(2)) == up(5, var="y")
        assert resultant_x(X**2 - Y, BPoly.const(1)) == up(1, var="y")

    def test_vanishes_iff_common_factor(self):
        f = (X - Y) * (X + Y)
        g = (X - Y) * (X + BPoly.const(1))
        assert resultant_x(f, g).is_zero()

    def test_sign_swap(self):
        f, g = X**2 - Y, X - Y**2
        r1, r2 = resultant_x(f, g), resultant_x(g, f)
        sign = (-1) ** (f.deg_x() * g.deg_x())
        assert r1 == r2.scale(sign)

    def test_multiplicative(self):
        f, h, g = X - Y, X + Y**2, X**2 - Y - BPoly.const(3)
        assert resultant_x(f * h, g) == resultant_x(f, g) * resultant_x(h, g)

    def test_univariate(self):
        assert resultant_u(up(1, 0, 1), up(-2, 1)) == 5


class TestSquarefree:
    def test_spec_example(self):
        f = up(-1, 1) ** 2 * up(2, 1)
        assert squarefree_decomposition(f) == [(up(2, 1), 1), (up(-1, 1), 2)]

    def test_squarefree_input(self):
        f = up(-6, 1, 1)
        dec = squarefree_decomposition(f)
        assert dec == [(f.monic(), 1)]

    def test_constant(self):
        assert squarefree_decomposition(up(5)) == []


class TestFactorQ:
    def test_x4_minus_1(self):
        unit, fac = factor_q(up(-1, 0, 0, 0, 1))
        assert unit == 1
        assert fac == [(up(-1, 1), 1), (up(1, 1), 1), (up(1, 0, 1), 1)]

    def test_irreducible_quadratic(self):
        unit, fac = factor_q(up(1, 0, 1))
        assert (unit, fac) == (Fraction(1), [(up(1, 0, 1), 1)])

    def test_unit(self):
        unit, fac = factor_q(up(-6, 6))
        assert unit == 6
        assert fac == [(up(-1, 1), 1)]

    def test_reconstruction(self):
        f = up(0, -4, 0, 1)  # x^3 - 4x
        unit, fac = factor_q(f)
        prod = UPoly.const("x", unit)
        for p, m in fac:
            prod = prod * p**m
        assert prod == f

    def test_degree_bound(self):
        with pytest.raises(DegreeBound):
            factor_q(up(*([0] * 30 + [1])))


class TestCertifyIrreducible:
    def test_degree_one(self):
        assert certify_irreducible_bivariate(X - Y**2) == "certified"

    def test_never_certifies_reducible(self):
        assert certify_irreducible_bivariate(X**2 - Y**2) != "certified"

    def test_specialization(self):
        assert certify_irreducible_bivariate(X**2 - Y) == "certified"

    def test_reducible_content_free(self):
        f = (X**2 - Y) * (X**2 + Y)
        assert certify_irreducible_bivariate(f) == "unknown"


class TestComplexRoots:
    def test_x2_plus_1(self):
        rs = complex_roots(up(1, 0, 1), eps=1e-10)
        vals = sorted(float(r.imag) for r in rs)
        assert abs(vals[0] + 1) < 1e-9 and abs(vals[1] - 1) < 1e-9
        assert all(abs(float(r.real)) < 1e-9 for r in rs)

    def test_rational_root(self):
        (r,) = complex_roots(up(Fraction(-3, 2), 1), eps=1e-10)
        assert abs(complex(r) - 1.5) < 1e-9

    def test_cbrt2_vs_bisection(self):
        # independent bisection oracle for the real root of x^3 - 2
        f = up(-2, 0, 0, 1)
        lo, hi = 1.0, 2.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if mid**3 - 2 < 0:
                lo = mid
            else:
                hi = mid
        rs = complex_roots(f, eps=1e-10)
        assert len(rs) == 3
        reals = [r for r in rs if abs(float(r.imag)) < 1e-8]
        assert len(reals) == 1
        assert abs(float(reals[0].real) - lo) < 1e-8

    def test_multiplicity(self):
        f = up(-1, 1) ** 3
        rs = complex_roots(f, eps=1e-10)
        assert len(rs) == 3
        assert all(abs(complex(r) - 1) < 1e-8 for r in rs)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            complex_roots(up(1, 1), eps=0)

    def test_clustered_roots_get_disjoint_discs(self):
        # Mignotte-type x^8 - 2(10x - 1)^2: two real roots near 1/10 lie
        # about 1.4e-5 apart, so discs of radius 1e-6 can be disjoint and
        # discs of radius 1e-5 cannot; approximations that pass the
        # residual test at 1e-5 do not prove they hit different roots
        f = up(*[0] * 8, 1) - (up(-1, 10) ** 2).scale(2)
        eps = 1e-6
        rs = complex_roots(f, eps=eps)
        assert len(rs) == 8
        assert all(abs(a - b) > 2 * eps for i, a in enumerate(rs) for b in rs[i + 1 :])
        with pytest.raises(PrecisionFailure):
            complex_roots(f, eps=1e-5)

    def test_no_convergence_is_precision_failure(self, monkeypatch):
        calls = []

        def never_converges(*args, **kwargs):
            calls.append(args)
            raise mpmath.libmp.NoConvergence("no convergence")

        monkeypatch.setattr(mpmath, "polyroots", never_converges)
        with pytest.raises(PrecisionFailure):
            complex_roots(up(1, 0, 1))
        assert len(calls) == 5  # every step of the precision schedule

    def test_other_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("broken")

        monkeypatch.setattr(mpmath, "polyroots", broken)
        with pytest.raises(RuntimeError):
            complex_roots(up(1, 0, 1))
