"""Unit tests for the exact arithmetic substrate."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublefield.errors import DegreeBound, PrecisionFailure
from doublefield.exact import (
    BPoly,
    UPoly,
    certify_irreducible_bivariate,
    complex_roots,
    factor_q,
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


def upoly_strategy(var="x", max_deg=5):
    return st.lists(small_fracs, min_size=0, max_size=max_deg + 1).map(
        lambda cs: UPoly.make(var, cs)
    )


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
            factor_q(up(*([0] * 30 + [1])), degree_bound=24)


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
