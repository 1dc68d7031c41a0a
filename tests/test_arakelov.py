"""Unit tests for the Arakelov layer and the residue scalar product."""

import time
from fractions import Fraction

import mpmath
import pytest

from doublefield.arakelov import (
    bracket,
    deg_Kp,
    explore_self_products,
    principal_move,
    residue_scalar_product,
)
from doublefield.divisors import (
    BinaryPlace,
    DeltaElement,
    Divisor,
    UnaryPlace,
    bidegree,
    principal_divisor,
)
from doublefield.errors import NotCoprime
from doublefield.exact import BPoly, UPoly
from doublefield.oracles import (
    ArakelovDivisorKp,
    arakelov_from_divisor,
    arch_lambda,
    fs_kappa_closed_form,
    fs_kappa_quadrature,
    fs_point_integral,
    fs_point_integral_quadrature,
    g_fs,
    intersect,
    principal_arakelov,
)

X = BPoly.gen("x")
Y = BPoly.gen("y")
INF_Y = UnaryPlace.infinity("y")


def yp(*coeffs):
    return UPoly.make("y", coeffs)


def yplace(*coeffs):
    return UnaryPlace.finite(yp(*coeffs))


class TestClosedForms:
    def test_kappa(self):
        assert abs(fs_kappa_quadrature() - fs_kappa_closed_form()) < 1e-9

    def test_point_integral(self):
        for c in (0, 1, -2, 1.5, 3):
            assert abs(fs_point_integral_quadrature(c) - fs_point_integral(c)) < 1e-9

    def test_lambda_at_zero(self):
        # -integral of log|z| is 0 by the z -> 1/z symmetry, so the
        # coefficient reduces to deg/2
        assert abs(arch_lambda(yplace(0, 1)) - 0.5) < 1e-12

    def test_unit_scaling(self):
        f = yp(-1, 1)
        a1 = principal_arakelov(f)
        a2 = principal_arakelov(f.scale(3))
        assert abs((a2.arch - a1.arch) + mpmath.log(3)) < 1e-9


class TestPrincipalArakelov:
    def test_constant_two(self):
        a = principal_arakelov(yp(2))
        assert a.horizontal.is_zero()
        assert a.vertical == 2
        assert abs(a.arch + mpmath.log(2)) < 1e-12

    def test_large_prime_unit(self):
        start = time.process_time()
        a = principal_arakelov(yp(-1, 1).scale(2**61 - 1))
        assert time.process_time() - start < 0.5
        assert a.vertical == 2**61 - 1

    def test_unit_far_over_64_bits(self):
        # N is stored, not factored, so no size bound applies to the unit
        unit = Fraction(3**200, 2**300 + 1)
        a = principal_arakelov(yp(-1, 1).scale(unit))
        assert a.vertical == unit
        assert abs(intersect(a, arakelov_from_divisor(Divisor.of(yplace(-3, 1))))) < 1e-6

    def test_float_unit_refused(self):
        # 0.1 is 3602879701896397/2**55, not 1/10: no content is read off it
        with pytest.raises(TypeError, match="not an exact rational"):
            principal_arakelov(yp(-1, 1).scale(0.1))
        assert principal_arakelov(yp(-1, 1).scale(Fraction(1, 10))).vertical == Fraction(1, 10)

    def test_multiplicative(self):
        f, g = yp(-1, 1), yp(3, 0, 1)
        ab = principal_arakelov(f * g)
        a, b = principal_arakelov(f), principal_arakelov(g)
        assert ab.horizontal == (a + b).horizontal
        assert ab.vertical == (a + b).vertical
        assert abs(ab.arch - (a.arch + b.arch)) < 1e-9


class TestIntersect:
    def test_vertical_rule(self):
        v = ArakelovDivisorKp.make(Divisor.zero(), 5)
        h = arakelov_from_divisor(Divisor.of(yplace(-3, 1)))
        assert abs(intersect(v, h) - mpmath.log(5)) < 1e-12

    def test_fiber_fiber(self):
        v = ArakelovDivisorKp.make(Divisor.zero(), 5, arch=2.0)
        w = ArakelovDivisorKp.make(Divisor.zero(), 9, arch=-1.0)
        assert intersect(v, w) == 0

    def test_product_formula_calibration(self):
        fs = [yp(-1, 1), yp(2), yp(-6, 1, 1), yp(1, 0, 2), yp(0, 1)]
        targets = [
            arakelov_from_divisor(Divisor.of(yplace(-3, 1))),
            arakelov_from_divisor(Divisor.of(INF_Y)),
            arakelov_from_divisor(Divisor.make({yplace(5, 1): 2, yplace(1, 0, 1): 1})),
        ]
        for f in fs:
            pa = principal_arakelov(f)
            for d in targets:
                if not pa.horizontal.disjoint_from(d.horizontal):
                    continue
                assert abs(intersect(pa, d)) < 1e-6

    def test_symmetry_bilinearity(self):
        a = arakelov_from_divisor(Divisor.of(yplace(-1, 1)))
        b = arakelov_from_divisor(Divisor.make({yplace(-3, 1): 1, INF_Y: 2}))
        c = ArakelovDivisorKp.make(Divisor.of(yplace(1, 1)), Fraction(4, 9), arch=1.25)
        assert abs(intersect(a, b) - intersect(b, a)) < 1e-9
        assert abs(intersect(a + c, b) - (intersect(a, b) + intersect(c, b))) < 1e-9

    def test_common_support(self):
        a = arakelov_from_divisor(Divisor.of(yplace(-1, 1)))
        with pytest.raises(NotCoprime):
            intersect(a, a)

    def test_green_infinity_limit(self):
        assert abs(g_fs(0, 3) - (-mpmath.log(3) + 0.5 * mpmath.log(10))) < 1e-12


class TestDegKp:
    def test_zero_divisor(self):
        assert deg_Kp(Divisor.zero()) == 0

    def test_closed_form(self):
        d = Divisor.make({yplace(-3, 1): 1, yplace(1, 0, 1): 2, INF_Y: -1})
        assert deg_Kp(d) == -2 * (1 + 4 - 1)
        assert type(deg_Kp(d)) is int

    def test_equals_canonical_route(self):
        # intersect against K_c = arakelov(-2 inf_y) - 2 div_Ar(y - c) for
        # two c off the support: the numeric route the closed form replaces
        d = Divisor.make({yplace(-3, 1): 1, yplace(1, 0, 1): 2})
        for c in (2, 5):
            base = arakelov_from_divisor(Divisor.of(INF_Y, -2))
            k_c = base - principal_arakelov(yp(-c, 1)).scale(2)
            assert abs(intersect(arakelov_from_divisor(d), k_c) - deg_Kp(d)) < 1e-9

    def test_additive(self):
        d1 = Divisor.of(yplace(-3, 1))
        d2 = Divisor.of(INF_Y, 2)
        assert deg_Kp(d1 + d2) == deg_Kp(d1) + deg_Kp(d2) == -6

    def test_principal_degree_zero(self):
        pa = principal_arakelov(yp(-6, 1, 1)) - principal_arakelov(yp(-1, 1))
        assert deg_Kp(pa.horizontal) == 0

    def test_refuses_other_places(self):
        with pytest.raises(ValueError):
            deg_Kp(Divisor.of(UnaryPlace.finite(UPoly.make("x", [-3, 1]))))
        with pytest.raises(ValueError):
            deg_Kp(Divisor.of(BinaryPlace.make(X - Y)))


class TestBracketAndRsp:
    def test_trace_degree_balances_on_principal(self):
        # the bracket reads the trace degree off the bidegree, which
        # balances on every principal divisor
        a = DeltaElement.from_fraction(X - Y**2, X * Y - BPoly.const(2))
        assert bidegree(principal_divisor(a)) == (0, 0)

    def test_binary_binary_bracket_matches_pairing_degree(self):
        # two degree-one curves: bracket = -2 * (1*2 + 1*1) must agree
        # with the degree term of the pairing, leaving a zero product
        A = Divisor.of(BinaryPlace.make(X - Y**2))
        B = Divisor.of(BinaryPlace.make(X - Y))
        assert bracket(A, B) == -6
        assert residue_scalar_product(A, B) == 0

    def test_rsp_principal_vanishes(self):
        a = DeltaElement.from_fraction(X - Y**2, X * Y - BPoly.const(2))
        A = principal_divisor(a)
        B = Divisor.of(BinaryPlace.make(X - Y - BPoly.const(3)))
        assert residue_scalar_product(A, B) == 0

    def test_rsp_symmetric(self):
        A = Divisor.of(BinaryPlace.make(X - Y**2))
        B = Divisor.make({BinaryPlace.make(X - Y): 1, yplace(-3, 1): 1})
        assert residue_scalar_product(A, B) == residue_scalar_product(B, A) == 0

    def test_rsp_class_invariance(self):
        A = Divisor.of(BinaryPlace.make(X - Y))
        B = Divisor.of(BinaryPlace.make(X - Y**2))
        A2 = principal_move(A, fresh=11)
        v1 = residue_scalar_product(A2, B)
        # A2 differs from A by a principal divisor, so pairing against B
        # gives the same number as any other representative
        A3 = principal_move(A, fresh=23)
        v2 = residue_scalar_product(A3, B)
        assert v1 == v2 == 0


class TestExplorer:
    def test_deterministic(self):
        r1 = explore_self_products(trials=3, max_deg=2, seed=7)
        r2 = explore_self_products(trials=3, max_deg=2, seed=7)
        assert r1 == r2

    def test_residuals_small(self):
        r = explore_self_products(trials=5, max_deg=2, seed=1)
        assert all(rec["move_residual"] == 0.0 for rec in r["records"])
        assert r["minimum"] == min(rec["value"] for rec in r["records"])

    @pytest.mark.parametrize("max_deg", [0, -3])
    def test_max_deg_below_one_refused(self, max_deg):
        with pytest.raises(ValueError, match="max_deg must be at least 1"):
            explore_self_products(trials=2, max_deg=max_deg, seed=7)
