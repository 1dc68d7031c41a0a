"""Unit tests for the fiber rule, the norm pairing, images of dx and self-pairing."""

import pytest

from doublefield.divisors import (
    BinaryPlace,
    DeltaElement,
    Divisor,
    UnaryPlace,
    degree_K,
    principal_divisor,
)
from doublefield.errors import NotCoprime
from doublefield.exact import BPoly, UPoly, resultant_x
from doublefield.oracles import pole_divisor
from doublefield.pairing import (
    SIDE_K,
    SIDE_KPRIME,
    fiber_divisor,
    pair,
    self_pair_degree_one,
)

X = BPoly.gen("x")
Y = BPoly.gen("y")
INF_X = UnaryPlace.infinity("x")
INF_Y = UnaryPlace.infinity("y")


def yplace(*coeffs):
    return UnaryPlace.finite(UPoly.make("y", coeffs))


def xplace(*coeffs):
    return UnaryPlace.finite(UPoly.make("x", coeffs))


def b(f):
    return BinaryPlace.make(f)


class TestCharts:
    def test_worked_fiber(self):
        d = fiber_divisor(X - Y**2, X - Y)
        assert d == Divisor.make({yplace(0, 1): 1, yplace(-1, 1): 1, INF_Y: 1})

    def test_common_component(self):
        with pytest.raises(NotCoprime):
            fiber_divisor((X - Y) * (X + Y), X - Y)

    def test_common_component_in_y_alone(self):
        # Res_x does not vanish on a shared factor in y alone, so the
        # y-content check has to refuse these pairs
        one, two = BPoly.const(1), BPoly.const(2)
        f, g = (Y - one) * (X + one), (Y - one) * (X + two)
        assert not resultant_x(f, g).is_zero()
        for f, g in ((f, g), ((X + one) * Y, (X + one) * (Y + two))):
            with pytest.raises(NotCoprime):
                fiber_divisor(f, g)

    def test_infx(self):
        # X0 = inf_x against a curve reads lc_x of the curve as a form of
        # its y-degree
        infx = Divisor.of(INF_X)
        assert pair(infx, Divisor.of(b(X - Y))) == Divisor.of(INF_Y)
        assert pair(infx, Divisor.of(b(Y * X - BPoly.const(1)))) == Divisor.of(yplace(0, 1))


class TestPair:
    def test_worked_example(self):
        d = pair(Divisor.of(b(X - Y**2)), Divisor.of(b(X - Y)), SIDE_KPRIME)
        assert d == Divisor.make({yplace(0, 1): 1, yplace(-1, 1): 1, INF_Y: 1})

    def test_kp_unary_convention(self):
        d = pair(Divisor.of(b(X - Y**2)), Divisor.of(yplace(-5, 1)), SIDE_KPRIME)
        assert d == Divisor.of(yplace(-5, 1))

    def test_k_unary_image(self):
        d = pair(Divisor.of(xplace(-1, 1)), Divisor.of(b(X - Y)), SIDE_KPRIME)
        assert d == Divisor.of(yplace(-1, 1))

    def test_symmetry_spot(self):
        pairs = [
            (Divisor.of(b(X - Y**2)), Divisor.of(b(X - Y))),
            (Divisor.of(b(X**2 - Y)), Divisor.of(yplace(1, 1))),
            (Divisor.of(xplace(0, 1)), Divisor.of(b(X**2 + Y**2 - BPoly.const(2)))),
            (Divisor.of(INF_X), Divisor.of(b(Y * X - BPoly.const(1)))),
        ]
        for A, B in pairs:
            for side in (SIDE_K, SIDE_KPRIME):
                assert pair(A, B, side) == pair(B, A, side)

    def test_bilinear(self):
        A = Divisor.of(b(X - Y**2))
        A2 = Divisor.of(xplace(-2, 1))
        B = Divisor.make({b(X - Y): 1, yplace(-3, 1): 2})
        assert pair(A + A2, B) == pair(A, B) + pair(A2, B)

    def test_not_coprime(self):
        A = Divisor.of(b(X - Y))
        with pytest.raises(NotCoprime):
            pair(A, A)

    def test_principal_collapse(self):
        a = DeltaElement.from_fraction(X - Y**2, X * Y - BPoly.const(2))
        A = principal_divisor(a)
        B = Divisor.of(b(X - Y - BPoly.const(3)))
        assert degree_K(pair(A, B, SIDE_KPRIME)) == 0
        assert degree_K(pair(A, B, SIDE_K)) == 0

    def test_side_k_mirror(self):
        d = pair(Divisor.of(b(Y - X**2)), Divisor.of(b(Y - X)), SIDE_K)
        assert d == Divisor.make({xplace(0, 1): 1, xplace(-1, 1): 1, INF_X: 1})


class TestDx:
    # the image of dx = -2*inf_x under x -> b/a is -2 times the pole
    # divisor of b/a, for the degree-one prime a*x - b

    def test_image_square(self):
        assert pole_divisor(b(X - Y**2)).scale(-2) == Divisor.of(INF_Y, -4)

    def test_image_reciprocal(self):
        assert pole_divisor(b(Y * X - BPoly.const(1))).scale(-2) == Divisor.of(yplace(0, 1), -2)


class TestSelfPair:
    def test_moved_divisor(self):
        m = b(X - Y)
        sp = self_pair_degree_one(m)
        assert sp.moved == Divisor.make({INF_X: 1, INF_Y: 1})
        assert sp.value == Divisor.of(INF_Y, 2)

    def test_value_plus_moved_differential_is_principal(self):
        for f in (X - Y, X - Y**2, Y * X - BPoly.const(1), 2 * X - Y - BPoly.const(3)):
            m = b(f)
            sp = self_pair_degree_one(m)
            corr = pole_divisor(m).scale(-2)
            assert degree_K(sp.value + corr) == 0
