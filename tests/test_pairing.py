"""Unit tests for charts, the norm pairing, images of dx and self-pairing."""

from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import doublefield.charts as charts
from doublefield.charts import (
    fiber_divisor,
    find_shift,
    infx_fiber_divisor,
    shift_chart_x,
    shift_is_valid,
)
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
from doublefield.pairing import (
    SIDE_K,
    SIDE_KPRIME,
    pair,
    self_pair_degree_one,
)
from doublefield.residues import RationalIsom, residue_iso
from doublefield.suites import _two_chart_fiber_divisor

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
    def test_shift_validity(self):
        f, g = X - Y**2, X - Y
        assert not shift_is_valid(f, g, 0)  # common gcd y at x = 0
        assert not shift_is_valid(f, g, 1)  # intersection at (1, 1)
        assert shift_is_valid(f, g, 2)
        assert shift_is_valid(f, g, -1)
        assert find_shift(f, g) == -1

    def test_worked_fiber(self):
        d = fiber_divisor(X - Y**2, X - Y)
        assert d == Divisor.make({yplace(0, 1): 1, yplace(-1, 1): 1, INF_Y: 1})

    def test_shift_invariance(self):
        # the two-chart oracle gives one divisor for every valid shift,
        # and it is the one-resultant route's
        f, g = X**2 - Y, X - Y**2
        shifts = [c for c in range(-5, 6) if shift_is_valid(f, g, c)]
        assert len(shifts) >= 2
        results = {_two_chart_fiber_divisor(f, g, c) for c in shifts}
        assert results == {fiber_divisor(f, g)}

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

    def test_invalid_given_shift_refused(self):
        with pytest.raises(ValueError, match="not valid"):
            _two_chart_fiber_divisor(X - Y**2, X - Y, 0)

    def test_shift_beyond_129_candidates(self):
        # every c in -64..64 is the x of a common point; the degree limit
        # 1*129 + 1*0 + 1 + 0 = 130 leaves room for the 130th candidate
        g = prod((Y - BPoly.const(c) for c in range(-64, 65)), start=BPoly.const(1))
        assert find_shift(X - Y, g) == 65

    def test_common_component_stops_after_limit(self, monkeypatch):
        f, g = X - Y, (X - Y) * (X + BPoly.const(1))
        limit = 1 * 1 + 1 * 2 + 1 + 2
        tried = []

        def counting(f, g, c):
            tried.append(c)
            return shift_is_valid(f, g, c)

        monkeypatch.setattr(charts, "shift_is_valid", counting)
        with pytest.raises(NotCoprime):
            find_shift(f, g)
        assert 0 < len(tried) <= limit + 1

    def test_exclude_is_not_counted(self):
        # limit 1*1 + 2*1 + 1 + 1 = 5: only 0 and 1 fail, and the five
        # excluded shifts before 4 count against no limit
        f, g = X - Y**2, X - Y
        assert find_shift(f, g, exclude=(-1, 2, -2, 3, -3)) == 4

    def test_shift_chart_worked(self):
        # t * ((2 + 1/t) - y) = (2 - y)*t + 1
        assert shift_chart_x(X - Y, 2) == 2 * X - X * Y + BPoly.const(1)
        assert shift_chart_x(X**2 * Y, 0) == Y

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 3)),
            st.fractions(min_value=-9, max_value=9, max_denominator=5),
            min_size=1,
            max_size=6,
        ),
        st.integers(-6, 6),
        st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(lambda t: t != 0),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
    )
    def test_shift_chart_is_the_substitution(self, terms, c, t, y):
        f = BPoly.make(terms)
        if f.is_zero():
            return
        m = f.deg_x()
        assert shift_chart_x(f, c).eval_xy(t, y) == t**m * f.eval_xy(c + 1 / t, y)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.dictionaries(
                st.tuples(st.integers(0, 3), st.integers(0, 3)),
                st.integers(-5, 5).filter(bool),
                min_size=1,
                max_size=5,
            ),
            min_size=2,
            max_size=2,
        ),
        st.integers(-4, 4),
    )
    def test_shift_chart_keeps_the_resultant_up_to_sign(self, terms, c):
        # x = c + 1/t is a Moebius change of x of determinant -1
        f, g = (BPoly.make(d) for d in terms)
        assume(f.deg_x() >= 1 and g.deg_x() >= 1)
        assume(not f.eval_x(c).is_zero() and not g.eval_x(c).is_zero())
        r = resultant_x(f, g)
        assert resultant_x(shift_chart_x(f, c), shift_chart_x(g, c)) in (r, -r)

    def test_infx(self):
        assert infx_fiber_divisor(X - Y) == Divisor.of(INF_Y)
        assert infx_fiber_divisor(Y * X - BPoly.const(1)) == Divisor.of(yplace(0, 1))


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
    # the image of dx = -2*inf_x under x -> mu is -2 times the pole divisor of mu

    def test_image_square(self):
        mu = RationalIsom.make(UPoly.make("y", [0, 0, 1]), UPoly.make("y", [1]))
        assert mu.pole_divisor().scale(-2) == Divisor.of(INF_Y, -4)

    def test_image_reciprocal(self):
        mu = RationalIsom.make(UPoly.make("y", [1]), UPoly.make("y", [0, 1]))
        assert mu.pole_divisor().scale(-2) == Divisor.of(yplace(0, 1), -2)


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
            corr = residue_iso(m).pole_divisor().scale(-2)
            assert degree_K(sp.value + corr) == 0
