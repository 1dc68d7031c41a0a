"""Unit tests for places, divisors, valuations and principal divisors."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doublefield.divisors import (
    BinaryPlace,
    DeltaElement,
    Divisor,
    UnaryPlace,
    degree_K,
    degree_over_K,
    degree_over_Kp,
    divisor_of_upoly,
    principal_divisor,
    restrict_to_Kp,
    valuation,
)
from doublefield.errors import InputError
from doublefield.exact import BPoly, UPoly, certify_irreducible_bivariate, factor_b, primitive_int_bpoly

X = BPoly.gen("x")
Y = BPoly.gen("y")


def _uncertified_prime() -> BPoly:
    """x^2 - y*(y^2 - 1)*...*(y^2 - 100): irreducible, but every
    specialization y = c with |c| <= 10 is x^2, so only factor_b
    decides it."""
    g = Y
    for k in range(1, 11):
        g = g * (Y**2 - BPoly.const(k * k))
    return X**2 - g


def uplace(var, *coeffs):
    return UnaryPlace.finite(UPoly.make(var, coeffs))


def inf(var):
    return UnaryPlace.infinity(var)


class TestPlaces:
    def test_unary_normalization(self):
        # 2x - 2 and x - 1 name the same place
        assert uplace("x", -2, 2) == uplace("x", -1, 1)

    def test_binary_normalization(self):
        assert BinaryPlace.make(-2 * (X - Y)) == BinaryPlace.make(X - Y)

    def test_binary_rejects_reducible_without_flag(self):
        with pytest.raises(InputError, match="reducible"):
            BinaryPlace.make((X**2 - Y) * (X**2 + Y))

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.integers(-3, 3).filter(bool),
            min_size=2,
            max_size=6,
        ).filter(lambda t: any(i for i, _ in t) and any(j for _, j in t))
    )
    @example(dict(_uncertified_prime().terms))
    @example({(2, 0): 1, (0, 2): -1})
    def test_binary_make_decides_exactly(self, terms):
        f = BPoly.make(terms)
        _, q = primitive_int_bpoly(f)
        prime = factor_b.__wrapped__(q)[1] == [(q, 1)]
        try:
            place = BinaryPlace.make(f)
        except InputError:
            assert not prime
        else:
            assert prime
            assert place.poly == q
            assert place.certified == (certify_irreducible_bivariate(q) == "certified")

    def test_certified_flag_not_identity(self):
        a = BinaryPlace.make(X - Y)
        b = BinaryPlace(a.poly, certified=False)
        assert a == b

    def test_degree_conventions(self):
        assert degree_over_Kp(BinaryPlace.make(X - Y**2)) == 1
        assert degree_over_Kp(uplace("y", 1, 0, 1)) == 0
        assert degree_over_Kp(uplace("x", -2, 0, 1)) == 2
        assert degree_over_Kp(inf("x")) == 1
        assert degree_over_Kp(inf("y")) == 0
        assert degree_over_K(BinaryPlace.make(X - Y**2)) == 2
        assert degree_over_K(uplace("x", -2, 0, 1)) == 0


class TestDivisorAlgebra:
    def test_add_cancel(self):
        p, q = uplace("y", 0, 1), uplace("y", -1, 1)
        D = Divisor.make({p: 2, q: -1})
        assert (D - D).is_zero()
        assert (D + D).coeff(p) == 4

    def test_no_zero_coeffs(self):
        p = uplace("y", 0, 1)
        D = Divisor.make({p: 1}) + Divisor.make({p: -1})
        assert D.coeffs == ()

    def test_restrictions(self):
        D = Divisor.make(
            {BinaryPlace.make(X - Y): 3, uplace("y", -1, 1): 2, uplace("x", 0, 1): 5}
        )
        assert restrict_to_Kp(D) == Divisor.make({uplace("y", -1, 1): 2})
        assert restrict_to_Kp(Divisor.make({inf("y"): -1})) == Divisor.make({inf("y"): -1})

    def test_restrict_linear(self):
        D = Divisor.make({uplace("y", -1, 1): 2, inf("y"): 1})
        E = Divisor.make({uplace("y", -1, 1): -2, uplace("x", 0, 1): 7})
        assert restrict_to_Kp(D + E) == restrict_to_Kp(D) + restrict_to_Kp(E)


class TestDegreeK:
    def test_principal_degree_zero(self):
        # (x^2-2)/x -> {x^2-2:1, x:-1, inf:-1}
        D = divisor_of_upoly(UPoly.make("x", [-2, 0, 1])) - divisor_of_upoly(
            UPoly.make("x", [0, 1])
        )
        assert degree_K(D) == 0

    def test_empty(self):
        assert degree_K(Divisor.zero()) == 0

    def test_simple(self):
        assert degree_K(Divisor.make({uplace("x", -1, 1): 4})) == 4


class TestValuation:
    def test_binary_factorable(self):
        a = DeltaElement.from_bpoly(X**2 - Y**2)
        assert valuation(BinaryPlace.make(X - Y), a) == 1
        assert valuation(BinaryPlace.make(X + Y), a) == 1

    def test_infinity(self):
        a = DeltaElement.from_fraction(X**2 - Y**2, X * Y)
        assert valuation(inf("x"), a) == -1
        assert valuation(inf("y"), a) == -1

    def test_constant(self):
        assert valuation(BinaryPlace.make(X - Y), DeltaElement.one()) == 0


class TestPrincipalDivisor:
    def test_spec_example(self):
        a = DeltaElement.from_fraction(X**2 - Y**2, X * Y)
        D = principal_divisor(a)
        expected = Divisor.make(
            {
                BinaryPlace.make(X - Y): 1,
                BinaryPlace.make(X + Y): 1,
                uplace("x", 0, 1): -1,
                uplace("y", 0, 1): -1,
                inf("x"): -1,
                inf("y"): -1,
            }
        )
        assert D == expected

    def test_constant(self):
        assert principal_divisor(DeltaElement.constant(7)).is_zero()

    def test_x_minus_y(self):
        D = principal_divisor(DeltaElement.from_bpoly(X - Y))
        assert D == Divisor.make({BinaryPlace.make(X - Y): 1, inf("x"): -1, inf("y"): -1})

    def test_multiplicativity(self):
        a = DeltaElement.from_bpoly(X - Y**2)
        b = DeltaElement.from_fraction(X * (X + Y), Y - BPoly.const(1))
        assert principal_divisor(a * b) == principal_divisor(a) + principal_divisor(b)

    def test_inverse(self):
        a = DeltaElement.from_fraction(X**2 - Y, X + Y**3)
        assert principal_divisor(a.inverse()) == -principal_divisor(a)

    def test_univariate_content_split(self):
        # y*(x^2 - y): the y-content must come out as a K'-unary factor
        a = DeltaElement.from_bpoly(X**2 * Y - Y**2)
        D = principal_divisor(a)
        assert D.coeff(uplace("y", 0, 1)) == 1
        assert D.coeff(BinaryPlace.make(X**2 - Y)) == 1

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(
            [X - Y, X + Y, X - Y**2, X**2 - Y, X * Y - BPoly.const(1), X + Y + BPoly.const(1)]
        ),
        st.sampled_from([X - Y, X**2 - Y - BPoly.const(2), Y + BPoly.const(3), X, Y]),
        st.integers(-2, 2).filter(lambda e: e != 0),
    )
    def test_multiplicative_random(self, f, g, e):
        a = DeltaElement.from_factors(1, [(f, 1)])
        b = DeltaElement.from_factors(Fraction(3, 2), [(g, e)])
        assert principal_divisor(a * b) == principal_divisor(a) + principal_divisor(b)


class TestDivisorOfUpoly:
    def test_degree_zero_identity(self):
        for coeffs in ([-2, 0, 1], [0, 1], [6, -5, 1], [1, 1, 1, 1]):
            D = divisor_of_upoly(UPoly.make("x", coeffs))
            assert degree_K(D) == 0

    def test_infinity_from_formal_degree(self):
        # (y - 1)(y - 2) as a binary form of degree 5 has a triple zero at
        # infinity; degree 0 gives div(p), with the pole -deg p there
        p = UPoly.make("y", [2, -3, 1])
        finite = Divisor.make({uplace("y", -1, 1): 1, uplace("y", -2, 1): 1})
        assert divisor_of_upoly(p, 5) == finite + Divisor.of(inf("y"), 3)
        assert divisor_of_upoly(p, 2) == finite
        assert divisor_of_upoly(p) == finite - Divisor.of(inf("y"), 2)
        assert divisor_of_upoly(UPoly.const("x", 7), 2) == Divisor.of(inf("x"), 2)
