"""Unit tests for places, divisors and principal divisors."""

import copy
import pickle
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
    divisor_of_upoly,
    place_bidegree,
    principal_divisor,
    transpose_place,
)
from doublefield.errors import InputError
from doublefield.exact import (
    BPoly,
    UPoly,
    certify_irreducible_bivariate,
    clear_caches,
    primitive_int_bpoly,
)
from doublefield.suites import binary_pool
from test_exact import _sympy_route

X = BPoly.gen("x")
Y = BPoly.gen("y")


def _uncertified_prime() -> BPoly:
    """(x - y)^3 + y*(y^2 - 1)*...*(y^2 - 100): irreducible, since
    u^3 + y*(y^2 - 1)*...*(y^2 - 100) with u = x - y is, its constant
    term being squarefree and so no cube, but every specialization
    y = c with |c| <= 10 is (x - c)^3, so the certificate's points stall
    and only Wang's algorithm decides it."""
    g = Y
    for k in range(1, 11):
        g = g * (Y**2 - BPoly.const(k * k))
    return (X - Y) ** 3 + g


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

    def test_uncertified_prime_misses_the_certificate(self):
        # keeps the fixture below on Wang's algorithm
        assert certify_irreducible_bivariate(_uncertified_prime()) is False

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
    @example({(2, 0): 1, (0, 3): -1, (0, 1): -1})  # x^2 - y^3 - y: x^2 at y = 0
    def test_binary_make_decides_exactly(self, terms):
        f = BPoly.make(terms)
        _, q = primitive_int_bpoly(f)
        prime = _sympy_route(q)[1] == ((q, 1),)
        try:
            place = BinaryPlace.make(f)
        except InputError:
            assert not prime
        else:
            assert prime
            assert place.poly == q

    def test_certified_flag_not_identity(self):
        a = BinaryPlace.make(X - Y)
        b = BinaryPlace(a.poly, certified=False)
        assert a == b
        assert hash(a) == hash(b) == hash(BinaryPlace(a.poly, True))

    def test_degree_conventions(self):
        # one row per family: the bidegree of the form that cuts the place out
        table = [
            (BinaryPlace.make(X - Y**2), (1, 2)),
            (BinaryPlace.make(X**3 * Y - BPoly.const(2)), (3, 1)),
            (uplace("x", -2, 0, 1), (2, 0)),
            (uplace("x", 5, 1), (1, 0)),
            (inf("x"), (1, 0)),
            (uplace("y", 1, 0, 1), (0, 2)),
            (uplace("y", -3, 0, 0, 1), (0, 3)),
            (inf("y"), (0, 1)),
        ]
        for place, expected in table:
            assert place_bidegree(place) == expected, place
            assert place_bidegree(transpose_place(place)) == expected[::-1], place


def _same_place(a, b):
    """a and b are distinct place objects on distinct polynomial objects,
    equal and hash-equal, with the generated dataclass hash."""
    assert a is not b and a.poly is not b.poly
    assert a == b
    assert hash(a) == hash(b)
    key = (a.var, a.poly) if isinstance(a, UnaryPlace) else (a.poly,)
    assert hash(a) == hash(key)
    assert Divisor.of(a, 2) == Divisor.of(b, 2)
    assert hash(Divisor.of(a, 2)) == hash(Divisor.of(b, 2))


class TestPlaceHash:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from("xy"),
        st.lists(st.integers(-5, 5), min_size=2, max_size=4).filter(lambda cs: cs[-1] != 0),
        st.lists(st.integers(-5, 5), max_size=4),
        st.integers(2, 9),
    )
    def test_unary_routes(self, var, coeffs, other, k):
        fresh = UnaryPlace.finite.__wrapped__  # the memo would hand out one object
        p, q = UPoly.make(var, coeffs), UPoly.make(var, other)
        m = UnaryPlace.finite(p)
        _same_place(m, fresh(p.scale(k)))
        _same_place(m, fresh((p + q) - q))
        _same_place(m, fresh(p.with_var("x" if var == "y" else "y").with_var(var)))
        clear_caches()
        _same_place(m, transpose_place(transpose_place(m)))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(binary_pool()), st.sampled_from([X, Y, X * Y - Y**2]), st.integers(2, 9))
    def test_binary_routes(self, m, g, k):
        f = m.poly
        d = f.as_dict()
        _same_place(m, BinaryPlace.make(BPoly.make(dict(reversed(d.items())))))
        _same_place(m, BinaryPlace.make(f.scale(-k)))
        _same_place(m, BinaryPlace.make((f + g) - g))
        _same_place(m, transpose_place(transpose_place(m)))

    def test_kept_hash_is_the_generated_hash_after_copies(self):
        """A place keeps its hash outside its fields, so a pickle round
        trip or a copy computes it anew, by the same formula."""
        places = [uplace("y", -2, 0, 1), inf("x"), BinaryPlace.make(X * Y - BPoly.const(2))]
        for m in places:
            key = (m.var, m.poly) if isinstance(m, UnaryPlace) else (m.poly,)
            assert hash(m) == hash(key)
            for c in (pickle.loads(pickle.dumps(m)), copy.copy(m)):
                assert c == m and repr(c) == repr(m)
                assert not hasattr(c, "_hash")  # not carried over
                assert hash(c) == hash(key)


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


# Polynomials and divisors print as one kind of signed sum.  A round trip
# through the parser cannot see a change of spacing, order or +-1 handling
# that still re-parses, so the exact text is pinned here.
RENDERINGS = [
    ("leading negative", UPoly.make("x", [1, 0, -1]), "-x^2 + 1"),
    ("-1 before a monomial", UPoly.make("y", [0, -1]), "-y"),
    ("+-1 before monomials", Y - X, "-x + y"),
    ("1/2 coefficients", UPoly.make("y", [Fraction(-1, 2), 0, Fraction(1, 2)]), "1/2*y^2 - 1/2"),
    ("1/2 before a mixed monomial", BPoly.const(Fraction(1, 2)) * X * Y - BPoly.const(3), "1/2*x*y - 3"),
    ("constant", BPoly.const(5), "5"),
    ("rational constant", UPoly.make("y", [Fraction(-2, 3)]), "-2/3"),
    ("zero polynomial", UPoly.make("x", []), "0"),
    ("mixed x*y^2", X * Y**2 - BPoly.const(2) * X**3 + Y - BPoly.const(1), "-2*x^3 + x*y^2 + y - 1"),
    (
        "divisor with a leading -1 and 3*(...)",
        Divisor.make({uplace("x", -1, 1): -1, inf("y"): 1, BinaryPlace.make(X * Y - BPoly.const(2)): 3}),
        "-(x - 1) + inf_y + 3*(x*y - 2)",
    ),
    ("divisor with -1 twice", Divisor.make({uplace("x", -1, 1): -1, uplace("y", 0, 1): -1}), "-(x - 1) - (y)"),
    ("divisor with -3 first", Divisor.make({uplace("x", 0, 1): -3, inf("x"): 3}), "-3*(x) + 3*inf_x"),
    ("zero divisor", Divisor.zero(), "0"),
]


@pytest.mark.parametrize("value, text", [case[1:] for case in RENDERINGS], ids=[case[0] for case in RENDERINGS])
def test_rendering_is_pinned(value, text):
    assert str(value) == text


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
        assert principal_divisor(DeltaElement.from_factors(7, [])).is_zero()

    def test_units_are_exact(self):
        assert type(DeltaElement.from_factors(Fraction(14, 2), []).unit) is int
        assert DeltaElement.from_factors(Fraction(3, 2), [(X - Y, 1)]).unit == Fraction(3, 2)
        with pytest.raises(TypeError, match="not an exact rational"):
            DeltaElement.from_factors(0.5, [])

    def test_x_minus_y(self):
        D = principal_divisor(DeltaElement.from_factors(1, [(X - Y, 1)]))
        assert D == Divisor.make({BinaryPlace.make(X - Y): 1, inf("x"): -1, inf("y"): -1})

    def test_multiplicativity(self):
        a = DeltaElement.from_factors(1, [(X - Y**2, 1)])
        b = DeltaElement.from_fraction(X * (X + Y), Y - BPoly.const(1))
        ab = DeltaElement.from_factors(a.unit * b.unit, a.factors + b.factors)
        assert principal_divisor(ab) == principal_divisor(a) + principal_divisor(b)

    def test_inverse(self):
        a = DeltaElement.from_fraction(X**2 - Y, X + Y**3)
        inverse = DeltaElement.from_fraction(X + Y**3, X**2 - Y)
        assert principal_divisor(inverse) == -principal_divisor(a)

    def test_univariate_content_split(self):
        # y*(x^2 - y): the y-content must come out as a K'-unary factor
        a = DeltaElement.from_factors(1, [(X**2 * Y - Y**2, 1)])
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
        ab = DeltaElement.from_factors(Fraction(3, 2), [(f, 1), (g, e)])
        assert principal_divisor(ab) == principal_divisor(a) + principal_divisor(b)


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
