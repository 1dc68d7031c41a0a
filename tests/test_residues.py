"""Unit tests for residues, correspondences and different divisors."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from doublefield.divisors import (
    BinaryPlace,
    DeltaElement,
    Divisor,
    UnaryPlace,
    degree_K,
    principal_divisor,
)
from doublefield.errors import EqualIsoms, NotCoprime, NotDegreeOne
from doublefield.exact import BPoly, UPoly
from doublefield.oracles import RationalIsom, different_divisor, residue_iso
from doublefield.pairing import self_pair_degree_one
from doublefield.residues import (
    correspondence,
    residue_mod_Kp_degree_one,
    residue_mod_degree_one,
)
from doublefield.suites import unary_pool

X = BPoly.gen("x")
Y = BPoly.gen("y")


def yp(*coeffs):
    return UPoly.make("y", coeffs)


def xp(*coeffs):
    return UPoly.make("x", coeffs)


def iso(num, den=(1,)):
    return RationalIsom.make(yp(*num), yp(*den))


def yplace(*coeffs):
    return UnaryPlace.finite(yp(*coeffs))


def xplace(*coeffs):
    return UnaryPlace.finite(xp(*coeffs))


INF_X = UnaryPlace.infinity("x")
INF_Y = UnaryPlace.infinity("y")


SY = sympy.Symbol("y")

small_ints = st.integers(-6, 6)
small_fracs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
ypolys = st.lists(st.one_of(small_ints, small_fracs), max_size=4).map(lambda cs: yp(*cs))


def sym_y(p):
    """A polynomial in y as a sympy Poly over QQ (test-only oracle)."""
    terms = (sympy.Rational(c.numerator, c.denominator) * SY**j for j, c in enumerate(p.coeffs))
    return sympy.Poly(sum(terms, sympy.S.Zero), SY, domain="QQ")


class TestRationalIsomMake:
    def test_zero_numerator_is_zero_over_one(self):
        zero = RationalIsom.make(yp(0), yp(1, 1))
        assert str(zero) == "0"
        assert zero.pole_divisor().is_zero()
        assert zero == RationalIsom.make(yp(0), yp(1))

    @settings(max_examples=60, deadline=None)
    @given(ypolys, ypolys, ypolys)
    def test_lowest_terms_with_monic_denominator(self, a, b, h):
        """Coprime parts, a monic denominator and the same value, checked
        with sympy's own gcd over QQ."""
        num, den = a * h, b * h
        if den.is_zero():
            return
        r = RationalIsom.make(num, den)
        assert r.den.lc() == 1
        if r.num.is_zero():
            assert r.den == yp(1)
        else:
            assert sym_y(r.num).gcd(sym_y(r.den)) == sym_y(yp(1))
        assert r.num * den == r.den * num


class TestResidueIso:
    def test_read_off(self):
        assert residue_iso(BinaryPlace.make(X - Y**2)) == iso((0, 0, 1))

    def test_inverse(self):
        assert residue_iso(BinaryPlace.make(Y * X - BPoly.const(1))) == iso((1,), (0, 1))

    def test_not_degree_one(self):
        with pytest.raises(NotDegreeOne):
            residue_iso(BinaryPlace.make(X**2 - Y))


class TestDifferentDivisor:
    def test_worked_example(self):
        d = different_divisor(iso((0, 0, 1)), iso((0, 1)))
        assert d == Divisor.make({yplace(0, 1): 1, yplace(-1, 1): 1, INF_Y: 1})

    def test_double_pole_at_infinity(self):
        d = different_divisor(iso((0, 1)), iso((1, 1)))
        assert d == Divisor.make({INF_Y: 2})

    def test_distinct_constants(self):
        assert different_divisor(iso((0,)), iso((1,))).is_zero()

    def test_equal_isoms(self):
        with pytest.raises(EqualIsoms):
            different_divisor(iso((0, 2), (2,)), iso((0, 1)))

    def test_effective(self):
        pairs = [
            (iso((0, 0, 1)), iso((1,), (0, 1))),
            (iso((2, 1)), iso((0, 1), (1, 1))),
            (iso((1, 0, 1), (0, 1)), iso((0, 1))),
        ]
        for mu, nu in pairs:
            assert all(c >= 0 for _, c in different_divisor(mu, nu).coeffs)

    def test_symmetric(self):
        mu, nu = iso((1, 2, 1), (0, 1)), iso((3, 1))
        assert different_divisor(mu, nu) == different_divisor(nu, mu)


class TestResidueModDegreeOne:
    def test_worked_example(self):
        A = Divisor.of(BinaryPlace.make(X - Y**2))
        n = BinaryPlace.make(X - Y)
        assert residue_mod_degree_one(A, n) == Divisor.make(
            {yplace(0, 1): 1, yplace(-1, 1): 1, INF_Y: 1}
        )

    def test_k_unary_image(self):
        A = Divisor.of(xplace(0, 1))
        assert residue_mod_degree_one(A, BinaryPlace.make(X - Y)) == Divisor.of(yplace(0, 1))

    def test_kp_unary_fixed(self):
        A = Divisor.of(yplace(-5, 1))
        assert residue_mod_degree_one(A, BinaryPlace.make(X - Y)) == Divisor.of(yplace(-5, 1))

    def test_not_coprime(self):
        n = BinaryPlace.make(X - Y)
        with pytest.raises(NotCoprime):
            residue_mod_degree_one(Divisor.of(n), n)

    def test_linear(self):
        n = BinaryPlace.make(X - Y - BPoly.const(1))
        A = Divisor.make({BinaryPlace.make(X - Y**2): 2, xplace(-1, 1): 1})
        B = Divisor.make({BinaryPlace.make(X + Y): -1, yplace(2, 1): 3})
        assert residue_mod_degree_one(A + B, n) == residue_mod_degree_one(
            A, n
        ) + residue_mod_degree_one(B, n)

    def test_principal_degree_zero(self):
        a = DeltaElement.from_fraction(X - Y**2, X * Y - BPoly.const(2))
        A = principal_divisor(a)
        n = BinaryPlace.make(X - Y - BPoly.const(3))
        assert degree_K(residue_mod_degree_one(A, n)) == 0

    def test_effective(self):
        A = Divisor.make({BinaryPlace.make(X**2 - Y): 1, xplace(1, 1): 2, INF_X: 1})
        n = BinaryPlace.make(X - Y)
        assert all(c >= 0 for _, c in residue_mod_degree_one(A, n).coeffs)

    def test_infinity_modulus_pole(self):
        # modulus y*x - 1: x -> 1/y; the infinite place of Q(x) maps to
        # the pole of 1/y at y = infinity? no: pole of 1/y is y = 0
        A = Divisor.of(INF_X)
        n = BinaryPlace.make(Y * X - BPoly.const(1))
        assert residue_mod_degree_one(A, n) == Divisor.of(yplace(0, 1))


class TestCorrespondence:
    def test_unramified(self):
        A = Divisor.of(BinaryPlace.make(X**2 - Y))
        p = yplace(-4, 1)
        assert correspondence(A, p) == Divisor.make({xplace(-2, 1): 1, xplace(2, 1): 1})

    def test_ramified_monic(self):
        A = Divisor.of(BinaryPlace.make(X**2 - Y))
        assert correspondence(A, yplace(0, 1)) == Divisor.make({xplace(0, 1): 2})

    def test_k_unary_passthrough(self):
        A = Divisor.of(xplace(-1, 1))
        assert correspondence(A, yplace(-7, 1)) == Divisor.of(xplace(-1, 1))

    def test_kp_unary_zero(self):
        A = Divisor.of(yplace(-5, 1))
        assert correspondence(A, yplace(-3, 1)).is_zero()

    def test_escape_to_infinity(self):
        # the leading coefficient y of x*y - 1 vanishes at y = 0, so the
        # fiber's one point escapes to x = infinity on both routes
        A = Divisor.of(BinaryPlace.make(Y * X - BPoly.const(1)))
        assert correspondence(A, yplace(0, 1)) == Divisor.of(INF_X)
        assert residue_mod_Kp_degree_one(A, yplace(0, 1)) == Divisor.of(INF_X)

    def test_nongeneric(self):
        # (y-1)*x^2 - y: at y = 1 the leading coefficient vanishes and
        # f(x, 1) = -1 is constant, so both fiber points escape
        f = (Y - BPoly.const(1)) * X**2 - Y
        A = Divisor.of(BinaryPlace.make(f))
        assert correspondence(A, yplace(-1, 1)) == Divisor.of(INF_X, 2)
        assert residue_mod_Kp_degree_one(A, yplace(-1, 1)) == Divisor.of(INF_X, 2)


class TestCrossCheck:
    def test_substitution(self):
        A = Divisor.of(BinaryPlace.make(X - Y**2))
        q = yplace(-3, 1)
        assert residue_mod_Kp_degree_one(A, q) == Divisor.of(xplace(-9, 1))

    def test_principal_maps_to_principal(self):
        a = DeltaElement.from_factors(1, [(X - Y**2, 1)])
        A = principal_divisor(a)
        q = yplace(-3, 1)
        D = residue_mod_Kp_degree_one(A, q)
        assert degree_K(D) == 0
        # equals the principal divisor of x - 9 in Q(x)
        from doublefield.divisors import divisor_of_upoly

        assert D == divisor_of_upoly(xp(-9, 1))

    def test_agreement_corpus(self):
        curves = [
            X - Y**2,
            X**2 - Y,
            X**2 - Y**2 - BPoly.const(1),
            Y * X - BPoly.const(1),
            X**2 + Y**2 - BPoly.const(2),
            X**3 - Y - BPoly.const(1),
        ]
        points = [yplace(c, 1) for c in (-1, -2, -3, 0, 1, 5)]
        for f in curves:
            A = Divisor.of(BinaryPlace.make(f))
            for q in points:
                assert correspondence(A, q) == residue_mod_Kp_degree_one(A, q)


# Each function that needs a degree-one prime refuses every other family
# of place with NotDegreeOne, the library's own check, not an
# AttributeError from reading a field the place does not have.
_X_DEGREE_TWO = BinaryPlace.make(X**2 - Y - BPoly.const(3))
_BINARY_MODULUS = [
    lambda n: residue_mod_degree_one(Divisor.zero(), n),
    residue_iso,
    self_pair_degree_one,
]
_POINT_OF_QY = [
    lambda p: correspondence(Divisor.zero(), p),
    lambda p: residue_mod_Kp_degree_one(Divisor.zero(), p),
]


def _is_point_of_qy(q):
    return isinstance(q, UnaryPlace) and q.var == "y" and not q.is_infinity() and q.degree() == 1


@pytest.mark.parametrize("place", unary_pool() + [_X_DEGREE_TWO], ids=str)
@pytest.mark.parametrize("fn", range(len(_BINARY_MODULUS)))
def test_binary_modulus_refuses_other_families(fn, place):
    with pytest.raises(NotDegreeOne):
        _BINARY_MODULUS[fn](place)


@pytest.mark.parametrize(
    "place",
    [q for q in unary_pool() if not _is_point_of_qy(q)] + [_X_DEGREE_TWO, BinaryPlace.make(X * Y - BPoly.const(2))],
    ids=str,
)
@pytest.mark.parametrize("fn", range(len(_POINT_OF_QY)))
def test_point_of_qy_refuses_other_families(fn, place):
    with pytest.raises(NotDegreeOne):
        _POINT_OF_QY[fn](place)
