"""Unit tests for residues, correspondences and different divisors."""

import pytest

from doublefield.divisors import (
    BinaryPlace,
    DeltaElement,
    Divisor,
    UnaryPlace,
    degree_K,
    degree_one_coeffs,
    principal_divisor,
)
from doublefield.errors import NotCoprime, NotDegreeOne
from doublefield.exact import BPoly, UPoly
from doublefield.oracles import different_divisor, pole_divisor
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
    """The degree-one prime den*x - num, whose residue embedding is
    x -> num/den."""
    return BinaryPlace.make(BPoly.from_upoly(yp(*den)) * X - BPoly.from_upoly(yp(*num)))


def yplace(*coeffs):
    return UnaryPlace.finite(yp(*coeffs))


def xplace(*coeffs):
    return UnaryPlace.finite(xp(*coeffs))


INF_X = UnaryPlace.infinity("x")
INF_Y = UnaryPlace.infinity("y")


class TestResidueIso:
    # the residue embedding x -> b/a of a degree-one prime a*x - b, read
    # off the place by degree_one_coeffs up to the place's unit

    @staticmethod
    def _embeds_as(m, num, den):
        a, b = degree_one_coeffs(m)
        return b * den == num * a

    def test_read_off(self):
        assert self._embeds_as(BinaryPlace.make(X - Y**2), yp(0, 0, 1), yp(1))

    def test_inverse(self):
        assert self._embeds_as(BinaryPlace.make(Y * X - BPoly.const(1)), yp(1), yp(0, 1))

    def test_not_degree_one(self):
        with pytest.raises(NotDegreeOne):
            degree_one_coeffs(BinaryPlace.make(X**2 - Y))


class TestDifferentDivisor:
    def test_worked_example(self):
        d = different_divisor(iso((0, 0, 1)), iso((0, 1)))
        assert d == Divisor.make({yplace(0, 1): 1, yplace(-1, 1): 1, INF_Y: 1})

    def test_double_pole_at_infinity(self):
        d = different_divisor(iso((0, 1)), iso((1, 1)))
        assert d == Divisor.make({INF_Y: 2})

    def test_equal_primes(self):
        with pytest.raises(NotCoprime):
            different_divisor(iso((0, 2), (2,)), iso((0, 1)))

    def test_effective(self):
        pairs = [
            (iso((0, 0, 1)), iso((1,), (0, 1))),
            (iso((2, 1)), iso((0, 1), (1, 1))),
            (iso((1, 0, 1), (0, 1)), iso((0, 1))),
        ]
        for m, n in pairs:
            assert all(c >= 0 for _, c in different_divisor(m, n).coeffs)

    def test_symmetric(self):
        m, n = iso((1, 2, 1), (0, 1)), iso((3, 1))
        assert different_divisor(m, n) == different_divisor(n, m)


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
    pole_divisor,
    lambda n: different_divisor(n, iso((0, 1))),
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
