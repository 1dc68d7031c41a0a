"""Unit tests for residues, correspondences and different divisors."""

import pytest

from doublefield.divisors import (
    BinaryPlace,
    DeltaElement,
    Divisor,
    UnaryPlace,
    degree_K,
    principal_divisor,
)
from doublefield.errors import EqualIsoms, NonGeneric, NotCoprime, NotDegreeOne
from doublefield.exact import BPoly, UPoly
from doublefield.residues import (
    RationalIsom,
    correspondence,
    different_divisor,
    residue_iso,
    residue_mod_Kp_degree_one,
    residue_mod_degree_one,
)

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
            assert different_divisor(mu, nu).is_effective()

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
        assert residue_mod_degree_one(A, n).is_effective()

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
        # x^2 - y*x - 1 over y = 0 stays monic in x: no degree drop, and
        # over no rational point does the fiber escape; contrast with the
        # reversed prime below where escape shows up via the chart path
        A = Divisor.of(BinaryPlace.make(Y * X - BPoly.const(1)))
        # the Kummer-Dedekind validity conditions fail at y = 0 (leading
        # coefficient vanishes, not monic), so the reading is refused...
        with pytest.raises(NonGeneric):
            correspondence(A, yplace(0, 1))
        # ...while the chart route resolves the fiber to x = infinity
        assert residue_mod_Kp_degree_one(A, yplace(0, 1)) == Divisor.of(INF_X)

    def test_nongeneric(self):
        # (y-1)*x^2 - y: at y = 1 the leading coefficient vanishes and
        # the polynomial is not monic in x
        f = (Y - BPoly.const(1)) * X**2 - Y
        A = Divisor.of(BinaryPlace.make(f))
        with pytest.raises(NonGeneric):
            correspondence(A, yplace(-1, 1))


class TestCrossCheck:
    def test_substitution(self):
        A = Divisor.of(BinaryPlace.make(X - Y**2))
        q = yplace(-3, 1)
        assert residue_mod_Kp_degree_one(A, q) == Divisor.of(xplace(-9, 1))

    def test_principal_maps_to_principal(self):
        a = DeltaElement.from_bpoly(X - Y**2)
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
        checked = 0
        for f in curves:
            A = Divisor.of(BinaryPlace.make(f))
            for q in points:
                try:
                    c1 = correspondence(A, q)
                except NonGeneric:
                    continue
                assert c1 == residue_mod_Kp_degree_one(A, q)
                checked += 1
        assert checked >= 30
