"""Places and divisors of Q(x), Q(y) and the double field Q(x,y).

Places come in three families: binary primes (irreducible polynomials
depending on both variables), unary primes of Q(x) and of Q(y) (finite
irreducibles or the degree valuation at infinity).  Divisors are finite
integer formal sums over canonically ordered places.  Field elements
enter as products of polynomial powers (``DeltaElement``) and are
factored completely into primitive integer irreducibles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .errors import InputError, NotDegreeOne
from .exact import (
    BPoly,
    Scalar,
    UPoly,
    _HashSlot,
    _frac,
    _kept_hash,
    factor_b,
    factor_q,
    memo,
    primitive_int_bpoly,
    primitive_int_upoly,
    qpow,
    render_sum,
)


@_kept_hash
@dataclass(frozen=True, slots=True)
class UnaryPlace(_HashSlot):
    """A place of Q(x) (var='x') or Q(y) (var='y').

    ``poly`` is a primitive integer irreducible polynomial for a finite
    place, or None for the degree valuation at infinity.  A place keeps
    its hash like a polynomial does, since divisors and pairings are
    dicts keyed on places.
    """

    var: str
    poly: Optional[UPoly]

    @staticmethod
    @memo
    def finite(p: UPoly) -> "UnaryPlace":
        """The finite place of the irreducible ``p``; equal inputs share
        one place object while it stays in the memo."""
        if p.degree() < 1:
            raise ValueError("finite place needs positive degree")
        _, q = primitive_int_upoly(p)
        return UnaryPlace(p.var, q)

    @staticmethod
    @memo
    def infinity(var: str) -> "UnaryPlace":
        """The place at infinity of Q(var), one shared object per variable."""
        return UnaryPlace(var, None)

    def is_infinity(self) -> bool:
        return self.poly is None

    def degree(self) -> int:
        return 1 if self.poly is None else self.poly.degree()

    def __str__(self) -> str:
        if self.poly is None:
            return f"inf_{self.var}"
        return f"({self.poly})"


@_kept_hash
@dataclass(frozen=True, slots=True)
class BinaryPlace(_HashSlot):
    """A binary prime of Q(x,y): a primitive integer irreducible
    polynomial of positive degree in both variables.

    ``make`` decides the prime with ``place_of_curve``, and a reducible
    polynomial is refused with InputError.  Nothing reads
    ``certified``: it stays only so that the benchmark harness's
    ``BinaryPlace(q, True)`` still constructs, and it does not
    participate in place identity.  The place keeps its hash, as
    ``UnaryPlace`` does.
    """

    poly: BPoly
    certified: bool = field(default=True, compare=False, hash=False)

    @staticmethod
    def make(f: BPoly) -> "BinaryPlace":
        if f.deg_x() < 1 or f.deg_y() < 1:
            raise ValueError("binary place needs positive degree in both variables")
        return place_of_curve(f)

    def __str__(self) -> str:
        return f"({self.poly})"


Place = Union[UnaryPlace, BinaryPlace]


def place_of_curve(f: BPoly) -> Place:
    """The place of the written curve f = 0, for a nonconstant f.  With
    q the primitive integer form of f, the curve is prime exactly when
    ``factor_b(q)`` finds q itself, once; otherwise InputError."""
    _, q = primitive_int_bpoly(f)
    if factor_b(q)[1] != ((q, 1),):
        raise InputError(f"{q} is reducible, not a prime")
    return _place_of(q)


def degree_one_coeffs(m: Place) -> tuple[UPoly, UPoly]:
    """The coefficients (a, b) of a binary prime m = a(y)*x - b(y) of
    x-degree 1; NotDegreeOne for every other place."""
    if not isinstance(m, BinaryPlace) or m.poly.deg_x() != 1:
        raise NotDegreeOne(f"{m} is not a binary prime of x-degree 1")
    return m.poly.coeff_of_x(1), -m.poly.coeff_of_x(0)


def transpose_place(m: Place) -> Place:
    """The mirror-image place under the swap of x and y; a binary one in
    primitive form, whose sign the swap may change."""
    if isinstance(m, BinaryPlace):
        return BinaryPlace(primitive_int_bpoly(m.poly.transpose())[1])
    nv = "x" if m.var == "y" else "y"
    if m.poly is None:
        return UnaryPlace.infinity(nv)
    return UnaryPlace.finite(m.poly.with_var(nv))


def transpose_divisor(D: Divisor) -> Divisor:
    """The mirror-image divisor under the swap of x and y, place by
    place."""
    return Divisor.make([(transpose_place(p), c) for p, c in D.coeffs])


def place_sort_key(p: Place):
    """Deterministic total order on places for canonical divisor form."""
    if isinstance(p, BinaryPlace):
        return (2, 0, p.poly.terms)
    fam = 0 if p.var == "x" else 1
    if p.poly is None:
        return (fam, 1, ())
    return (fam, 0, p.poly.coeffs)


def place_bidegree(m: Place) -> tuple[int, int]:
    """The bidegree (a, b) of the form on P1 x P1 that cuts out m: a
    binary place is (deg_x, deg_y), an x-unary p is (deg p, 0) and a
    y-unary q is (0, deg q), with inf_x = X0 at (1, 0) and inf_y = Y0 at
    (0, 1).  a is m's residue degree over Q(y) and b over Q(x)."""
    if isinstance(m, BinaryPlace):
        return m.poly.deg_x(), m.poly.deg_y()
    d = m.degree()
    return (d, 0) if m.var == "x" else (0, d)


@dataclass(frozen=True, slots=True)
class Divisor:
    """Finite formal integer sum of places, canonically ordered;
    zero coefficients are never stored."""

    coeffs: tuple[tuple[Place, int], ...]

    @staticmethod
    def make(d: dict[Place, int] | Iterable[tuple[Place, int]]) -> "Divisor":
        items = d.items() if isinstance(d, dict) else d
        acc: dict[Place, int] = {}
        for p, c in items:
            acc[p] = acc.get(p, 0) + c
        kept = [(p, c) for p, c in acc.items() if c]
        if len(kept) > 1:
            kept.sort(key=lambda t: place_sort_key(t[0]))
        return Divisor(tuple(kept))

    @staticmethod
    def zero() -> "Divisor":
        return Divisor(())

    @staticmethod
    def of(place: Place, coeff: int = 1) -> "Divisor":
        return Divisor(((place, coeff),)) if coeff else Divisor.zero()

    def coeff(self, place: Place) -> int:
        for p, c in self.coeffs:
            if p == place:
                return c
        return 0

    def support(self) -> tuple[Place, ...]:
        return tuple(p for p, _ in self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Divisor") -> "Divisor":
        return Divisor.make(self.coeffs + other.coeffs)

    def __neg__(self) -> "Divisor":
        return Divisor(tuple((p, -c) for p, c in self.coeffs))

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def scale(self, k: int) -> "Divisor":
        if k == 0:
            return Divisor.zero()
        return Divisor(tuple((p, c * k) for p, c in self.coeffs))

    def disjoint_from(self, other: "Divisor") -> bool:
        sup = set(self.support())
        return not any(p in sup for p in other.support())

    def rendered(self) -> tuple[str, tuple[tuple[int, str], ...]]:
        """The divisor's text and its (coefficient, place text) pairs,
        each place rendered once."""
        terms = tuple((c, str(p)) for p, c in self.coeffs)
        return render_sum(terms), terms

    def __str__(self) -> str:
        return self.rendered()[0]


def bidegree(D: Divisor) -> tuple[int, int]:
    """The sum of w*place_bidegree(m) over the components w*[m] of D:
    the class of D in Pic(P1 x P1) = Z^2."""
    a = b = 0
    for m, w in D.coeffs:
        da, db = place_bidegree(m)
        a, b = a + w * da, b + w * db
    return a, b


def degree_K(D: Divisor) -> int:
    """Degree of a divisor of a rational function field:
    sum of coefficient times residue degree, with deg(infinity) = 1."""
    total = 0
    for p, c in D.coeffs:
        if not isinstance(p, UnaryPlace):
            raise ValueError("degree_K applies to divisors of Q(x) or Q(y)")
        total += c * p.degree()
    return total


# ---------------------------------------------------------------------------
# field elements of Q(x,y) in factored form


@dataclass(frozen=True, slots=True)
class DeltaElement:
    """A nonzero element of Q(x,y) in refined factored form.

    ``unit`` is a nonzero rational, an int when it is integral;
    ``factors`` pairs distinct primitive integer irreducible polynomials
    (each from a complete factorization over Q) with nonzero integer
    exponents.
    """

    unit: Scalar
    factors: tuple[tuple[BPoly, int], ...]

    @staticmethod
    def from_factors(unit, raw: Iterable[tuple[BPoly, int]]) -> "DeltaElement":
        unit = _frac(unit)
        if unit == 0:
            raise ValueError("zero is not a DeltaElement")
        # factor_b returns the unit and the primitive integer irreducibles
        # of each factor, constants included; equal irreducibles merge
        pieces: dict[BPoly, int] = {}
        for f, e in raw:
            if f.is_zero():
                raise ValueError("zero factor")
            if e == 0:
                continue
            u, fac = factor_b(f)
            unit = _frac(unit * qpow(u, e))
            for q, m in fac:
                pieces[q] = pieces.get(q, 0) + e * m
        # distinct primitive irreducibles, so their terms order them totally
        factors = sorted(((q, e) for q, e in pieces.items() if e), key=lambda t: t[0].terms)
        return DeltaElement(unit, tuple(factors))

    @staticmethod
    def from_fraction(num: BPoly, den: BPoly) -> "DeltaElement":
        return DeltaElement.from_factors(1, [(num, 1), (den, -1)])


@memo
def _place_of(q: BPoly) -> Place:
    """The place of a primitive integer irreducible q; equal inputs share
    one place object while it stays in the memo."""
    if q.deg_x() >= 1 and q.deg_y() >= 1:
        return BinaryPlace(q)
    return UnaryPlace.finite(q.as_upoly())


# ---------------------------------------------------------------------------
# valuations and principal divisors


def div_of_place(m: Place) -> Divisor:
    """The divisor of the polynomial defining a finite place m:
    [m] - a*[inf_x] - b*[inf_y], with (a, b) = place_bidegree(m).

    Proof.  Let f be the primitive integer irreducible polynomial of m.
    At a finite place n the order of f is the exponent of n's polynomial
    in the factorization of f over Q, which is 1 at m and 0 elsewhere,
    since distinct primitive irreducibles are not associate.  At inf_x
    the order of a polynomial is minus its degree in x (the degree
    valuation of Q(x) extended to Q(x,y)), and deg_x f is a in all three
    families: deg_x for a binary place, deg m for an x-unary place, 0
    for a y-unary one.  inf_y is the same with x, y and a, b swapped.
    So the divisor has bidegree (0, 0), as every principal divisor on
    P1 x P1 does (Pic = Z^2 by bidegree; Hartshorne, Algebraic Geometry,
    II Ex. 6.6.1).
    """
    return Divisor.make(_place_terms(m))


def _place_terms(m: Place) -> tuple[tuple[Place, int], ...]:
    """The three terms of ``div_of_place(m)``, zero coefficients included."""
    if isinstance(m, UnaryPlace) and m.is_infinity():
        raise ValueError("the place at infinity is not defined by a polynomial")
    a, b = place_bidegree(m)
    return (m, 1), (UnaryPlace.infinity("x"), -a), (UnaryPlace.infinity("y"), -b)


def principal_divisor(a: DeltaElement) -> Divisor:
    """The divisor of a nonzero element, including both infinity places:
    the sum of e*div_of_place over its factors f^e, built in one make."""
    return Divisor.make((p, e * c) for f, e in a.factors for p, c in _place_terms(_place_of(f)))


def divisor_of_upoly(p: UPoly, degree: int = 0) -> Divisor:
    """The finite zeros of a nonzero univariate polynomial p plus
    (degree - deg p) times the place at infinity of its variable.

    ``degree=0`` gives div(p) in Q(x) or Q(y).  A ``degree`` of at least
    deg p gives the zero divisor of p read as a binary form of that
    degree, whose order at infinity is the number of missing top
    coefficients (Fulton, Algebraic Curves, 5.1).
    """
    return Divisor.make(_upoly_terms(p, degree))


def _upoly_terms(p: UPoly, degree: int) -> list[tuple[Place, int]]:
    """The terms of ``divisor_of_upoly(p, degree)``, each place once: the
    place at infinity first, its coefficient possibly 0, then the
    distinct irreducible factors of p."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    terms = [(UnaryPlace.infinity(p.var), degree - p.degree())]
    if p.degree() >= 1:
        terms += [(UnaryPlace.finite(irr), m) for irr, m in factor_q(p)[1]]
    return terms
