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
    _frac,
    factor_b,
    factor_q,
    memo,
    primitive_int_bpoly,
    primitive_int_upoly,
    qpow,
)


@dataclass(frozen=True, slots=True)
class UnaryPlace:
    """A place of Q(x) (var='x') or Q(y) (var='y').

    ``poly`` is a primitive integer irreducible polynomial for a finite
    place, or None for the degree valuation at infinity.
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


@dataclass(frozen=True, slots=True)
class BinaryPlace:
    """A binary prime of Q(x,y): a primitive integer irreducible
    polynomial of positive degree in both variables.

    ``make`` decides the prime with ``place_of_curve``, and a reducible
    polynomial is refused with InputError.  Nothing reads
    ``certified``: it stays only so that the benchmark harness's
    ``BinaryPlace(q, True)`` still constructs, and it does not
    participate in place identity.
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
    """The mirror-image place under the swap of x and y."""
    if isinstance(m, BinaryPlace):
        return BinaryPlace(m.poly.transpose())
    nv = "x" if m.var == "y" else "y"
    if m.poly is None:
        return UnaryPlace.infinity(nv)
    return UnaryPlace.finite(m.poly.with_var(nv))


def place_sort_key(p: Place):
    """Deterministic total order on places for canonical divisor form."""
    if isinstance(p, BinaryPlace):
        return (2, 0, p.poly.terms)
    fam = 0 if p.var == "x" else 1
    if p.poly is None:
        return (fam, 1, ())
    return (fam, 0, p.poly.coeffs)


def degree_over_Kp(m: Place) -> int:
    """Residue degree over Q(y): binary -> deg_x, x-unary -> its degree,
    y-unary -> 0 by convention."""
    if isinstance(m, BinaryPlace):
        return m.poly.deg_x()
    return m.degree() if m.var == "x" else 0


def degree_over_K(m: Place) -> int:
    """Mirror of degree_over_Kp with the roles of x and y swapped."""
    if isinstance(m, BinaryPlace):
        return m.poly.deg_y()
    return m.degree() if m.var == "y" else 0


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

    def __mul__(self, k: int) -> "Divisor":
        return self.scale(k)

    __rmul__ = __mul__

    def disjoint_from(self, other: "Divisor") -> bool:
        sup = set(self.support())
        return not any(p in sup for p in other.support())

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for p, c in self.coeffs:
            if c == 1:
                term = str(p)
            elif c == -1:
                term = f"-{p}"
            else:
                term = f"{c}*{p}"
            if parts and not term.startswith("-"):
                parts.append(f" + {term}")
            elif parts:
                parts.append(f" - {term[1:]}")
            else:
                parts.append(term)
        return "".join(parts)


def bidegree(D: Divisor) -> tuple[int, int]:
    """(sum of w*degree_over_Kp(m), sum of w*degree_over_K(m)) over the
    components w*[m] of D: the class of D in Pic(P1 x P1) = Z^2."""
    return (
        sum(w * degree_over_Kp(m) for m, w in D.coeffs),
        sum(w * degree_over_K(m) for m, w in D.coeffs),
    )


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
        work: list[tuple[BPoly, int]] = []
        for f, e in raw:
            if f.is_zero():
                raise ValueError("zero factor")
            if e == 0:
                continue
            u, q = primitive_int_bpoly(f)
            unit = _frac(unit * qpow(u, e))
            if q.deg_x() <= 0 and q.deg_y() <= 0:
                continue
            work.append((q, e))
        u2, factors = _refine(work)
        unit = _frac(unit * u2)
        # distinct primitive irreducibles, so their terms order them totally
        factors.sort(key=lambda t: t[0].terms)
        return DeltaElement(unit, tuple(factors))

    @staticmethod
    def from_fraction(num: BPoly, den: BPoly) -> "DeltaElement":
        return DeltaElement.from_factors(1, [(num, 1), (den, -1)])


def _place_of(q: BPoly) -> Place:
    if q.deg_x() >= 1 and q.deg_y() >= 1:
        return BinaryPlace(q)
    return UnaryPlace.finite(q.as_upoly())


def _refine(work: list[tuple[BPoly, int]]) -> tuple[Scalar, list[tuple[BPoly, int]]]:
    """Split every factor into primitive integer irreducibles over Q and
    merge repeats; returns the accumulated rational unit and the pieces."""
    pieces: dict[tuple, tuple[BPoly, int]] = {}
    unit: Scalar = 1

    def add(q: BPoly, e: int) -> None:
        key = q.terms
        if key in pieces:
            pieces[key] = (q, pieces[key][1] + e)
        else:
            pieces[key] = (q, e)

    for f, e in work:
        u, fac = factor_b(f)
        unit = _frac(unit * qpow(u, e))
        for q, m in fac:
            add(q, e * m)
    return unit, [(q, e) for q, e in pieces.values() if e != 0]


# ---------------------------------------------------------------------------
# valuations and principal divisors


def div_of_place(m: Place) -> Divisor:
    """The divisor of the polynomial defining a finite place m:
    [m] - degree_over_Kp(m)*[inf_x] - degree_over_K(m)*[inf_y].

    Proof.  Let f be the primitive integer irreducible polynomial of m.
    At a finite place n the order of f is the exponent of n's polynomial
    in the factorization of f over Q, which is 1 at m and 0 elsewhere,
    since distinct primitive irreducibles are not associate.  At inf_x
    the order of a polynomial is minus its degree in x (the degree
    valuation of Q(x) extended to Q(x,y)), and deg_x f is
    degree_over_Kp(m) in all three families: deg_x for a binary place,
    deg m for an x-unary place, 0 for a y-unary one.  inf_y is the same
    with x and y swapped.  So the divisor has bidegree (0, 0), as every
    principal divisor on P1 x P1 does (Pic = Z^2 by bidegree; Hartshorne,
    Algebraic Geometry, II Ex. 6.6.1).
    """
    return Divisor.make(_place_terms(m))


def _place_terms(m: Place) -> tuple[tuple[Place, int], ...]:
    """The three terms of ``div_of_place(m)``, zero coefficients included."""
    if isinstance(m, UnaryPlace) and m.is_infinity():
        raise ValueError("the place at infinity is not defined by a polynomial")
    return (
        (m, 1),
        (UnaryPlace.infinity("x"), -degree_over_Kp(m)),
        (UnaryPlace.infinity("y"), -degree_over_K(m)),
    )


def valuation(place: Place, a: DeltaElement) -> int:
    """Order of ``a`` at the given place of Q(x,y)."""
    return principal_divisor(a).coeff(place)


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
    if p.is_zero():
        raise ValueError("zero polynomial")
    d: dict[Place, int] = {UnaryPlace.infinity(p.var): degree - p.degree()}
    if p.degree() >= 1:
        _, fac = factor_q(p)
        for irr, m in fac:
            d[UnaryPlace.finite(irr)] = m
    return Divisor.make(d)
