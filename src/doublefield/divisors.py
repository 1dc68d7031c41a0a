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
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import InputError, UncertifiedFactor
from .exact import (
    BPoly,
    UPoly,
    certify_irreducible_bivariate,
    factor_b,
    factor_q,
    memo,
    primitive_int_bpoly,
    primitive_int_upoly,
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

    ``certified`` records whether irreducibility was certified; it does
    not participate in place identity.  ``assume_irreducible`` admits a
    polynomial the certificate cannot decide, unless ``factor_b`` splits
    it: a reducible polynomial is refused with or without the flag.
    """

    poly: BPoly
    certified: bool = field(default=True, compare=False, hash=False)

    @staticmethod
    def make(f: BPoly, assume_irreducible: bool = False) -> "BinaryPlace":
        if f.deg_x() < 1 or f.deg_y() < 1:
            raise ValueError("binary place needs positive degree in both variables")
        _, q = primitive_int_bpoly(f)
        cert = certify_irreducible_bivariate(q) == "certified"
        if not cert:
            if not assume_irreducible:
                raise UncertifiedFactor(f"could not certify irreducibility of {q}")
            # the flag skips the certificate, not the exact factorization
            _, factors = factor_b(q)
            if len(factors) != 1 or factors[0][1] != 1:
                raise InputError(f"{q} is reducible, not a prime")
        return BinaryPlace(q, cert)

    def degree_x(self) -> int:
        return self.poly.deg_x()

    def degree_y(self) -> int:
        return self.poly.deg_y()

    def __str__(self) -> str:
        return f"({self.poly})"


Place = Union[UnaryPlace, BinaryPlace]


def transpose_place(m: Place) -> Place:
    """The mirror-image place under the swap of x and y."""
    if isinstance(m, BinaryPlace):
        return BinaryPlace(m.poly.transpose(), m.certified)
    nv = "x" if m.var == "y" else "y"
    if m.poly is None:
        return UnaryPlace.infinity(nv)
    return UnaryPlace.finite(m.poly.with_var(nv))


def place_sort_key(p: Place):
    """Deterministic total order on places for canonical divisor form."""
    if isinstance(p, BinaryPlace):
        return (2, 0, tuple((k, (c.numerator, c.denominator)) for k, c in p.poly.terms))
    fam = 0 if p.var == "x" else 1
    if p.poly is None:
        return (fam, 1, ())
    return (fam, 0, tuple((c.numerator, c.denominator) for c in p.poly.coeffs))


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
        return Divisor(tuple(sorted(((p, c) for p, c in acc.items() if c), key=lambda t: place_sort_key(t[0]))))

    @staticmethod
    def zero() -> "Divisor":
        return Divisor(())

    @staticmethod
    def of(place: Place, coeff: int = 1) -> "Divisor":
        return Divisor.make({place: coeff})

    def as_dict(self) -> dict[Place, int]:
        return dict(self.coeffs)

    def coeff(self, place: Place) -> int:
        for p, c in self.coeffs:
            if p == place:
                return c
        return 0

    def support(self) -> tuple[Place, ...]:
        return tuple(p for p, _ in self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_effective(self) -> bool:
        return all(c >= 0 for _, c in self.coeffs)

    def __add__(self, other: "Divisor") -> "Divisor":
        d = self.as_dict()
        for p, c in other.coeffs:
            d[p] = d.get(p, 0) + c
        return Divisor.make(d)

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


def restrict_to_Kp(A: Divisor) -> Divisor:
    """Keep exactly the y-unary components."""
    return Divisor.make(
        {p: c for p, c in A.coeffs if isinstance(p, UnaryPlace) and p.var == "y"}
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

    ``unit`` is a nonzero rational; ``factors`` pairs distinct primitive
    integer irreducible polynomials (each from a complete factorization
    over Q) with nonzero integer exponents.
    """

    unit: Fraction
    factors: tuple[tuple[BPoly, int], ...]

    @staticmethod
    def one() -> "DeltaElement":
        return DeltaElement(Fraction(1), ())

    @staticmethod
    def constant(c) -> "DeltaElement":
        c = Fraction(c)
        if c == 0:
            raise ValueError("zero is not a DeltaElement")
        return DeltaElement(c, ())

    @staticmethod
    def from_factors(unit, raw: Iterable[tuple[BPoly, int]]) -> "DeltaElement":
        unit = Fraction(unit)
        if unit == 0:
            raise ValueError("zero is not a DeltaElement")
        work: list[tuple[BPoly, int]] = []
        for f, e in raw:
            if f.is_zero():
                raise ValueError("zero factor")
            if e == 0:
                continue
            u, q = primitive_int_bpoly(f)
            unit *= u**e
            if q.deg_x() <= 0 and q.deg_y() <= 0:
                continue
            work.append((q, e))
        u2, factors = _refine(work)
        unit *= u2
        factors.sort(key=lambda t: place_sort_key(_place_of(t[0])))
        return DeltaElement(unit, tuple(factors))

    @staticmethod
    def from_bpoly(f: BPoly) -> "DeltaElement":
        return DeltaElement.from_factors(1, [(f, 1)])

    @staticmethod
    def from_fraction(num: BPoly, den: BPoly) -> "DeltaElement":
        return DeltaElement.from_factors(1, [(num, 1), (den, -1)])

    def __mul__(self, other: "DeltaElement") -> "DeltaElement":
        return DeltaElement.from_factors(self.unit * other.unit, self.factors + other.factors)

    def inverse(self) -> "DeltaElement":
        return DeltaElement.from_factors(1 / self.unit, [(f, -e) for f, e in self.factors])

    def deg_x_num_den(self) -> tuple[int, int]:
        num = sum(f.deg_x() * e for f, e in self.factors if e > 0)
        den = -sum(f.deg_x() * e for f, e in self.factors if e < 0)
        return num, den

    def deg_y_num_den(self) -> tuple[int, int]:
        num = sum(f.deg_y() * e for f, e in self.factors if e > 0)
        den = -sum(f.deg_y() * e for f, e in self.factors if e < 0)
        return num, den


def _place_of(q: BPoly) -> Place:
    if q.deg_x() >= 1 and q.deg_y() >= 1:
        return BinaryPlace(q)
    return UnaryPlace.finite(q.as_upoly())


def _refine(work: list[tuple[BPoly, int]]) -> tuple[Fraction, list[tuple[BPoly, int]]]:
    """Split every factor into primitive integer irreducibles over Q and
    merge repeats; returns the accumulated rational unit and the pieces."""
    pieces: dict[tuple, tuple[BPoly, int]] = {}
    unit = Fraction(1)

    def add(q: BPoly, e: int) -> None:
        key = q.terms
        if key in pieces:
            pieces[key] = (q, pieces[key][1] + e)
        else:
            pieces[key] = (q, e)

    for f, e in work:
        u, fac = factor_b(f)
        unit *= u**e
        for q, m in fac:
            add(q, e * m)
    return unit, [(q, e) for q, e in pieces.values() if e != 0]


# ---------------------------------------------------------------------------
# valuations and principal divisors


def valuation(place: Place, a: DeltaElement) -> int:
    """Order of ``a`` at the given place of Q(x,y)."""
    if isinstance(place, UnaryPlace) and place.is_infinity():
        if place.var == "x":
            num, den = a.deg_x_num_den()
        else:
            num, den = a.deg_y_num_den()
        return den - num
    if isinstance(place, BinaryPlace):
        return sum(e for f, e in a.factors if f == place.poly)
    # finite unary place
    target_var = place.var
    v = 0
    for f, e in a.factors:
        if f.deg_x() >= 1 and f.deg_y() >= 1:
            continue
        p = f.as_upoly()
        if p.var == target_var and p == place.poly:
            v += e
    return v


def principal_divisor(a: DeltaElement) -> Divisor:
    """The divisor of a nonzero element, including both infinity places."""
    d: dict[Place, int] = {}
    for f, e in a.factors:
        d[_place_of(f)] = e
    nx, dx = a.deg_x_num_den()
    if dx - nx:
        d[UnaryPlace.infinity("x")] = dx - nx
    ny, dy = a.deg_y_num_den()
    if dy - ny:
        d[UnaryPlace.infinity("y")] = dy - ny
    return Divisor.make(d)


def divisor_of_upoly(p: UPoly, include_infinity: bool = True) -> Divisor:
    """Divisor in Q(x) or Q(y) of a nonzero univariate polynomial."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    d: dict[Place, int] = {}
    if p.degree() >= 1:
        _, fac = factor_q(p)
        for irr, m in fac:
            d[UnaryPlace.finite(irr)] = m
    if include_infinity and p.degree() >= 1:
        d[UnaryPlace.infinity(p.var)] = -p.degree()
    return Divisor.make(d)
