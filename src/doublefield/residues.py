"""Divisor residues modulo degree-one primes, correspondences, and
different divisors of pairs of rational embeddings.

A degree-one binary prime a(y)*x - b(y) identifies the residue field of
Q(x,y) with Q(y) through the substitution x -> b(y)/a(y); residues of
divisors modulo such a prime are divisors of Q(y).  Symmetrically a
degree-one prime (y - c) of Q(y) yields divisors of Q(x), computed both
by explicit fiber factorization (``correspondence``) and by the chart
resultant machinery (``residue_mod_Kp_degree_one``) so the two paths can
cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .charts import DEFAULT_SHIFT_BOUND, fiber_divisor, transpose_divisor
from .divisors import (
    BinaryPlace,
    Divisor,
    Place,
    UnaryPlace,
    divisor_of_upoly,
)
from .errors import EqualIsoms, NonGeneric, NotCoprime, NotDegreeOne
from .exact import BPoly, UPoly, gcd_u, resultant_x


@dataclass(frozen=True, slots=True)
class RationalIsom:
    """An embedding of Q(x) into Q(y): x -> num(y)/den(y) in lowest
    terms with monic denominator."""

    num: UPoly
    den: UPoly

    @staticmethod
    def make(num: UPoly, den: UPoly) -> "RationalIsom":
        if den.is_zero():
            raise ValueError("zero denominator")
        if num.var != "y" or den.var != "y":
            raise ValueError("rational isomorphisms live in Q(y)")
        if not num.is_zero():
            g = gcd_u(num, den)
            if g.degree() >= 1:
                num = num.exact_div(g)
                den = den.exact_div(g)
        lc = den.lc()
        return RationalIsom(num.scale(1 / lc), den.monic())

    def pole_divisor(self) -> Divisor:
        """Divisor of poles of num/den over the places of Q(y)."""
        out = divisor_of_upoly(self.den, include_infinity=False)
        w_inf = self.num.degree() - self.den.degree()
        if w_inf > 0:
            out = out + Divisor.of(UnaryPlace.infinity("y"), w_inf)
        return out

    def __str__(self) -> str:
        if self.den == UPoly.const("y", 1):
            return str(self.num)
        return f"({self.num})/({self.den})"


def residue_iso(n: BinaryPlace) -> RationalIsom:
    """The substitution x -> b/a read off a degree-one prime a*x - b."""
    f = n.poly
    if f.deg_x() != 1:
        raise NotDegreeOne(f"prime has x-degree {f.deg_x()}, expected 1")
    a = f.coeff_of_x(1)
    b = -f.coeff_of_x(0)
    return RationalIsom.make(b, a)


def different_divisor(mu: RationalIsom, nu: RationalIsom) -> Divisor:
    """Effective divisor of Q(y) measuring the coincidence orders of two
    embeddings: at each place the order of mu - nu where both are finite
    with equal values, of 1/mu - 1/nu where both have poles, else 0."""
    if mu == nu:
        raise EqualIsoms("the two embeddings coincide")
    b1, a1 = mu.num, mu.den
    b2, a2 = nu.num, nu.den
    d = b1 * a2 - b2 * a1
    if d.is_zero():
        raise EqualIsoms("the two embeddings coincide")
    # at a finite place, a nonzero order of d forces either both values
    # finite and equal or both infinite, and equals the coincidence
    # order in both cases
    out = divisor_of_upoly(d, include_infinity=False)
    w1 = a1.degree() - (b1.degree() if not b1.is_zero() else a1.degree())
    w2 = a2.degree() - (b2.degree() if not b2.is_zero() else a2.degree())
    w_inf = 0
    if w1 >= 0 and w2 >= 0:
        w_inf = max(0, a1.degree() + a2.degree() - d.degree())
    elif w1 < 0 and w2 < 0:
        w_inf = max(0, b1.degree() + b2.degree() - d.degree())
    if w_inf:
        out = out + Divisor.of(UnaryPlace.infinity("y"), w_inf)
    return out


def _check_coprime_to(A: Divisor, n: Place) -> None:
    if A.coeff(n) != 0:
        raise NotCoprime(f"divisor meets the modulus {n}")


def residue_mod_degree_one(
    A: Divisor, n: BinaryPlace, shift_bound: int = DEFAULT_SHIFT_BOUND
) -> Divisor:
    """Residue of a divisor of Q(x,y) modulo a degree-one binary prime,
    as a divisor of Q(y); linear in the divisor argument."""
    iso_n = residue_iso(n)
    _check_coprime_to(A, n)
    out = Divisor.zero()
    for m, w in A.coeffs:
        out = out + _prime_residue(m, n, iso_n, shift_bound).scale(w)
    return out


def _prime_residue(m: Place, n: BinaryPlace, iso_n: RationalIsom, shift_bound: int) -> Divisor:
    if isinstance(m, BinaryPlace):
        if m.poly.deg_x() == 1:
            return different_divisor(residue_iso(m), iso_n)
        # the residue field of n is Q(y) itself, so the residue of a
        # higher-degree prime is read off the chart resultants directly
        return fiber_divisor(m.poly, n.poly, shift_bound)
    if m.var == "x":
        if m.is_infinity():
            return iso_n.pole_divisor()
        # image of a finite place p(x) under x -> b/a: zero divisor of
        # the cleared numerator of p(b/a)
        b, a = iso_n.num, iso_n.den
        p = m.poly
        dp = p.degree()
        cleared = UPoly.zero("y")
        for i, c in enumerate(p.coeffs):
            cleared = cleared + (b**i) * (a ** (dp - i)).scale(c)
        out = divisor_of_upoly(cleared, include_infinity=False)
        w_inf = dp * a.degree() - cleared.degree()
        if w_inf > 0:
            out = out + Divisor.of(UnaryPlace.infinity("y"), w_inf)
        return out
    # K'-unary places map to themselves (the identification is the
    # identity on Q(y))
    return Divisor.of(m, 1)


def _degree_one_kp_value(q: UnaryPlace) -> Fraction:
    if q.var != "y" or q.is_infinity() or q.poly.degree() != 1:
        raise NotDegreeOne(f"expected a finite degree-one place of Q(y), got {q}")
    return -q.poly.coeffs[0] / q.poly.coeffs[1]


def correspondence(A: Divisor, p: UnaryPlace) -> Divisor:
    """Divisor of Q(x) associated to a degree-one place (y - c) through
    each component of A: fibers of binary primes over y = c (with escape
    to x = infinity), x-unary primes passing through unchanged, y-unary
    primes contributing zero."""
    c = _degree_one_kp_value(p)
    _check_coprime_to(A, p)
    out = Divisor.zero()
    for m, w in A.coeffs:
        out = out + _prime_correspondence(m, c).scale(w)
    return out


def _prime_correspondence(m: Place, c: Fraction) -> Divisor:
    if isinstance(m, BinaryPlace):
        f = m.poly
        lc = f.coeff_of_x(f.deg_x())
        monic_in_x = lc.degree() == 0
        if not monic_in_x:
            lc_ok = lc.eval(c) != 0
            if f.deg_x() >= 2:
                disc = resultant_x(f, _dfdx(f))
                disc_ok = not disc.is_zero() and disc.eval(c) != 0
            else:
                disc_ok = True
            if not (lc_ok and disc_ok):
                raise NonGeneric(
                    f"multiplicities of {f} over y = {c} cannot be soundly "
                    "read from the specialization"
                )
        spec = f.eval_y(c)
        out = divisor_of_upoly(spec, include_infinity=False)
        escape = f.deg_x() - spec.degree()
        if escape:
            out = out + Divisor.of(UnaryPlace.infinity("x"), escape)
        return out
    if m.var == "x":
        return Divisor.of(m, 1)
    return Divisor.zero()


def _dfdx(f: BPoly) -> BPoly:
    return BPoly.make({(i - 1, j): v * i for (i, j), v in f.terms if i >= 1})


def residue_mod_Kp_degree_one(A: Divisor, q: UnaryPlace) -> Divisor:
    """Residue of a divisor modulo a degree-one prime of Q(y), as a
    divisor of Q(x); an independent chart-resultant route that must
    agree with ``correspondence`` wherever both are defined."""
    _degree_one_kp_value(q)
    _check_coprime_to(A, q)
    q_t = BPoly.make({(1, 0): q.poly.coeffs[1], (0, 0): q.poly.coeffs[0]})
    out = Divisor.zero()
    for m, w in A.coeffs:
        if isinstance(m, BinaryPlace):
            d = fiber_divisor(q_t, m.poly.transpose())
            out = out + transpose_divisor(d).scale(w)
        elif m.var == "x":
            out = out + Divisor.of(m, w)
        # y-unary places contribute zero
    return out
