"""Divisor-valued norm pairings on Q(x,y).

``pair(A, b, side)`` sends a coprime pair of divisors of Q(x,y) to a
divisor of Q(x) (side K) or Q(y) (side Kprime).  Every place is a form
on P1 x P1 with a bidegree (``place_bidegree``), and a pair of places
goes to the divisor on the y-line of the resultant of their two forms,
of the Bezout degree a1*b2 + a2*b1 (``_pair_primes_kp``).  Side K is the
same rule with x and y swapped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charts import fiber_divisor, infx_fiber_divisor, transpose_divisor
from .divisors import (
    BinaryPlace,
    Divisor,
    Place,
    degree_one_coeffs,
    div_of_place,
    divisor_of_upoly,
    place_bidegree,
    transpose_place,
)
from .errors import NotCoprime
from .exact import BPoly

SIDE_K = "K"
SIDE_KPRIME = "Kprime"


def pair(A: Divisor, b: Divisor, side: str = SIDE_KPRIME) -> Divisor:
    """Bilinear norm pairing of two divisors with disjoint supports.

    Each pair of places contributes the divisor of the resultant of
    their forms, read off their bidegrees (``_pair_primes_kp``): a
    multiple of a place of the output line, 0, or one resultant Res_x
    in the original coordinates, read at infinity off the Bezout number.
    """
    if side not in (SIDE_K, SIDE_KPRIME):
        raise ValueError(f"unknown side {side!r}")
    if not A.disjoint_from(b):
        raise NotCoprime("pairing requires disjoint supports")
    return Divisor.make(
        (p, c * wm * wn)
        for m, wm in A.coeffs
        for n, wn in b.coeffs
        for p, c in _pair_primes(m, n, side).coeffs
    )


def _pair_primes(m: Place, n: Place, side: str) -> Divisor:
    if side == SIDE_K:
        return transpose_divisor(_pair_primes_kp(transpose_place(m), transpose_place(n)))
    return _pair_primes_kp(m, n)


def _pair_primes_kp(m: Place, n: Place) -> Divisor:
    """The pairing of two distinct places on side Kprime, read off their
    bidegrees (a1, b1) = place_bidegree(m) and (a2, b2) = place_bidegree(n).

    Proof.  m and n are cut out on P1 x P1 by irreducible forms F and G
    of these bidegrees (X0 for inf_x, Y0 for inf_y).  The pushforward to
    the y-line of their intersection is the divisor of the binary form
    R = Res_X(F, G), taken with the formal X-degrees a1 and a2, which has
    degree a1*b2 + a2*b1 in Y (Fulton, Algebraic Curves, 1.6 and 5.1).
    There are three readings:
    - a1 = 0: F is a form in Y alone, so R = F^a2, whose divisor is
      a2*[m]; and a2 = 0 likewise gives a1*[n].  Two y-unary places
      pair to 0.
    - a1*b2 + a2*b1 = 0 with a1, a2 >= 1: then b1 = b2 = 0, and R is a
      nonzero effective form of degree 0, so its divisor is 0.  Two
      x-unary places pair to 0.
    - otherwise both curves have positive X-degree, and ``fiber_divisor``
      reads R off Res_x of the two curve polynomials.  Its proof needs
      each curve to reach its X-degree, which fails only for X0 = inf_x,
      whose curve is 1: there R is +-lc_X of the other form, which
      ``infx_fiber_divisor`` reads as a form of that form's Y-degree.
    """
    (a1, b1), (a2, b2) = place_bidegree(m), place_bidegree(n)
    if a1 == 0:
        return Divisor.of(m, a2)
    if a2 == 0:
        return Divisor.of(n, a1)
    if a1 * b2 + a2 * b1 == 0:
        return Divisor.zero()
    f, g = _curve_of(m), _curve_of(n)
    if f.deg_x() < a1 or g.deg_x() < a2:
        return infx_fiber_divisor(max(f, g, key=BPoly.deg_x))
    return fiber_divisor(f, g)


_ONE = BPoly.const(1)


def _curve_of(m: Place) -> BPoly:
    """The polynomial of a place over the x-line as a curve in the
    (x, y) plane, and 1 for inf_x, whose form X0 is 1 in the chart
    x = X1/X0."""
    if isinstance(m, BinaryPlace):
        return m.poly
    return _ONE if m.is_infinity() else BPoly.from_upoly(m.poly)


@dataclass(frozen=True, slots=True)
class SelfPairing:
    """Self-pairing of a degree-one binary prime up to principal
    divisors: the pairing of the moved divisor against the prime, plus
    the moving data."""

    value: Divisor
    moved: Divisor
    moving_element: str


def self_pair_degree_one(m: BinaryPlace, side: str = SIDE_KPRIME) -> SelfPairing:
    """Pair a degree-one binary prime m = a*x - b with itself by first
    replacing it with the equivalent divisor m - div(x - b/a), which has
    support disjoint from m.  The moving element is m/a with a made
    monic; a and b are coprime because m is prime, so a is the
    denominator of b/a in lowest terms."""
    den = degree_one_coeffs(m)[0].monic()
    n = Divisor.of(m) - div_of_place(m) + divisor_of_upoly(den)
    value = pair(n, Divisor.of(m), side)
    return SelfPairing(value, n, f"({m.poly})/({den})")
