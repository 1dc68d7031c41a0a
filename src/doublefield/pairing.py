"""Divisor-valued norm pairings on Q(x,y).

``pair(A, b, side)`` sends a coprime pair of divisors of Q(x,y) to a
divisor of Q(x) (side K) or Q(y) (side Kprime).  Every place is a form
on P1 x P1 with a bidegree (``place_bidegree``), and a pair of places
goes to the divisor on the y-line of the resultant of their two forms,
of the Bezout degree a1*b2 + a2*b1 (``_pair_primes_kp``).  Side K is
the side-Kprime pairing of the two transposed divisors, transposed
back.

The fiber of two distinct places over each point of the y-line is
counted by one resultant in the original coordinates, Res_x(f, g) of
their curves: its order at each finite y0 is the whole fiber's
intersection multiplicity, x = infinity included, and the place
y = infinity gets the Bezout number minus its degree (proof in
``_pair_primes_kp``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .divisors import (
    BinaryPlace,
    Divisor,
    Place,
    _upoly_terms,
    degree_one_coeffs,
    div_of_place,
    divisor_of_upoly,
    place_bidegree,
    transpose_divisor,
)
from .errors import NotCoprime
from .exact import BPoly, resultant_x

SIDE_K = "K"
SIDE_KPRIME = "Kprime"


def pair(A: Divisor, b: Divisor, side: str = SIDE_KPRIME) -> Divisor:
    """Bilinear norm pairing of two divisors with disjoint supports.

    Each pair of places contributes the terms of the divisor of the
    resultant of their forms, read off their bidegrees
    (``_pair_primes_kp``): a multiple of a place of the output line, 0,
    or one resultant Res_x in the original coordinates, read at infinity
    off the Bezout number.  The terms of all pairs, times both weights,
    are summed in one ``Divisor.make``.
    Side K swaps x and y in A and b, pairs them on side Kprime and swaps
    back: the swap is a bijection on places, so by bilinearity this is
    the rule read with x and y swapped.
    """
    if side not in (SIDE_K, SIDE_KPRIME):
        raise ValueError(f"unknown side {side!r}")
    if side == SIDE_K:
        return transpose_divisor(pair(transpose_divisor(A), transpose_divisor(b)))
    if not A.disjoint_from(b):
        raise NotCoprime("pairing requires disjoint supports")
    return Divisor.make(
        (p, c * wm * wn)
        for m, wm in A.coeffs
        for n, wn in b.coeffs
        for p, c in _pair_primes_kp(m, n)
    )


def _pair_primes_kp(m: Place, n: Place) -> Iterable[tuple[Place, int]]:
    """The pairing of two distinct places on side Kprime as (place,
    coefficient) terms, each place once and some coefficients possibly
    0, read off their bidegrees (a1, b1) = place_bidegree(m) and
    (a2, b2) = place_bidegree(n).

    Proof.  m and n are cut out on P1 x P1 by irreducible forms F and G
    of these bidegrees (X0 for inf_x, Y0 for inf_y).  The pushforward to
    the y-line of their intersection is the divisor of the binary form
    R = Res_X(F, G), taken with the formal X-degrees a1 and a2, which has
    degree a1*b2 + a2*b1 in Y (Fulton, Algebraic Curves, 1.6 and 5.1).
    There are four readings:
    - a1 = 0: F is a form in Y alone, so R = F^a2, whose divisor is
      a2*[m]; and a2 = 0 likewise gives a1*[n].  Two y-unary places
      pair to 0.
    - a1*b2 + a2*b1 = 0 with a1, a2 >= 1: then b1 = b2 = 0, and R is a
      nonzero effective form of degree 0, so its divisor is 0.  Two
      x-unary places pair to 0.
    - m = inf_x, F = X0 of bidegree (1, 0): n is binary, since an
      x-unary n has b2 = 0 and a Bezout number of 0.  With
      G = sum g_i X1^i X0^(a2-i), R = Res_X(X0, G) = +-G(0, 1; Y) =
      +-lc_X(G), the x-leading coefficient g_a2 of n's curve, as a form
      of Y-degree b2 = a1*b2 + a2*b1.  n = inf_x likewise reads lc_X(F).
    - otherwise m and n are binary or finite x-unary, with curves f and g
      of x-degrees a1 and a2, so R(1, y) = r = resultant_x(f, g).  For
      every point y0 at which F and G do not both vanish identically,
      ord_y0 R is the sum of the intersection multiplicities of F and G
      over the whole fiber above y0, x = infinity included.  So r counts
      the finite places of Q(y), and y = infinity, where R has the order
      a1*b2 + a2*b1 - deg r, gets that Bezout number minus deg r.  A
      Moebius change of x such as x = c + 1/t maps each fiber to itself
      and keeps the multiplicities, so it multiplies R only by a unit,
      and no chart is needed.

    Common components: the curves of two distinct places share none,
    since each is prime.  Over Q(y), r = 0 exactly when f and g share a
    factor of positive x-degree, so r is nonzero.  A common factor h(y)
    would not make r vanish: each root of h is a fiber inside both
    curves, where R vanishes only to the finite order a1 + a2 per factor
    of h (Res_x((y-1)(x+1), (y-1)(x+2)) = (y-1)^2).  No place's curve has
    such a factor: a nonconstant y-content would be a proper factor of
    it, so ``divisors.place_of_curve`` refuses such a curve as reducible.
    """
    (a1, b1), (a2, b2) = place_bidegree(m), place_bidegree(n)
    if a1 == 0:
        return ((m, a2),)
    if a2 == 0:
        return ((n, a1),)
    bezout = a1 * b2 + a2 * b1
    if bezout == 0:
        return ()
    if m.poly is None:  # m = inf_x, since a1 >= 1 rules out inf_y
        r = n.poly.coeff_of_x(a2)
    elif n.poly is None:
        r = m.poly.coeff_of_x(a1)
    else:
        r = resultant_x(_curve_of(m), _curve_of(n))
    return _upoly_terms(r, bezout)


def _curve_of(m: Place) -> BPoly:
    """The polynomial of a binary or finite x-unary place as a curve in
    the (x, y) plane."""
    if isinstance(m, BinaryPlace):
        return m.poly
    return BPoly.from_upoly(m.poly)


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
