"""Divisor-valued norm pairings on Q(x,y).

``pair(A, b, side)`` sends a coprime pair of divisors of Q(x,y) to a
divisor of Q(x) (side K) or Q(y) (side Kprime).  Binary-against-binary
and unary-against-binary contributions come from one resultant per
pair of primes, Res_x on side Kprime (Res_y on side K, by transposing):
its roots give the finite places, and the Bezout number minus its
degree gives the place at infinity.  Pairs involving a unary prime of
the output side reduce to residue degrees; unary-against-unary pairs on
the same side vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charts import fiber_divisor, infx_fiber_divisor, transpose_divisor
from .divisors import (
    BinaryPlace,
    Divisor,
    Place,
    UnaryPlace,
    degree_over_Kp,
    div_of_place,
    divisor_of_upoly,
    transpose_place,
)
from .errors import NotCoprime, NotDegreeOne
from .exact import BPoly

SIDE_K = "K"
SIDE_KPRIME = "Kprime"


def pair(A: Divisor, b: Divisor, side: str = SIDE_KPRIME) -> Divisor:
    """Bilinear norm pairing of two divisors with disjoint supports.

    Each pair of primes of the x-line (binary or x-unary, for side
    Kprime) contributes ``fiber_divisor``: one resultant Res_x in the
    original coordinates, read at y = infinity off the Bezout number.
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
    m_kp_unary = isinstance(m, UnaryPlace) and m.var == "y"
    n_kp_unary = isinstance(n, UnaryPlace) and n.var == "y"
    if m_kp_unary and n_kp_unary:
        return Divisor.zero()
    if n_kp_unary:
        return Divisor.of(n, degree_over_Kp(m)) if degree_over_Kp(m) else Divisor.zero()
    if m_kp_unary:
        return Divisor.of(m, degree_over_Kp(n)) if degree_over_Kp(n) else Divisor.zero()
    # both m and n live over the x-line: binary or x-unary, and two
    # x-unary places (possibly one at infinity) norm to zero in Q(y)
    if isinstance(m, UnaryPlace) and isinstance(n, UnaryPlace):
        return Divisor.zero()
    if m == UnaryPlace.infinity("x"):
        return infx_fiber_divisor(n.poly)
    if n == UnaryPlace.infinity("x"):
        return infx_fiber_divisor(m.poly)
    return fiber_divisor(_curve_of(m), _curve_of(n))


def _curve_of(m: Place) -> BPoly:
    """Defining polynomial of a binary or finite x-unary place as a
    curve in the (x, y) plane."""
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
    if m.poly.deg_x() != 1:
        raise NotDegreeOne(f"prime has x-degree {m.poly.deg_x()}, expected 1")
    den = m.poly.coeff_of_x(1).monic()
    n = Divisor.of(m) - div_of_place(m) + divisor_of_upoly(den)
    value = pair(n, Divisor.of(m), side)
    return SelfPairing(value, n, f"({m.poly})/({den})")
