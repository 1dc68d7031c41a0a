"""Divisor residues modulo degree-one primes, correspondences, and
different divisors of pairs of rational embeddings.

A degree-one binary prime n = a(y)*x - b(y) identifies the residue field
of Q(x,y) modulo n with Q(y) through the substitution x -> b(y)/a(y), so
the residue of a divisor A modulo n is A's norm pairing against n down to
Q(y): ``residue_mod_degree_one(A, n) = pair(A, n, Kprime)`` (the proof,
component by component, is in its docstring).  Symmetrically a
degree-one prime (y - c) of Q(y) yields divisors of Q(x), computed both
by explicit fiber factorization (``correspondence``) and as the pairing
on side K (``residue_mod_Kp_degree_one``); the two agree at every
degree-one point, so each cross-checks the other.  ``different_divisor``
and ``RationalIsom.pole_divisor`` remain as the closed forms the pairing
is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .divisors import (
    BinaryPlace,
    Divisor,
    Place,
    UnaryPlace,
    degree_one_coeffs,
    divisor_of_upoly,
)
from .errors import EqualIsoms, NotCoprime, NotDegreeOne
from .exact import Scalar, UPoly, cancel_u, qdiv
from .pairing import SIDE_K, SIDE_KPRIME, pair


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
        return RationalIsom(*cancel_u(num, den))

    def pole_divisor(self) -> Divisor:
        """Divisor of poles of num/den over the places of Q(y)."""
        return divisor_of_upoly(self.den, max(self.num.degree(), self.den.degree()))

    def __str__(self) -> str:
        if self.den == UPoly.const("y", 1):
            return str(self.num)
        return f"({self.num})/({self.den})"


def residue_iso(n: BinaryPlace) -> RationalIsom:
    """The substitution x -> b/a read off a degree-one prime a*x - b."""
    a, b = degree_one_coeffs(n)
    return RationalIsom.make(b, a)


def different_divisor(mu: RationalIsom, nu: RationalIsom) -> Divisor:
    """Effective divisor of Q(y) measuring the coincidence orders of two
    embeddings: at each place the order of mu - nu where both are finite
    with equal values, of 1/mu - 1/nu where both have poles, else 0.

    Proof.  With mu = b1/a1 and nu = b2/a2 in lowest terms, d = b1*a2 -
    b2*a1 is the form B1*A2 - B2*A1 of degree max(deg a1, deg b1) +
    max(deg a2, deg b2) in the homogeneous coordinates of the y-line.
    At every place, y = infinity included, A1 and B1 do not vanish
    together, nor A2 and B2.  Where both values are finite, d is
    A1*A2*(mu - nu) with A1*A2 a unit; where both are infinite, it is
    B1*B2*(1/nu - 1/mu) with B1*B2 a unit; where only mu is infinite,
    A1 = 0 and d = B1*A2 does not vanish (the same with mu and nu
    swapped).  So the order of d is the coincidence order in all three
    cases.
    """
    if mu == nu:
        raise EqualIsoms("the two embeddings coincide")
    b1, a1 = mu.num, mu.den
    b2, a2 = nu.num, nu.den
    d = b1 * a2 - b2 * a1
    if d.is_zero():
        raise EqualIsoms("the two embeddings coincide")
    return divisor_of_upoly(d, max(a1.degree(), b1.degree()) + max(a2.degree(), b2.degree()))


def _check_coprime_to(A: Divisor, n: Place) -> None:
    if A.coeff(n) != 0:
        raise NotCoprime(f"divisor meets the modulus {n}")


def residue_mod_degree_one(A: Divisor, n: BinaryPlace) -> Divisor:
    """Residue of a divisor of Q(x,y) modulo a degree-one binary prime
    n = a(y)*x - b(y), as a divisor of Q(y): the pairing of A against n
    on side Kprime, linear in A.

    Proof.  The residue field of n is Q(y) with x = b/a, and a and b are
    coprime because n is prime, so deg_y n = max(deg a, deg b).  For each
    component m of A, pair reads:
    - a binary m = a1*x - b1 of x-degree 1: ``fiber_divisor`` of
      Res_x(m, n) = +-(b1*a - b*a1) as a form of the Bezout degree
      deg_y m + deg_y n, which is ``different_divisor`` of the two
      embeddings b1/a1 and b/a;
    - any other binary m: ``fiber_divisor(m, n)``, the fibers of m over
      the places of Q(y) cut out on the line n;
    - a finite p(x): Res_x(p, a*x - b) = +-a^(deg p)*p(b/a) as a form of
      degree deg p * deg_y n, the zeros of p at x = b/a;
    - inf_x: ``infx_fiber_divisor(n)`` = ``divisor_of_upoly(a, deg_y n)``,
      the pole divisor of b/a (``RationalIsom.pole_divisor``);
    - a y-unary m: [m] times deg_x n = 1, since Q(y) is fixed.
    """
    degree_one_coeffs(n)
    _check_coprime_to(A, n)
    return pair(A, Divisor.of(n), SIDE_KPRIME)


def _degree_one_kp_value(q: UnaryPlace) -> Scalar:
    if not isinstance(q, UnaryPlace) or q.var != "y" or q.is_infinity() or q.poly.degree() != 1:
        raise NotDegreeOne(f"expected a finite degree-one place of Q(y), got {q}")
    return qdiv(-q.poly.coeffs[0], q.poly.coeffs[1])


def correspondence(A: Divisor, p: UnaryPlace) -> Divisor:
    """Divisor of Q(x) associated to a degree-one place (y - c) through
    each component of A: fibers of binary primes over y = c (with escape
    to x = infinity), x-unary primes passing through unchanged, y-unary
    primes contributing zero.  It equals ``residue_mod_Kp_degree_one(A,
    p)`` at every such place.

    Proof.  y - c is monic of degree 1 in y, so Res_y(f, y - c) =
    +-f(x, c) for a binary prime f.  The pairing on side K reads it as a
    form of the Bezout degree deg_x f, and so does
    ``divisor_of_upoly(f(x, c), deg_x f)``: the factors of f(x, c) give
    the finite places, and its degree drop below deg_x f goes to
    x = infinity.  The order of f(x, c) at a root x0 is the intersection
    number of f with the line y = c at (x0, c) (Fulton, Algebraic
    Curves, 3.3), so neither reading needs f monic in x or its fiber
    unramified over c.  The pairing also sends an x-unary prime to
    itself times deg_y(y - c) = 1, and a y-unary prime to 0.
    """
    c = _degree_one_kp_value(p)
    _check_coprime_to(A, p)
    return Divisor.make(
        (n, v * w) for m, w in A.coeffs for n, v in _prime_correspondence(m, c).coeffs
    )


def _prime_correspondence(m: Place, c: Scalar) -> Divisor:
    if isinstance(m, BinaryPlace):
        return divisor_of_upoly(m.poly.eval_y(c), m.poly.deg_x())
    if m.var == "x":
        return Divisor.of(m, 1)
    return Divisor.zero()


def residue_mod_Kp_degree_one(A: Divisor, q: UnaryPlace) -> Divisor:
    """Residue of a divisor modulo a degree-one prime of Q(y), as a
    divisor of Q(x): the pairing of A against q on side K.  It reads
    resultants, not the specialization that ``correspondence`` reads,
    and the two agree at every degree-one place."""
    _degree_one_kp_value(q)
    _check_coprime_to(A, q)
    return pair(A, Divisor.of(q), SIDE_K)
