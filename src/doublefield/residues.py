"""Divisor residues modulo degree-one primes and correspondences.

A degree-one binary prime n = a(y)*x - b(y) identifies the residue field
of Q(x,y) modulo n with Q(y) through the substitution x -> b(y)/a(y), so
the residue of a divisor A modulo n is A's norm pairing against n down to
Q(y): ``residue_mod_degree_one(A, n) = pair(A, n, Kprime)`` (the proof,
component by component, is in its docstring).  Symmetrically a
degree-one prime (y - c) of Q(y) yields divisors of Q(x), computed both
by explicit fiber factorization (``correspondence``) and as the pairing
on side K (``residue_mod_Kp_degree_one``); the two agree at every
degree-one point, so each cross-checks the other.  The closed forms the
pairing of degree-one primes is checked against,
``oracles.different_divisor`` and ``oracles.pole_divisor``, are
``verify``'s oracle.
"""

from __future__ import annotations

from typing import Iterable

from .divisors import (
    BinaryPlace,
    Divisor,
    Place,
    UnaryPlace,
    _upoly_terms,
    degree_one_coeffs,
)
from .errors import NotCoprime, NotDegreeOne
from .exact import Scalar, qdiv
from .pairing import SIDE_K, SIDE_KPRIME, pair


def _check_coprime_to(A: Divisor, n: Place) -> None:
    if A.coeff(n) != 0:
        raise NotCoprime(f"divisor meets the modulus {n}")


def residue_mod_degree_one(A: Divisor, n: BinaryPlace) -> Divisor:
    """Residue of a divisor of Q(x,y) modulo a degree-one binary prime
    n = a(y)*x - b(y), as a divisor of Q(y): the pairing of A against n
    on side Kprime, linear in A.

    Proof.  The residue field of n is Q(y) with x = b/a, and a and b are
    coprime because n is prime, so n is a form N of bidegree (1, d) with
    d = deg_y n = max(deg a, deg b).  The pairing rule
    (``pairing._pair_primes_kp``) sends a component m of A, a form M of
    bidegree (i, j), to the divisor on the y-line of Res_X(M, N), of
    degree i*d + j.  N is linear in X with root (X0 : X1) = (a : b), so
    that resultant is +-M(a, b; Y), the form of m restricted to the line
    n: the divisor of m in the residue field Q(y).  It reads [m] for a
    y-unary m (i = 0), the zeros of p at x = b/a for a finite p(x), the
    pole divisor of b/a for inf_x (``oracles.pole_divisor``), and
    ``oracles.different_divisor(m, n)`` for a binary m = a1*x - b1.
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
    return Divisor.make((n, v * w) for m, w in A.coeffs for n, v in _prime_correspondence(m, c))


def _prime_correspondence(m: Place, c: Scalar) -> Iterable[tuple[Place, int]]:
    """The correspondence of one place at y = c as (place, coefficient)
    terms, each place once and some coefficients possibly 0."""
    if isinstance(m, BinaryPlace):
        return _upoly_terms(m.poly.eval_y(c), m.poly.deg_x())
    if m.var == "x":
        return ((m, 1),)
    return ()


def residue_mod_Kp_degree_one(A: Divisor, q: UnaryPlace) -> Divisor:
    """Residue of a divisor modulo a degree-one prime of Q(y), as a
    divisor of Q(x): the pairing of A against q on side K.  It reads
    resultants, not the specialization that ``correspondence`` reads,
    and the two agree at every degree-one place."""
    _degree_one_kp_value(q)
    _check_coprime_to(A, q)
    return pair(A, Divisor.of(q), SIDE_K)
