"""Fibers over the y-line of pairs of curves on P1 x P1 over Q.

The fiber of a coprime pair of curves over each point of the y-line is
counted by one resultant in the original coordinates, Res_x(f, g): its
order at each finite y0 is the whole fiber's intersection multiplicity,
x = infinity included, and the place y = infinity gets the Bezout number
deg_x f * deg_y g + deg_y f * deg_x g minus its degree (proof in
``fiber_divisor``).
"""

from __future__ import annotations

from .divisors import BinaryPlace, Divisor, divisor_of_upoly, transpose_place
from .errors import NotCoprime
from .exact import BPoly, gcd_u, resultant_x, y_content


def fiber_divisor(f: BPoly, g: BPoly) -> Divisor:
    """Divisor over the places of Q(y) (including infinity) counting the
    intersections of the curves f = 0 and g = 0 above each place.

    Each input has positive x-degree; purely x-unary inputs (deg_y = 0)
    are allowed.  Inputs must have no common component.

    Proof.  Let f have bidegree (a1, b1) and g (a2, b2), with a1, a2 >= 1.
    Their bihomogenizations F(X0:X1; Y0:Y1), G on P1 x P1 are binary
    forms of degrees a1, a2 in X whose coefficients are forms of degrees
    b1, b2 in Y.  The Sylvester resultant R = Res_X(F, G) with these
    formal degrees is then a form of degree a1*b2 + a2*b1 in Y, and for
    every point y0 of the Y-line at which F and G do not both vanish
    identically, ord_y0 R is the sum of the intersection multiplicities
    of F and G over all points (x, y0) of the fiber, x = infinity
    included (Fulton, Algebraic Curves, 1.6 and 5.1).  Since a1 and a2
    are the x-degrees of f and g, R(1, y) = r = resultant_x(f, g).  So r
    counts the finite places of Q(y), and the place y = infinity, where
    R has the order a1*b2 + a2*b1 - deg r, gets that Bezout number
    minus deg r.  A Moebius change of x such as x = c + 1/t maps each
    fiber to itself and keeps the multiplicities, so it multiplies R
    only by a unit, and no chart is needed.

    Common components: over Q(y), r = 0 exactly when f and g share a
    factor of positive x-degree.  A common factor h(y) does not make r
    vanish: each root of h is a fiber inside both curves, where R only
    vanishes to the finite order a1 + a2 per factor of h
    (Res_x((y-1)(x+1), (y-1)(x+2)) = (y-1)^2).  Such an h divides the
    y-content of f and of g (the gcd of their coefficients in x), which
    is checked first.  Either case raises NotCoprime.
    """
    if f.deg_x() < 1 or g.deg_x() < 1:
        raise ValueError("both inputs need positive x-degree")
    cf = y_content(f)
    if cf.degree() > 0 and gcd_u(cf, y_content(g)).degree() > 0:
        raise NotCoprime(f"curves share a component in y alone: ({f}, {g})")
    r = resultant_x(f, g)
    if r.is_zero():
        raise NotCoprime(f"vanishing resultant: ({f}, {g}) share a component")
    return divisor_of_upoly(r, f.deg_x() * g.deg_y() + f.deg_y() * g.deg_x())


def infx_fiber_divisor(g: BPoly) -> Divisor:
    """Intersections of the section x = infinity with the curve g = 0,
    as a divisor over the places of Q(y) including infinity: the X0
    reading of the pairing rule (``pairing._pair_primes_kp``).

    The section is the form X0 of bidegree (1, 0), and Res_X(X0, G) is
    +-G(0, 1; Y), the x-leading coefficient of g as a form of Y-degree
    deg_y g.
    """
    if g.deg_x() < 1:
        raise ValueError("needs positive x-degree")
    return divisor_of_upoly(g.coeff_of_x(g.deg_x()), g.deg_y())


def transpose_divisor(D: Divisor) -> Divisor:
    """Relabel a divisor over Q(y)-places as the mirror-image divisor
    over Q(x)-places (or vice versa)."""
    if any(isinstance(p, BinaryPlace) for p in D.support()):
        raise ValueError("only unary divisors can be relabeled")
    return Divisor.make([(transpose_place(p), c) for p, c in D.coeffs])
