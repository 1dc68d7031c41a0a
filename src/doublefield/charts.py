"""Chart-based intersection machinery on P1 x P1 over Q.

The fiber of a coprime pair of curves over each point of the y-line is
counted by one resultant in the original coordinates, Res_x(f, g): its
order at each finite y0 is the whole fiber's intersection multiplicity,
x = infinity included, and the place y = infinity gets the Bezout number
deg_x f * deg_y g + deg_y f * deg_x g minus its degree (proof in
``fiber_divisor``).  The shifted chart x = c + 1/t, the 1/y chart and
the shift search remain as library API; the ``charts`` suite uses them
as an independent two-chart route.
"""

from __future__ import annotations

from itertools import count
from math import comb

from .divisors import BinaryPlace, Divisor, divisor_of_upoly, transpose_place
from .errors import NotCoprime
from .exact import BPoly, UPoly, gcd_u, resultant_x, y_content


def shift_chart_x(f: BPoly, c: int) -> BPoly:
    """t^(deg_x f) * f(c + 1/t, y), a polynomial in (t, y) with t stored
    in the x slot.

    Expanded term by term, with m = deg_x f: a*x^i*y^j becomes
    sum over l of C(i, l) * c^l * a * t^(l + m - i) * y^j.
    """
    m = f.deg_x()
    if m < 0:
        raise ValueError("zero polynomial")
    d = {}
    for (i, j), a in f.terms:
        for l in range(i + 1):
            k = (l + m - i, j)
            d[k] = d.get(k, 0) + comb(i, l) * c**l * a
    return BPoly.make(d)


def reverse_y(f: BPoly) -> BPoly:
    """u^(deg_y f) * f(x, 1/u), a polynomial in (x, u) with u stored in
    the y slot."""
    n = f.deg_y()
    if n < 0:
        raise ValueError("zero polynomial")
    return BPoly.make({(i, n - j): v for (i, j), v in f.terms})


def shift_is_valid(f: BPoly, g: BPoly, c: int) -> bool:
    """True when the section x = c misses every common point of f and g:
    f(c, y), g(c, y) are nonzero with constant gcd."""
    fc = f.eval_x(c)
    gc = g.eval_x(c)
    if fc.is_zero() or gc.is_zero():
        return False
    return gcd_u(fc, gc).degree() == 0


def shift_candidates():
    yield 0
    for k in count(1):
        yield k
        yield -k


def find_shift(f: BPoly, g: BPoly, exclude=()) -> int:
    """First valid shift in the search order 0, 1, -1, 2, ..., skipping
    ``exclude``.

    A shift c fails when x - c divides f or g (at most deg_x f + deg_x g
    values) or when f(c, y) and g(c, y) share a root y0.  Then (c, y0) is
    a common point, so Res_y(f, g) vanishes at c (if both leading
    coefficients in y vanish at c, the Sylvester matrix has a zero
    column).  For coprime f and g this resultant is nonzero, of degree
    at most deg_x f * deg_y g + deg_y f * deg_x g in x.  So at most
    ``limit`` shifts fail, and NotCoprime follows limit + 1 failures.
    """
    limit = f.deg_x() * g.deg_y() + f.deg_y() * g.deg_x() + f.deg_x() + g.deg_x()
    rejected = 0
    for c in shift_candidates():
        if c in exclude:
            continue
        if shift_is_valid(f, g, c):
            return c
        rejected += 1
        if rejected > limit:
            raise NotCoprime(f"{rejected} chart shifts fail, so ({f}, {g}) share a component")


def fiber_resultant(f: BPoly, g: BPoly, shift: int) -> UPoly:
    """Resultant in the shifted chart x = shift + 1/t.  It equals
    ``resultant_x(f, g)`` up to sign whenever x - shift divides neither
    input (see ``fiber_divisor``); kept as the two-chart oracle of the
    ``charts`` suite."""
    ft = shift_chart_x(f, shift)
    gt = shift_chart_x(g, shift)
    return resultant_x(ft, gt)


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
    only by a unit: +-1 for the shift chart, and no chart is needed.

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
    as a divisor over the places of Q(y) including infinity.

    In any shifted chart the section becomes t = 0 and the resultant
    against the transformed curve is its x-leading coefficient, which is
    shift-independent.
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
