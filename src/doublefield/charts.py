"""Chart-based intersection machinery on P1 x P1 over Q.

The fiber of a coprime pair of curves over each point of the y-line is
counted by a resultant taken in a shifted coordinate x = c + 1/t, where
the integer shift c is chosen (and verified exactly) so that no common
point of the pair lies on the moved section at infinity.  The same
machinery in the u = 1/y chart yields the coefficient at the infinite
place of Q(y).
"""

from __future__ import annotations

from math import comb

from .divisors import BinaryPlace, Divisor, UnaryPlace, divisor_of_upoly, transpose_place
from .errors import NotCoprime, ShiftExhausted
from .exact import BPoly, UPoly, gcd_b, gcd_u, resultant_x

DEFAULT_SHIFT_BOUND = 64


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


def shift_candidates(bound: int):
    yield 0
    for k in range(1, bound + 1):
        yield k
        yield -k


def find_shift(f: BPoly, g: BPoly, bound: int = DEFAULT_SHIFT_BOUND, exclude=()) -> int:
    """Smallest valid shift (by the search order 0, 1, -1, 2, ...)."""
    for c in shift_candidates(bound):
        if c in exclude:
            continue
        if shift_is_valid(f, g, c):
            return c
    raise ShiftExhausted(f"no valid shift within |c| <= {bound} for ({f}, {g})")


def _common_component(f: BPoly, g: BPoly) -> bool:
    d = gcd_b(f, g)
    return d.deg_x() > 0 or d.deg_y() > 0


def fiber_resultant(f: BPoly, g: BPoly, shift: int) -> UPoly:
    """Resultant in the shifted chart; its order at y0 is the total
    intersection multiplicity of f and g on the fiber y = y0, summed
    over all x in P1."""
    ft = shift_chart_x(f, shift)
    gt = shift_chart_x(g, shift)
    return resultant_x(ft, gt)


def fiber_divisor(
    f: BPoly, g: BPoly, shift_bound: int = DEFAULT_SHIFT_BOUND, shift: int | None = None
) -> Divisor:
    """Divisor over the places of Q(y) (including infinity) counting the
    intersections of the curves f = 0 and g = 0 above each place.

    Each input has positive x-degree; purely x-unary inputs (deg_y = 0)
    are allowed.  Inputs must have no common component.
    """
    if f.deg_x() < 1 or g.deg_x() < 1:
        raise ValueError("both inputs need positive x-degree")
    if _common_component(f, g):
        raise NotCoprime(f"curves share a component: ({f}, {g})")
    if shift is None:
        shift = find_shift(f, g, shift_bound)
    elif not shift_is_valid(f, g, shift):
        raise ShiftExhausted(f"shift {shift} is not valid for ({f}, {g})")
    r = fiber_resultant(f, g, shift)
    if r.is_zero():
        raise NotCoprime(f"vanishing fiber resultant for ({f}, {g})")
    finite = divisor_of_upoly(r, include_infinity=False)

    fu = reverse_y(f)
    gu = reverse_y(g)
    ru = fiber_resultant(fu, gu, find_shift(fu, gu, shift_bound))
    if ru.is_zero():
        raise NotCoprime(f"vanishing fiber resultant in the 1/y chart for ({f}, {g})")
    w_inf = order_at_zero(ru)
    if w_inf:
        finite = finite + Divisor.of(UnaryPlace.infinity("y"), w_inf)
    return finite


def order_at_zero(p: UPoly) -> int:
    """Multiplicity of 0 as a root."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    k = 0
    while p.coeffs[k] == 0:
        k += 1
    return k


def infx_fiber_divisor(g: BPoly) -> Divisor:
    """Intersections of the section x = infinity with the curve g = 0,
    as a divisor over the places of Q(y) including infinity.

    In any shifted chart the section becomes t = 0 and the resultant
    against the transformed curve is its x-leading coefficient, which is
    shift-independent.
    """
    if g.deg_x() < 1:
        raise ValueError("needs positive x-degree")
    lc = g.coeff_of_x(g.deg_x())
    out = divisor_of_upoly(lc, include_infinity=False)
    w_inf = g.deg_y() - lc.degree()
    if w_inf:
        out = out + Divisor.of(UnaryPlace.infinity("y"), w_inf)
    return out


def transpose_divisor(D: Divisor) -> Divisor:
    """Relabel a divisor over Q(y)-places as the mirror-image divisor
    over Q(x)-places (or vice versa)."""
    if any(isinstance(p, BinaryPlace) for p in D.support()):
        raise ValueError("only unary divisors can be relabeled")
    return Divisor.make([(transpose_place(p), c) for p, c in D.coeffs])
