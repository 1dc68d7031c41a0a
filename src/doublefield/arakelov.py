"""Genus-0 Arakelov intersection layer over Q(y) and the residue scalar
product on divisors of Q(x,y).

Divisors of Q(y) are completed with real coefficients on the finite
fibers (one per rational prime) and on the archimedean fiber.  The
archimedean metric is Fubini-Study; with that normalization the two
basic integrals have exact closed forms (integral of log(1+|z|^2) is 1,
integral of log|z-a| is half log(1+|a|^2)), and principal Arakelov
divisors intersect everything of disjoint support to zero (the product
formula), which is what makes the residue scalar product well defined
on divisor classes.

The degree against the canonical class is an integer.  Write h = _height
(log|lc| plus half log(1+|root|^2) summed over the roots, h(inf) = 0)
and L = log(1+c^2) for an integer c.  The canonical representative

    K_c = arakelov_from_divisor(-2*inf_y) - 2*principal_arakelov(y - c)

has horizontal part -2(y - c), no vertical part and arch
-2*(1/2) + 2*(L/2) = L - 1.  For a place q other than y - c,

    _hh(q, y - c) = log|Res(q, y - c)| + sum over roots a of g_fs(a, c)
                  = h(q) + deg(q)*L/2,

since |Res| = |lc(q)| * prod |a - c| cancels the -log|a - c| of the
Green's function (for q = inf_y, _hh = h(y - c) = L/2 directly).  So for
an Arakelov divisor D with horizontal part sum c_q q of degree d,
vertical coefficients v_p and arch A,

    intersect(D, K_c) = -2*sum c_q h(q) - d*L + d*(L - 1) - 2*(sum v_p log p + A)
                      = -2*sum c_q h(q) - d - 2*(sum v_p log p + A),

and L drops out.  arakelov_from_divisor sets v = 0 and
A = sum c_q (deg(q)/2 - h(q)), so the heights cancel as well and, for a
divisor E of Q(y) of degree d,

    intersect(arakelov_from_divisor(E), K_c) = -2*d,

which is what deg_Kp(E) returns.  That is d times 2g - 2 = -2, with every
archimedean contribution cancelled by the Fubini-Study normalization
(Faltings, "Calculus on arithmetic surfaces", Ann. Math. 119, 1984;
Hriljac, "Heights and Arakelov's intersection theory", Amer. J. Math.
107, 1985).  So deg_Kp, bracket and residue_scalar_product compute in
integers; the numeric route through K_c remains as an oracle in the
calibration suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import mpmath

from .divisors import (
    BinaryPlace,
    Divisor,
    UnaryPlace,
    bidegree,
    degree_K,
    divisor_of_upoly,
)
from .errors import InputError, NotCoprime
from .exact import (
    DEFAULT_PREC,
    BPoly,
    UPoly,
    complex_roots,
    factor_int,
    memo,
    mpf_of,
    primitive_int_upoly,
    resultant_u,
)
from .pairing import SIDE_KPRIME, pair

# largest content, in bits of its numerator or denominator, that
# principal_arakelov factors into vertical fibers
MAX_UNIT_BITS = 64


# radius of the disc about each root that complex_roots certifies
_ROOT_EPS = mpmath.mpf(2) ** -(DEFAULT_PREC // 2)


def fs_point_integral(c):
    """Closed form of the Fubini-Study average of log|z - c|."""
    with mpmath.workprec(DEFAULT_PREC):
        c = mpmath.mpc(c)
        return mpmath.mpf(0.5) * mpmath.log(1 + abs(c) ** 2)


def fs_kappa_closed_form():
    """Closed form of the Fubini-Study average of log(1 + |z|^2)."""
    return mpmath.mpf(1)


def fs_point_integral_quadrature(c):
    """Independent evaluation of the same average by radial reduction
    (Jensen's formula on circles) and adaptive quadrature."""
    with mpmath.workprec(DEFAULT_PREC):
        a = abs(mpmath.mpc(c))

        def integrand(r):
            return 2 * r * mpmath.log(max(r, a)) / (1 + r**2) ** 2

        return mpmath.quad(integrand, [0, a, mpmath.inf] if a > 0 else [0, 1, mpmath.inf])


def fs_kappa_quadrature():
    with mpmath.workprec(DEFAULT_PREC):
        return mpmath.quad(lambda u: mpmath.log(1 + u) / (1 + u) ** 2, [0, mpmath.inf])


def g_fs(z, w):
    """Fubini-Study Green's function on P1 at two distinct finite points."""
    with mpmath.workprec(DEFAULT_PREC):
        z, w = mpmath.mpc(z), mpmath.mpc(w)
        return (
            -mpmath.log(abs(z - w))
            + mpmath.mpf(0.5) * mpmath.log(1 + abs(z) ** 2)
            + mpmath.mpf(0.5) * mpmath.log(1 + abs(w) ** 2)
        )


@memo
def _height(q: UPoly):
    """log|lc| + sum over roots of half log(1+|root|^2), for a primitive
    integer polynomial: the archimedean content of its zero cycle."""
    with mpmath.workprec(DEFAULT_PREC):
        total = mpmath.log(abs(mpf_of(q.lc())))
        for a in complex_roots(q, eps=_ROOT_EPS):
            total += mpmath.mpf(0.5) * mpmath.log(1 + abs(a) ** 2)
        return total


@memo
def arch_lambda(q: UnaryPlace):
    """Archimedean fiber coefficient attached to a place of Q(y): minus
    the Fubini-Study average of the log-norm of its defining section."""
    with mpmath.workprec(DEFAULT_PREC):
        if q.is_infinity():
            return mpmath.mpf(0.5)
        return -_height(q.poly) + mpmath.mpf(q.poly.degree()) / 2


@dataclass(frozen=True, slots=True)
class ArakelovDivisorKp:
    """Horizontal divisor of Q(y) plus real vertical coefficients at
    finitely many rational primes and one archimedean coefficient."""

    horizontal: Divisor
    vertical: tuple[tuple[int, object], ...]  # (prime, real coeff), sorted
    arch: object  # real

    @staticmethod
    def make(horizontal: Divisor, vertical: dict | None = None, arch=0) -> "ArakelovDivisorKp":
        vert = tuple(
            sorted((p, v) for p, v in (vertical or {}).items() if v != 0)
        )
        return ArakelovDivisorKp(horizontal, vert, mpmath.mpf(arch) * 1)

    def vertical_dict(self) -> dict:
        return dict(self.vertical)

    def __add__(self, other: "ArakelovDivisorKp") -> "ArakelovDivisorKp":
        v = self.vertical_dict()
        for p, c in other.vertical:
            v[p] = v.get(p, 0) + c
        return ArakelovDivisorKp.make(
            self.horizontal + other.horizontal, v, self.arch + other.arch
        )

    def __neg__(self) -> "ArakelovDivisorKp":
        return ArakelovDivisorKp.make(
            -self.horizontal, {p: -c for p, c in self.vertical}, -self.arch
        )

    def __sub__(self, other: "ArakelovDivisorKp") -> "ArakelovDivisorKp":
        return self + (-other)

    def scale(self, k) -> "ArakelovDivisorKp":
        return ArakelovDivisorKp.make(
            self.horizontal.scale(int(k)),
            {p: c * k for p, c in self.vertical},
            self.arch * k,
        )


def arakelov_from_divisor(D: Divisor) -> ArakelovDivisorKp:
    """Complete a divisor of Q(y) with its archimedean fiber coefficient
    and empty vertical part."""
    with mpmath.workprec(DEFAULT_PREC):
        arch = mpmath.mpf(0)
        for q, c in D.coeffs:
            arch += c * arch_lambda(q)
        return ArakelovDivisorKp.make(D, None, arch)


def principal_arakelov(num: UPoly) -> ArakelovDivisorKp:
    """Arakelov divisor of a nonzero polynomial num of Q[y]: horizontal
    function-field divisor, Gauss valuations of its content on the
    finite fibers, and minus the archimedean average of its log.  The
    divisor of a quotient is the difference of two.  InputError if the
    numerator or denominator of the content has more than MAX_UNIT_BITS
    bits."""
    if num.is_zero():
        raise ValueError("zero element")
    unit, pn = primitive_int_upoly(num)
    vertical: dict[int, int] = {}
    for p, e in _prime_factorization(unit.numerator):
        vertical[p] = vertical.get(p, 0) + e
    for p, e in _prime_factorization(unit.denominator):
        vertical[p] = vertical.get(p, 0) - e
    with mpmath.workprec(DEFAULT_PREC):
        arch = -mpmath.log(abs(mpf_of(unit))) - _height(pn)
    return ArakelovDivisorKp.make(divisor_of_upoly(pn), vertical, arch)


def _prime_factorization(n: int) -> tuple[tuple[int, int], ...]:
    if abs(n).bit_length() > MAX_UNIT_BITS:
        raise InputError(f"unit of {abs(n).bit_length()} bits exceeds bound {MAX_UNIT_BITS}")
    return factor_int(n)


def intersect(D: ArakelovDivisorKp, E: ArakelovDivisorKp):
    """Arakelov intersection number; requires disjoint horizontal
    supports."""
    if not D.horizontal.disjoint_from(E.horizontal):
        raise NotCoprime("horizontal supports are not disjoint")
    with mpmath.workprec(DEFAULT_PREC):
        total = mpmath.mpf(0)
        for q1, c1 in D.horizontal.coeffs:
            for q2, c2 in E.horizontal.coeffs:
                total += c1 * c2 * _hh(q1, q2)
        dD = degree_K(D.horizontal)
        dE = degree_K(E.horizontal)
        for p, v in E.vertical:
            total += dD * v * mpmath.log(p)
        for p, v in D.vertical:
            total += dE * v * mpmath.log(p)
        total += dD * E.arch + dE * D.arch
        return total


@memo
def _hh(q1: UnaryPlace, q2: UnaryPlace):
    """Intersection of two distinct horizontal prime divisors: finite
    part log|Res|, archimedean part the Green's function summed over
    root pairs (the infinite place entering as the limit point)."""
    if q1.is_infinity() and q2.is_infinity():
        raise NotCoprime("both places at infinity")
    if q1.is_infinity():
        return _height(q2.poly)
    if q2.is_infinity():
        return _height(q1.poly)
    r = resultant_u(q1.poly, q2.poly)
    if r == 0:
        raise NotCoprime("places coincide")
    with mpmath.workprec(DEFAULT_PREC):
        total = mpmath.log(abs(mpf_of(r)))
        roots1 = complex_roots(q1.poly, eps=_ROOT_EPS)
        roots2 = complex_roots(q2.poly, eps=_ROOT_EPS)
        for a in roots1:
            for b in roots2:
                total += g_fs(a, b)
        return total


def deg_Kp(D: Divisor) -> int:
    """Arakelov degree of arakelov_from_divisor(D) against the canonical
    class, for a divisor D of Q(y): exactly -2 deg D (module docstring)."""
    if any(not (isinstance(q, UnaryPlace) and q.var == "y") for q, _ in D.coeffs):
        raise ValueError("deg_Kp expects a divisor of Q(y)")
    return -2 * degree_K(D)


def bracket(A: Divisor, b: Divisor) -> int:
    """N(b) deg_Kp(A traced to Q(y)) + N(A) deg_Kp(b traced to Q(y)),
    with N the residue degree over Q(y) extended by linearity: with
    (nA, dA) = bidegree(A) and (nB, dB) = bidegree(b), that is
    -2*(nB*dA + nA*dB), minus twice the intersection number of the two
    classes in Pic(P1 x P1) = Z^2 (Hartshorne, Algebraic Geometry, II
    Ex. 6.6.1; Fulton, Algebraic Curves, 5.1).

    Proof.  A traced to Q(y) keeps its y-unary components as they stand
    and counts every other prime m at inf_y with its residue degree
    degree_over_K(m) over Q(x), so its degree is the sum of
    w*degree_over_K(m) over all components w*[m] of A (a y-unary place
    has degree_over_K equal to its degree), which is dA.  deg_Kp of a
    divisor of Q(y) is -2 times its degree.  The trace of a principal
    divisor has degree 0, since its bidegree is (0, 0) (``div_of_place``),
    which makes the bracket well defined on divisor classes.
    """
    (nA, dA), (nB, dB) = bidegree(A), bidegree(b)
    return -2 * (nB * dA + nA * dB)


def residue_scalar_product(A: Divisor, b: Divisor) -> int:
    """bracket(A, b) minus the Arakelov degree of the norm pairing."""
    paired = pair(A, b, SIDE_KPRIME)
    return bracket(A, b) - deg_Kp(paired)


# ---------------------------------------------------------------------------
# moving divisors within their class


def principal_move(A: Divisor, fresh: int) -> Divisor:
    """An equivalent divisor A + div(h) with support disjoint from A's,
    built from a deterministic schedule of moving elements.

    The element h inverts every finite component of A; by div_of_place
    that leaves a*inf_x + b*inf_y with (a, b) = bidegree(A).  An infinite
    place in A's support is then cleared with a power of the fresh linear
    factor x - t or y - t, t >= fresh the first value whose place is off
    A's support, which trades w*inf_x for w*[x - t].  So every place of
    the result is off A's support.
    """
    support = set(A.support())
    comps = {}
    for var, w in zip(("x", "y"), bidegree(A)):
        place = UnaryPlace.infinity(var)
        if w and place in support:
            t = fresh
            while (place := UnaryPlace.finite(UPoly.make(var, [-t, 1]))) in support:
                t += 1
        comps[place] = w
    return Divisor.make(comps)


# ---------------------------------------------------------------------------
# explorer for self-products


def _prime_pool(max_deg: int) -> list:
    """Deterministic pool of prime divisors of Q(x,y) with degrees
    bounded by max_deg in each variable; ValueError below 1."""
    if max_deg < 1:
        raise ValueError("max_deg must be at least 1")
    pool = [UnaryPlace.infinity("x"), UnaryPlace.infinity("y")]
    for var in ("x", "y"):
        for c in (0, 1, -1, 2):
            pool.append(UnaryPlace.finite(UPoly.make(var, [-c, 1])))
        if max_deg >= 2:
            pool.append(UnaryPlace.finite(UPoly.make(var, [-2, 0, 1])))
            pool.append(UnaryPlace.finite(UPoly.make(var, [1, 0, 1])))
    X, Y = BPoly.gen("x"), BPoly.gen("y")
    candidates = [
        X - Y,
        X + Y,
        X - Y - BPoly.const(1),
        X + Y - BPoly.const(2),
        2 * X - Y - BPoly.const(1),
        X * Y - BPoly.const(1),
        X * Y - BPoly.const(2),
        X * Y + X - BPoly.const(1),
    ]
    if max_deg >= 2:
        candidates += [
            X - Y**2,
            X**2 - Y,
            X**2 - Y - BPoly.const(1),
            X + Y**2 - BPoly.const(3),
            X**2 + Y**2 - BPoly.const(2),
            X**2 - Y**2 - BPoly.const(1),
            X**2 * Y - BPoly.const(1),
            X * Y**2 - X - BPoly.const(1),
        ]
    pool += [BinaryPlace.make(f) for f in candidates if f.deg_x() <= max_deg and f.deg_y() <= max_deg]
    return pool


def explore_self_products(trials: int, max_deg: int = 2, seed: int = 0) -> dict:
    """Deterministically sample divisors, move each off its own support
    by two independent principal moves, and report the self residue
    scalar products and the residual between the two moves."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(seed)
    pool = _prime_pool(max_deg)
    records = []
    minimum = None
    negatives = []
    for t in range(trials):
        k = rng.randint(1, 3)
        comps: dict = {}
        for _ in range(k):
            m = pool[rng.randrange(len(pool))]
            comps[m] = comps.get(m, 0) + rng.choice([-2, -1, 1, 2])
        A = Divisor.make(comps)
        if A.is_zero():
            A = Divisor.of(pool[rng.randrange(len(pool))])
        a1 = principal_move(A, fresh=17 + t)
        a2 = second_move(A, principal_move(A, fresh=29 + t), 41 + t)
        v1 = residue_scalar_product(a1, A)
        v2 = residue_scalar_product(a2, A)
        value = float(v1)
        records.append(
            {
                "trial": t,
                "divisor": str(A),
                "value": value,
                "move_residual": float(abs(v1 - v2)),
            }
        )
        if minimum is None or value < minimum:
            minimum = value
        if v1 < 0:
            negatives.append(t)
    return {
        "trials": trials,
        "max_deg": max_deg,
        "seed": seed,
        "records": records,
        "minimum": minimum,
        "negative_trials": negatives,
    }


def second_move(A: Divisor, moved: Divisor, fresh: int) -> Divisor:
    """A second representative, distinct from the first move, obtained
    by adding div((y - t)/(y - t - 1)) with t >= fresh chosen so that
    neither place meets the support of A or of the moved divisor.  The
    result is disjoint from A because moved is: ValueError otherwise."""
    if not moved.disjoint_from(A):
        raise ValueError(f"moved divisor {moved} meets the support of {A}")
    support = set(A.support()) | set(moved.support())
    t1 = fresh
    while True:
        lin1 = UnaryPlace.finite(UPoly.make("y", [-t1, 1]))
        lin2 = UnaryPlace.finite(UPoly.make("y", [-(t1 + 1), 1]))
        if lin1 not in support and lin2 not in support:
            break
        t1 += 1
    return moved + Divisor.make({lin1: 1, lin2: -1})
