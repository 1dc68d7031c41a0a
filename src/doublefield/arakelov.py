"""Arakelov degree, bracket and residue scalar product on divisors of
Q(x,y), moves within a divisor class, and the self-product explorer.

The scalar product is completed over C with genus-0 Arakelov theory
over Q(y): a divisor of Q(y) gets real coefficients on the finite
fibers (one per rational prime) and on the archimedean fiber, with the
Fubini-Study metric, for which the two basic integrals have exact closed
forms (integral of log(1+|z|^2) is 1, integral of log|z-a| is half
log(1+|a|^2)) and principal Arakelov divisors intersect everything of
disjoint support to zero (the product formula).  That numeric layer is
``oracles``; this module needs only the closed form below, in integers.

The degree against the canonical class is an integer.  Write h =
``oracles._height`` (log|lc| plus half log(1+|root|^2) summed over the
roots, h(inf) = 0) and L = log(1+c^2) for an integer c.  The canonical
representative

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
integers.  The functions named here are those of ``oracles``, and
``verify``'s calibration suite checks deg_Kp against
``oracles.canonical_route``, the numeric intersection with K_c.
"""

from __future__ import annotations

import random

from .divisors import BinaryPlace, Divisor, UnaryPlace, bidegree, degree_K
from .exact import BPoly, UPoly
from .pairing import SIDE_KPRIME, pair


def deg_Kp(D: Divisor) -> int:
    """Arakelov degree of oracles.arakelov_from_divisor(D) against the
    canonical class, for a divisor D of Q(y): exactly -2 deg D (module
    docstring)."""
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
    and counts every other prime m at inf_y with its residue degree b
    over Q(x), where (a, b) = place_bidegree(m), so its degree is the sum
    of w*b over all components w*[m] of A (a y-unary place has b equal to
    its degree), which is dA.  deg_Kp of a divisor of Q(y) is -2 times
    its degree.  The trace of a principal divisor has degree 0, since
    its bidegree is (0, 0) (``div_of_place``), which makes the bracket
    well defined on divisor classes.
    """
    (nA, dA), (nB, dB) = bidegree(A), bidegree(b)
    return -2 * (nB * dA + nA * dB)


def residue_scalar_product(A: Divisor, b: Divisor) -> int:
    """bracket(A, b) minus the Arakelov degree of the norm pairing.

    It is identically 0 on Q(x, y): for A and b of disjoint support with
    (nA, dA) = bidegree(A) and (nB, dB) = bidegree(b), let
    I = nA*dB + dA*nB, their intersection number in Pic(P1 x P1).
    ``bracket`` is -2*I.  pair(A, b, K') is a divisor of Q(y) of degree I:
    each pair of places of bidegrees (a1, b1) and (a2, b2) goes to a
    divisor of degree a1*b2 + a2*b1, the Bezout count of
    ``fiber_divisor``'s proof (``_pair_primes_kp`` for every family of
    places), and the pairing is bilinear.  So deg_Kp of it is -2*I as
    well.  This is the genus-0 case of the paper's scalar product.
    """
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
