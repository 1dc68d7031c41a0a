"""Oracles of the verify suites: certified complex roots, the numeric
genus-0 Arakelov layer over Q(y), and the different-divisor closed form.

The product path (``pair``, the residue routes, ``deg_Kp``, ``bracket``,
``residue_scalar_product``, the moves and the explorer) computes in
integers and never calls this module.  The suites check it against what
is here: criterion 8 the fiber rule against numeric intersections at
certified resultant roots, criterion 9 ``deg_Kp`` against the
Fubini-Study intersection with the canonical representative K_c (the
derivation is in ``arakelov``'s docstring), and criteria 5 to 7 the
pairing of degree-one primes against ``different_divisor`` and
``RationalIsom``.  ``suites`` is the one importer of this module, and
this is the one module of the package that imports mpmath.  Polynomial
algebra goes through ``exact``, and the four memos here are
``exact.memo`` caches, emptied by ``clear_caches()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath.libmp import NoConvergence

from .divisors import BinaryPlace, Divisor, UnaryPlace, degree_K, degree_one_coeffs, divisor_of_upoly
from .errors import EqualIsoms, NotCoprime, PrecisionFailure
from .exact import (
    BPoly,
    Scalar,
    UPoly,
    cancel_u,
    factor_q,
    memo,
    primitive_int_upoly,
    resultant_x,
)

# working precision, in bits, of the numeric (mpmath) layer
DEFAULT_PREC = 80


# ---------------------------------------------------------------------------
# complex roots: certified, and the numeric intersection test of criterion 8


def mpf_of(c: Scalar) -> mpmath.mpf:
    """The exact scalar c as an ``mpmath.mpf``, rounded at the working
    precision: the one such conversion of the package."""
    return mpmath.mpf(c.numerator) / c.denominator


@memo
def complex_roots(f: UPoly, eps=1e-12) -> tuple[mpmath.mpc, ...]:
    """All deg(f) complex roots with multiplicity.

    The roots are those of the irreducible factors of f (``factor_q``),
    each repeated with its multiplicity; such a factor is square-free.
    Each returned z satisfies (|f(z)|/|lc|)**(1/deg) < eps for its
    factor, so the disc of radius eps about z holds a root, and the discs
    about the roots of one factor are pairwise disjoint, so each holds a
    different root.  Precision is escalated until both hold, from
    DEFAULT_PREC bits up to 16 times that; PrecisionFailure is raised
    when they cannot be reached.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if f.degree() == 0:
        return ()
    roots: list[mpmath.mpc] = []
    for sq, mult in factor_q(f)[1]:
        deg = sq.degree()
        found = None
        for wp in (DEFAULT_PREC * k for k in (1, 2, 4, 8, 16)):
            with mpmath.workprec(wp):
                cs = [mpf_of(c) for c in reversed(sq.coeffs)]
                try:
                    rs = mpmath.polyroots(cs, maxsteps=400, extraprec=wp)
                except NoConvergence:
                    continue
                if _roots_certified(sq, rs, eps):
                    found = [mpmath.mpc(r) for r in rs]
                    break
        if found is None:
            raise PrecisionFailure(
                f"could not certify roots of degree-{deg} factor at prec={DEFAULT_PREC}"
            )
        roots.extend(found * mult)
    return tuple(roots)


def _roots_certified(sq: UPoly, rs, eps) -> bool:
    deg = sq.degree()
    lc = abs(mpf_of(sq.lc()))
    zs = [mpmath.mpc(z) for z in rs]
    for z in zs:
        val = _eval_mp(sq, z)
        if (abs(val) / lc) ** (mpmath.mpf(1) / deg) >= eps:
            return False
    n = len(zs)
    return all(abs(zs[i] - zs[j]) > 2 * eps for i in range(n) for j in range(i + 1, n))


def _eval_mp(p: UPoly, z):
    acc = mpmath.mpc(0)
    for c in reversed(p.coeffs):
        acc = acc * z + mpf_of(c)
    return acc


def numeric_common_root(f: BPoly, g: BPoly, y0) -> bool:
    def x_poly(h: BPoly):
        coeffs = [mpmath.mpc(0)] * (h.deg_x() + 1)
        for (i, j), c in h.terms:
            coeffs[i] += mpf_of(c) * y0**j
        while len(coeffs) > 1 and abs(coeffs[-1]) < mpmath.mpf(2) ** (-DEFAULT_PREC // 2):
            coeffs.pop()
        return list(reversed(coeffs))

    with mpmath.workprec(DEFAULT_PREC):
        cf, cg = x_poly(f), x_poly(g)
        if len(cf) <= 1 or len(cg) <= 1:
            return True  # fiber degenerates; escapes handled at infinity
        rf = mpmath.polyroots(cf, maxsteps=200, extraprec=DEFAULT_PREC)
        rg = mpmath.polyroots(cg, maxsteps=200, extraprec=DEFAULT_PREC)
        return min(abs(a - b) for a in rf for b in rg) < mpmath.mpf(10) ** (-6)


# ---------------------------------------------------------------------------
# Fubini-Study intersection on the arithmetic surface over Q(y)


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
    """Horizontal divisor of Q(y) plus a vertical part and one real
    archimedean coefficient.

    Every finite fiber F_p of P1 over Z is irreducible, so a vertical
    part sum v_p F_p meets a horizontal divisor of degree d in
    d * sum v_p log p = d * log N, and another vertical part in 0.  It
    is stored as that one positive rational N = prod p^v_p."""

    horizontal: Divisor
    vertical: Fraction  # N = prod p^v_p
    arch: object  # real

    @staticmethod
    def make(horizontal: Divisor, vertical=1, arch=0) -> "ArakelovDivisorKp":
        return ArakelovDivisorKp(horizontal, Fraction(vertical), mpmath.mpf(arch) * 1)

    def __add__(self, other: "ArakelovDivisorKp") -> "ArakelovDivisorKp":
        return ArakelovDivisorKp.make(
            self.horizontal + other.horizontal,
            self.vertical * other.vertical,
            self.arch + other.arch,
        )

    def __neg__(self) -> "ArakelovDivisorKp":
        return ArakelovDivisorKp.make(-self.horizontal, 1 / self.vertical, -self.arch)

    def __sub__(self, other: "ArakelovDivisorKp") -> "ArakelovDivisorKp":
        return self + (-other)

    def scale(self, k: int) -> "ArakelovDivisorKp":
        return ArakelovDivisorKp.make(self.horizontal.scale(k), self.vertical**k, self.arch * k)


def arakelov_from_divisor(D: Divisor) -> ArakelovDivisorKp:
    """Complete a divisor of Q(y) with its archimedean fiber coefficient
    and empty vertical part."""
    with mpmath.workprec(DEFAULT_PREC):
        arch = mpmath.mpf(0)
        for q, c in D.coeffs:
            arch += c * arch_lambda(q)
        return ArakelovDivisorKp.make(D, arch=arch)


def principal_arakelov(num: UPoly) -> ArakelovDivisorKp:
    """Arakelov divisor of a nonzero polynomial num of Q[y]: horizontal
    function-field divisor, the absolute value of its content as the
    vertical part (its Gauss valuations on the finite fibers), and minus
    the archimedean average of its log.  The divisor of a quotient is
    the difference of two."""
    if num.is_zero():
        raise ValueError("zero element")
    unit, pn = primitive_int_upoly(num)
    with mpmath.workprec(DEFAULT_PREC):
        arch = -mpmath.log(abs(mpf_of(unit))) - _height(pn)
    return ArakelovDivisorKp.make(divisor_of_upoly(pn), abs(unit), arch)


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
        total += dD * mpmath.log(mpf_of(E.vertical)) + dE * mpmath.log(mpf_of(D.vertical))
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
    # the place polynomials rewritten in x have y-degree 0, so their
    # resultant in x is a constant, up to a sign that log|Res| ignores
    r = resultant_x(*(BPoly.from_upoly(q.poly.with_var("x")) for q in (q1, q2)))
    if r.is_zero():
        raise NotCoprime("places coincide")
    with mpmath.workprec(DEFAULT_PREC):
        total = mpmath.log(abs(mpf_of(r.lc())))
        roots1 = complex_roots(q1.poly, eps=_ROOT_EPS)
        roots2 = complex_roots(q2.poly, eps=_ROOT_EPS)
        for a in roots1:
            for b in roots2:
                total += g_fs(a, b)
        return total


def canonical_route(D: ArakelovDivisorKp, c: int):
    """intersect(D, K_c) for the canonical representative
    K_c = arakelov_from_divisor(-2*inf_y) - 2*principal_arakelov(y - c):
    the numeric route that deg_Kp replaces by its closed form."""
    base = arakelov_from_divisor(Divisor.of(UnaryPlace.infinity("y"), -2))
    K_c = base - principal_arakelov(UPoly.make("y", [-c, 1])).scale(2)
    return intersect(D, K_c)


# ---------------------------------------------------------------------------
# rational embeddings of Q(x) into Q(y) and their different divisor


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
    b1, a1 = mu.num, mu.den
    b2, a2 = nu.num, nu.den
    d = b1 * a2 - b2 * a1
    if d.is_zero():
        raise EqualIsoms("the two embeddings coincide")
    return divisor_of_upoly(d, max(a1.degree(), b1.degree()) + max(a2.degree(), b2.degree()))
