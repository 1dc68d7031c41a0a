"""Exact rational and polynomial arithmetic.

Scalars are ``fractions.Fraction``; univariate polynomials are dense
coefficient tuples tagged with their variable, bivariate polynomials are
sparse exponent maps.  Heavy algebra (factorization over Q, gcds,
resultants, square-free decomposition) goes to sympy's dense ``dup`` /
``dmp`` layer through the one bridge below, which converts to and from
dense lists over ZZ or QQ; everything stays exact.

Caching.  There is one memo policy for the whole package: ``memo`` wraps
a leaf function in ``functools.lru_cache(maxsize=MEMO_SIZE)``, keyed on
the full value of its arguments (polynomials and places are frozen and
compare by value), and registers the cache so that ``clear_caches()``
empties every one of them.  Here ``factor_q``, ``factor_b``, ``y_content``
(key: the polynomial) and ``complex_roots`` (key: polynomial, eps and
prec) are memoized; ``arakelov`` memoizes its
per-place heights, ``arch_lambda`` and the pairwise term ``_hh`` (arguments in order), and
``divisors`` hands out one shared place object per input through
``UnaryPlace.finite`` and ``UnaryPlace.infinity``.  A returned list is cached as a tuple and handed
out as a fresh list, so no caller can alter a cached value.  No cache
sits on a checked entry point: ``pair``, the residue routes,
``correspondence`` and ``intersect`` recompute on every call, so the
symmetry and route agreement checks still compare independent
computations.  Nothing configures the caches; the bound of 128 entries
each keeps the memory they hold small.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence, Union

import mpmath
from mpmath.libmp import NoConvergence
from sympy.polys.domains import QQ, ZZ
from sympy.polys.euclidtools import dmp_gcd, dmp_resultant, dup_resultant
from sympy.polys.factortools import dmp_factor_list, dup_factor_list
from sympy.polys.sqfreetools import dup_sqf_list

from .errors import DegreeBound, PrecisionFailure

DEFAULT_FACTOR_DEGREE_BOUND = 24

# default working precision, in bits, of the numeric (mpmath) layer
DEFAULT_PREC = 80

# entries kept by each memoized function (see the module docstring)
MEMO_SIZE = 128

_MEMOS: list = []


class _Listed(tuple):
    """A list result, kept in a memo as a tuple."""

    __slots__ = ()


def _freeze(v):
    if isinstance(v, list):
        return _Listed(v)
    if type(v) is tuple and v and isinstance(v[-1], list):
        return v[:-1] + (_Listed(v[-1]),)
    return v


def _thaw(v):
    if type(v) is _Listed:
        return list(v)
    if type(v) is tuple and v and type(v[-1]) is _Listed:
        return v[:-1] + (list(v[-1]),)
    return v


def memo(fn):
    """Memoize ``fn`` under the package's one caching policy: an LRU cache
    of MEMO_SIZE entries keyed on the arguments as passed, emptied by
    ``clear_caches()``.  A returned list, alone or as the last member of
    a returned tuple, is cached as a tuple and handed out as a new list.
    ``__wrapped__`` is the uncached function."""

    @functools.lru_cache(maxsize=MEMO_SIZE)
    def cached(*args, **kwargs):
        return _freeze(fn(*args, **kwargs))

    _MEMOS.append(cached)

    @functools.wraps(fn)
    def call(*args, **kwargs):
        return _thaw(cached(*args, **kwargs))

    return call


def clear_caches() -> None:
    """Empty every memo of the package."""
    for cached in _MEMOS:
        cached.cache_clear()


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"not an exact rational: {v!r}")


@dataclass(frozen=True, slots=True)
class UPoly:
    """Dense univariate polynomial over Q in the variable ``var``.

    ``coeffs[i]`` is the coefficient of ``var**i``; the tuple carries no
    trailing zeros, so the zero polynomial has an empty tuple.
    """

    var: str
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def make(var: str, coeffs: Iterable) -> "UPoly":
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return UPoly(var, tuple(cs))

    @staticmethod
    def const(var: str, c) -> "UPoly":
        return UPoly.make(var, [c])

    @staticmethod
    def zero(var: str) -> "UPoly":
        return UPoly(var, ())

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def lc(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __add__(self, other: "UPoly") -> "UPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly.make(
            self.var,
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ],
        )

    def __neg__(self) -> "UPoly":
        return UPoly(self.var, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UPoly") -> "UPoly":
        return self + (-other)

    def __mul__(self, other: Union["UPoly", int, Fraction]) -> "UPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        if self.is_zero() or other.is_zero():
            return UPoly.zero(self.var)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UPoly.make(self.var, out)

    __rmul__ = __mul__

    def scale(self, c) -> "UPoly":
        c = _frac(c)
        if c == 0:
            return UPoly.zero(self.var)
        return UPoly(self.var, tuple(a * c for a in self.coeffs))

    def __pow__(self, n: int) -> "UPoly":
        return _power(self, n, UPoly.const(self.var, 1))

    def divmod(self, other: "UPoly") -> tuple["UPoly", "UPoly"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        rem = list(self.coeffs)
        dlc = other.lc()
        d = other.degree()
        while len(rem) - 1 >= d and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            f = rem[-1] / dlc
            q[k] = f
            for i, b in enumerate(other.coeffs):
                rem[k + i] -= f * b
            rem.pop()
        return UPoly.make(self.var, q), UPoly.make(self.var, rem)

    def __mod__(self, other: "UPoly") -> "UPoly":
        return self.divmod(other)[1]

    def exact_div(self, other: "UPoly") -> "UPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("not an exact division")
        return q

    def monic(self) -> "UPoly":
        if self.is_zero():
            return self
        return self.scale(1 / self.lc())

    def eval(self, v) -> Fraction:
        v = _frac(v)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def with_var(self, var: str) -> "UPoly":
        return UPoly(var, self.coeffs)

    def _check(self, other: "UPoly") -> None:
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def __str__(self) -> str:
        return render_upoly(self)


@dataclass(frozen=True, slots=True)
class BPoly:
    """Sparse bivariate polynomial over Q in x and y.

    ``terms`` maps nothing to zero: it is a sorted tuple of
    ``((i, j), coeff)`` with ``coeff`` nonzero, where ``i`` is the
    x-exponent and ``j`` the y-exponent.
    """

    terms: tuple[tuple[tuple[int, int], Fraction], ...]

    @staticmethod
    def make(d: dict[tuple[int, int], Fraction]) -> "BPoly":
        items = sorted((k, _frac(v)) for k, v in d.items() if v != 0)
        return BPoly(tuple(items))

    @staticmethod
    def const(c) -> "BPoly":
        return BPoly.make({(0, 0): _frac(c)})

    @staticmethod
    def gen(var: str) -> "BPoly":
        return BPoly.make({(1, 0) if var == "x" else (0, 1): Fraction(1)})

    @staticmethod
    def zero() -> "BPoly":
        return BPoly(())

    @staticmethod
    def from_upoly(p: UPoly) -> "BPoly":
        if p.var == "x":
            return BPoly.make({(i, 0): c for i, c in enumerate(p.coeffs)})
        return BPoly.make({(0, j): c for j, c in enumerate(p.coeffs)})

    def as_dict(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def deg_x(self) -> int:
        return max((k[0] for k, _ in self.terms), default=-1)

    def deg_y(self) -> int:
        return max((k[1] for k, _ in self.terms), default=-1)

    def __add__(self, other: "BPoly") -> "BPoly":
        d = self.as_dict()
        for k, v in other.terms:
            d[k] = d.get(k, Fraction(0)) + v
        return BPoly.make(d)

    def __neg__(self) -> "BPoly":
        return BPoly(tuple((k, -v) for k, v in self.terms))

    def __sub__(self, other: "BPoly") -> "BPoly":
        return self + (-other)

    def __mul__(self, other: Union["BPoly", int, Fraction]) -> "BPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        d: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), a in self.terms:
            for (i2, j2), b in other.terms:
                k = (i1 + i2, j1 + j2)
                d[k] = d.get(k, Fraction(0)) + a * b
        return BPoly.make(d)

    __rmul__ = __mul__

    def scale(self, c) -> "BPoly":
        c = _frac(c)
        if c == 0:
            return BPoly.zero()
        return BPoly(tuple((k, v * c) for k, v in self.terms))

    def __pow__(self, n: int) -> "BPoly":
        return _power(self, n, BPoly.const(1))

    def transpose(self) -> "BPoly":
        """Swap the roles of x and y."""
        return BPoly(tuple(sorted(((j, i), v) for (i, j), v in self.terms)))

    def coeff_of_x(self, i: int) -> UPoly:
        """Coefficient of x**i, as a polynomial in y."""
        d: dict[int, Fraction] = {}
        for (a, b), v in self.terms:
            if a == i:
                d[b] = v
        n = max(d, default=-1) + 1
        return UPoly.make("y", [d.get(j, 0) for j in range(n)])

    def x_coeffs(self) -> list[UPoly]:
        """All coefficients of powers of x, index = x-exponent."""
        return [self.coeff_of_x(i) for i in range(self.deg_x() + 1)]

    def eval_x(self, c) -> UPoly:
        """Substitute x = c; result is a polynomial in y."""
        c = _frac(c)
        acc = UPoly.zero("y")
        for p in reversed(self.x_coeffs()):
            acc = acc * c + p
        return acc

    def eval_y(self, c) -> UPoly:
        return self.transpose().eval_x(c).with_var("x")

    def eval_xy(self, a, b) -> Fraction:
        return self.eval_x(a).eval(b)

    def as_upoly(self) -> UPoly:
        """Convert when at most one variable occurs (constants become 'x')."""
        if self.deg_x() > 0 and self.deg_y() > 0:
            raise ValueError("genuinely bivariate")
        if self.deg_y() > 0:
            d = {j: v for (_, j), v in self.terms}
            return UPoly.make("y", [d.get(j, 0) for j in range(self.deg_y() + 1)])
        d = {i: v for (i, _), v in self.terms}
        return UPoly.make("x", [d.get(i, 0) for i in range(max(self.deg_x(), 0) + 1)])

    def __str__(self) -> str:
        return render_bpoly(self)


def _power(base, n: int, one):
    """base**n by repeated squaring, starting from ``one``."""
    if n < 0:
        raise ValueError("negative exponent")
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:  # no square beyond the top bit
            base = base * base
    return out


# ---------------------------------------------------------------------------
# the bridge to sympy's dense polynomial layer
#
# A UPoly becomes a ``dup`` list and a BPoly a level-1 ``dmp`` list with x
# as the main variable: one ``dup`` in y per power of x.  Both list the
# highest degree first.  Coefficients live in ZZ when all of them are
# integral (places are primitive integer forms) and in QQ otherwise; they
# are read back through int() of numerator and denominator, which holds
# under every sympy ground type.


def _domain(*coeff_seqs: Iterable[Fraction]):
    if all(c.denominator == 1 for cs in coeff_seqs for c in cs):
        return ZZ
    return QQ


def _u_domain(*ps: UPoly):
    return _domain(*(p.coeffs for p in ps))


def _b_domain(*ps: BPoly):
    return _domain(*((v for _, v in p.terms) for p in ps))


def _to_K(c: Fraction, K):
    return K(c.numerator) if K.is_ZZ else K(c.numerator, c.denominator)


def _from_K(c, K) -> Fraction:
    if K.is_ZZ:
        return Fraction(int(c))
    return Fraction(int(K.numer(c)), int(K.denom(c)))


def _to_dup(p: UPoly, K) -> list:
    return [_to_K(c, K) for c in reversed(p.coeffs)]


def _from_dup(f: list, var: str, K) -> UPoly:
    return UPoly.make(var, [_from_K(c, K) for c in reversed(f)])


def _to_dmp(p: BPoly, K) -> list:
    rows = [{} for _ in range(p.deg_x() + 1)]
    for (i, j), v in p.terms:
        rows[i][j] = v
    out = []
    for row in reversed(rows):
        n = max(row, default=-1)
        out.append([_to_K(row.get(j, Fraction(0)), K) for j in range(n, -1, -1)])
    return out or [[]]


def _from_dmp(f: list, K) -> BPoly:
    d = {}
    for r, row in enumerate(f):
        i = len(f) - 1 - r
        for k, c in enumerate(row):
            if c:
                d[(i, len(row) - 1 - k)] = _from_K(c, K)
    return BPoly.make(d)


# ---------------------------------------------------------------------------
# canonical primitive-integer forms


def _primitive_unit(coeffs: Sequence[Fraction], lead: Fraction) -> Fraction:
    """The rational u with the sign of ``lead`` for which the c / u are
    coprime integers."""
    den = lcm(*(c.denominator for c in coeffs))
    g = gcd(*((c * den).numerator for c in coeffs))
    return Fraction(g if lead > 0 else -g, den)


def primitive_int_upoly(p: UPoly) -> tuple[Fraction, UPoly]:
    """Return (unit, q) with q integer, content-free, positive leading
    coefficient, and p = unit * q."""
    if p.is_zero():
        raise ValueError("zero polynomial has no primitive form")
    unit = _primitive_unit(p.coeffs, p.lc())
    return unit, UPoly.make(p.var, [c / unit for c in p.coeffs])


def primitive_int_bpoly(p: BPoly) -> tuple[Fraction, BPoly]:
    """Same normalization for bivariate polynomials; the sign is fixed by
    the graded-lex leading term (total degree, then x-exponent)."""
    if p.is_zero():
        raise ValueError("zero polynomial has no primitive form")
    _, lead = max(p.terms, key=lambda t: (t[0][0] + t[0][1], t[0][0]))
    unit = _primitive_unit([v for _, v in p.terms], lead)
    return unit, BPoly.make({k: v / unit for k, v in p.terms})


# ---------------------------------------------------------------------------
# gcd, resultants, square-free parts


def gcd_u(f: UPoly, g: UPoly) -> UPoly:
    """Monic gcd over Q; gcd(f, 0) = monic(f)."""
    if f.var != g.var:
        raise ValueError("variable mismatch")
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def gcd_b(f: BPoly, g: BPoly) -> BPoly:
    """Gcd of bivariate polynomials over Q (primitive integer form)."""
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    K = _b_domain(f, g)
    d = dmp_gcd(_to_dmp(f, K), _to_dmp(g, K), 1, K)
    return primitive_int_bpoly(_from_dmp(d, K))[1]


@memo
def factor_b(f: BPoly) -> tuple[Fraction, list[tuple[BPoly, int]]]:
    """Complete factorization of a bivariate polynomial over Q.

    Returns (unit, [(primitive integer irreducible factor, multiplicity)])
    with unit * prod(factor**mult) == f exactly.  Raises DegreeBound when
    the degree in x or in y exceeds DEFAULT_FACTOR_DEGREE_BOUND.

    An input of positive degree in both variables is first tried for a
    proof that it is irreducible; only when that fails does it go to
    sympy's ``dmp_factor_list`` (Wang's EEZ lifting).  With
    (u, q) = primitive_int_bpoly(f), the result is (u, [(q, 1)]) when

    (a) deg_x q = 1 and y_content(q) is constant, or the same with x and
        y swapped; or
    (b) y_content(q) is constant and q(x, c) is irreducible over Q, where
        c is the first of 0, 1, -1, 2, ... at which lc_x(q) does not
        vanish.

    Proof.  Let q = g*h with neither factor constant.  A factor of
    x-degree 0 lies in Q[y] and divides every x-coefficient of q, hence
    y_content(q); as that is constant, both g and h have positive
    x-degree.  In (a), deg_x g + deg_x h = 1 then leaves no room, so q is
    irreducible; the swapped case is the same argument with x and y
    exchanged.  In (b), lc_x(q)(c) = lc_x(g)(c)*lc_x(h)(c) is nonzero,
    so q(x, c) = g(x, c)*h(x, c) is a product of two factors of positive
    degree, against its irreducibility.  Both results equal sympy's:
    the factorization over Q is unique up to units, and
    primitive_int_bpoly fixes the unit.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    bound = DEFAULT_FACTOR_DEGREE_BOUND
    if f.deg_x() > bound or f.deg_y() > bound:
        raise DegreeBound(f"bidegree ({f.deg_x()}, {f.deg_y()}) exceeds bound {bound}")
    if f.deg_x() <= 0 and f.deg_y() <= 0:
        return f.terms[0][1], []
    if f.deg_x() > 0 and f.deg_y() > 0:
        u, q = primitive_int_bpoly(f)
        content_free_y = y_content(q).degree() == 0
        if (
            (q.deg_x() == 1 and content_free_y)
            or (q.deg_y() == 1 and y_content(q.transpose()).degree() == 0)
            or (content_free_y and _irreducible_at(q, next(_specializations(q))))
        ):
            return u, [(q, 1)]
    K = _b_domain(f)
    content, fac = dmp_factor_list(_to_dmp(f, K), 1, K)
    unit = _from_K(content, K)
    out = []
    for p, m in fac:
        u, q = primitive_int_bpoly(_from_dmp(p, K))
        unit *= u**m
        out.append((q, m))
    out.sort(key=lambda t: t[0].terms)
    return unit, out


def resultant_u(f: UPoly, g: UPoly) -> Fraction:
    """Resultant of two univariate polynomials (same variable)."""
    if f.var != g.var:
        raise ValueError("variable mismatch")
    if f.is_zero() or g.is_zero():
        return Fraction(0)
    if f.degree() == 0:
        return f.lc() ** g.degree()
    if g.degree() == 0:
        return g.lc() ** f.degree()
    K = _u_domain(f, g)
    return _from_K(dup_resultant(_to_dup(f, K), _to_dup(g, K), K), K)


def resultant_x(f: BPoly, g: BPoly) -> UPoly:
    """Sylvester resultant eliminating x; a polynomial in y."""
    if f.deg_x() < 0 or g.deg_x() < 0:
        raise ValueError("zero polynomial")
    if f.deg_x() == 0 and g.deg_x() == 0:
        raise ValueError("both inputs constant in x")
    if f.deg_x() == 0:
        return (f.as_upoly().with_var("y") ** g.deg_x()) if f.deg_y() >= 0 else UPoly.zero("y")
    if g.deg_x() == 0:
        return g.as_upoly().with_var("y") ** f.deg_x()
    # Convention: product of f over the x-roots of g (times lc powers), i.e.
    # Res(g, f) in sympy's ordering, so that Res_x(x - y^2, x - y) = y - y^2.
    K = _b_domain(f, g)
    return _from_dup(dmp_resultant(_to_dmp(g, K), _to_dmp(f, K), 1, K), "y", K)


def squarefree_decomposition(f: UPoly) -> list[tuple[UPoly, int]]:
    """Monic square-free decomposition: pairwise coprime factors with
    multiplicities whose weighted product is monic(f)."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree() == 0:
        return []
    K = _u_domain(f)
    _, fac = dup_sqf_list(_to_dup(f, K), K)
    return [(_from_dup(p, f.var, K).monic(), m) for p, m in fac]


@memo
def factor_q(f: UPoly) -> tuple[Fraction, list[tuple[UPoly, int]]]:
    """Complete factorization over Q into monic irreducibles.

    Returns (unit, [(factor, multiplicity), ...]) with
    unit * prod(factor**mult) == f exactly.  Raises DegreeBound when the
    degree exceeds DEFAULT_FACTOR_DEGREE_BOUND.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    bound = DEFAULT_FACTOR_DEGREE_BOUND
    if f.degree() > bound:
        raise DegreeBound(f"degree {f.degree()} exceeds bound {bound}")
    if f.degree() == 0:
        return f.lc(), []
    K = _u_domain(f)
    _, fac = dup_factor_list(_to_dup(f, K), K)
    # the factors are monic, so the unit is the leading coefficient
    out = [(_from_dup(p, f.var, K).monic(), m) for p, m in fac]
    out.sort(key=lambda t: (t[0].degree(), t[0].coeffs))
    return f.lc(), out


# ---------------------------------------------------------------------------
# bivariate irreducibility certification


@memo
def y_content(f: BPoly) -> UPoly:
    """Gcd of the coefficients of f in x, a polynomial in y; taken from
    the lowest degree up, it stops at the first constant one."""
    cs = sorted((c for c in f.x_coeffs() if not c.is_zero()), key=UPoly.degree)
    g = cs[0]
    for c in cs[1:]:
        if g.degree() == 0:
            break
        g = gcd_u(g, c)
    return g


def content_free_both_ways(f: BPoly) -> bool:
    """True when no nonconstant polynomial in y alone, nor in x alone,
    divides f."""
    return y_content(f).degree() == 0 and y_content(f.transpose()).degree() == 0


def _specializations(f: BPoly) -> Iterator[int]:
    """The integers c, in the order 0, 1, -1, 2, -2, ..., at which the
    x-leading coefficient of f does not vanish."""
    lc = f.coeff_of_x(f.deg_x())
    c = 0
    while True:
        if lc.eval(c) != 0:
            yield c
        c = -c if c > 0 else 1 - c


def _irreducible_at(f: BPoly, c: int) -> bool:
    """True when the specialization y := c proves f irreducible, for f of
    constant y-content and c not a root of its x-leading coefficient
    (proof in ``factor_b``): f(x, c) is irreducible over Q.  Raises
    DegreeBound past the degree bound of ``factor_q``."""
    _, fac = factor_q(f.eval_y(c))
    return len(fac) == 1 and fac[0][1] == 1


def certify_irreducible_bivariate(f: BPoly) -> str:
    """Sound sufficient irreducibility test over Q; returns "certified"
    or "unknown" (never certifies a reducible polynomial).

    Certified when the polynomial is content-free in each variable and
    either has degree 1 in one variable, or some small integer
    specialization y := c with |c| <= 10 keeps full x-degree and is
    irreducible.
    """
    if f.deg_x() < 1 or f.deg_y() < 1:
        raise ValueError("needs positive degree in both variables")
    if not content_free_both_ways(f):
        return "unknown"
    if f.deg_x() == 1 or f.deg_y() == 1:
        return "certified"
    for c in _specializations(f):
        if abs(c) > 10:
            break
        try:
            if _irreducible_at(f, c):
                return "certified"
        except DegreeBound:
            return "unknown"
    return "unknown"


# ---------------------------------------------------------------------------
# certified complex roots


@memo
def complex_roots(f: UPoly, eps=1e-12, prec: int = DEFAULT_PREC) -> list[mpmath.mpc]:
    """All deg(f) complex roots with multiplicity.

    Each returned z satisfies (|f(z)|/|lc|)**(1/deg) < eps for its
    square-free factor, so the disc of radius eps about z holds a root,
    and the discs about the roots of one factor are pairwise disjoint,
    so each holds a different root.  Precision is escalated until both
    hold; PrecisionFailure is raised when they cannot be reached.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if f.degree() == 0:
        return []
    roots: list[mpmath.mpc] = []
    for sq, mult in squarefree_decomposition(f):
        deg = sq.degree()
        found = None
        for wp in (prec, 2 * prec, 4 * prec, 8 * prec, 16 * prec):
            with mpmath.workprec(wp):
                cs = [
                    mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
                    for c in reversed(sq.coeffs)
                ]
                try:
                    rs = mpmath.polyroots(cs, maxsteps=400, extraprec=wp)
                except NoConvergence:
                    continue
                if _roots_certified(sq, rs, eps):
                    found = [mpmath.mpc(r) for r in rs]
                    break
        if found is None:
            raise PrecisionFailure(
                f"could not certify roots of degree-{deg} factor at prec={prec}"
            )
        roots.extend(found * mult)
    return roots


def _roots_certified(sq: UPoly, rs, eps) -> bool:
    deg = sq.degree()
    lc = abs(mpmath.mpf(sq.lc().numerator) / mpmath.mpf(sq.lc().denominator))
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
        acc = acc * z + mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
    return acc


# ---------------------------------------------------------------------------
# rendering


def _fmt_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def render_upoly(p: UPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree(), -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            mon = ""
        elif i == 1:
            mon = p.var
        else:
            mon = f"{p.var}^{i}"
        parts.append(_term_str(c, mon, first=not parts))
    return "".join(parts)


def render_bpoly(p: BPoly) -> str:
    if p.is_zero():
        return "0"
    terms = sorted(p.terms, key=lambda t: (-(t[0][0] + t[0][1]), -t[0][0], -t[0][1]))
    parts = []
    for (i, j), c in terms:
        mons = []
        if i == 1:
            mons.append("x")
        elif i > 1:
            mons.append(f"x^{i}")
        if j == 1:
            mons.append("y")
        elif j > 1:
            mons.append(f"y^{j}")
        parts.append(_term_str(c, "*".join(mons), first=not parts))
    return "".join(parts)


def _term_str(c: Fraction, mon: str, first: bool) -> str:
    sign = "-" if c < 0 else ("" if first else "+")
    if not first:
        sign = " - " if c < 0 else " + "
    a = abs(c)
    if not mon:
        body = _fmt_coeff(a)
    elif a == 1:
        body = mon
    else:
        body = f"{_fmt_coeff(a)}*{mon}"
    return f"{sign}{body}"
