"""Exact rational and polynomial arithmetic.

Univariate polynomials are dense coefficient tuples tagged with their
variable, bivariate polynomials are sparse exponent maps.  Heavy algebra
(factorization over Q, gcds, contents in y, lowest terms, resultants,
square-free decomposition) goes to sympy's dense ``dup`` / ``dmp`` layer
through the one bridge below, except that ``factor_q`` decides degrees
1 and 2 in integers (a quadratic by its discriminant).  The bridge works
over ZZ only: each bridged call puts its inputs in primitive integer
form (``primitive_int_upoly``, ``primitive_int_bpoly``) and puts their
rational units back exactly, so everything stays exact.  Both
factorizers return primitive integer irreducibles with a positive
leading coefficient, the form in which places store their polynomials.
``factor_int`` is the bridge's one integer call.  No other module of the
package imports sympy.

Scalars.  An exact scalar is an ``int`` when it is integral and a
``fractions.Fraction`` only when it is not (``_frac`` makes it so), and
every coefficient, unit and value below is kept in that form.  Nearly
every polynomial here is a primitive integer form, so its coefficients
are plain ints, which are cheaper to build, add, compare and hash.
Python makes ``Fraction(n) == n`` and ``hash(Fraction(n)) == hash(n)``,
so polynomial equality, hashes, memo keys, place order and rendering are
those of an all-``Fraction`` representation.  ``int / int`` is a float,
so every division of scalars goes through ``qdiv`` and every negative
power through ``qpow``.

Caching.  There is one memo policy for the whole package: ``memo`` wraps
a leaf function in ``functools.lru_cache(maxsize=MEMO_SIZE)``, keyed on
the full value of its arguments (polynomials and places are frozen and
compare by value), and registers the cache so that ``clear_caches()``
empties every one of them.  Here ``factor_b``, ``y_content`` (key: the
polynomial) and ``complex_roots`` (key: polynomial and eps) are
memoized; ``arakelov`` memoizes its per-place heights, ``arch_lambda``
and the pairwise term ``_hh`` (arguments in order), and ``divisors``
hands out one shared place object per input through
``UnaryPlace.finite`` and ``UnaryPlace.infinity``.  ``factor_q`` itself
has no memo: it takes the primitive form of its input and puts the unit
back outside the memoized ``_factor_primitive_q``, so f and c*f share one
entry for every nonzero rational c.  A fiber resultant and its negative,
which ``pair(A, B)`` and ``pair(B, A)`` factor, are then factored once.
``factor_b`` stays keyed on its raw input: the bivariate products it
factors hardly ever repeat, even up to a unit, so a primitive key would
only add its cost to every call.  Memoized functions return tuples, never
lists, so no caller can alter a cached value.  No cache sits on a checked
entry point: ``pair``, the residue routes, ``correspondence`` and
``intersect`` recompute on every call, so the route agreement checks
compare independent computations.  The pair-symmetry checks (``verify``
criterion 1 and the benchmark's gate) compare the two resultants, which
differ by a sign, and the two uses of the infinity rule; the
factorization is that of one primitive form either way, so they do not
check it.  Nothing configures the caches; the bound of 128 entries each
keeps the memory they hold small.

A frozen ``UPoly`` or ``BPoly`` keeps its own hash once computed, as
``str`` does, because places and divisors are dicts keyed on them; a
``BPoly`` keeps its degrees in x and y the same way.  That is no memo:
it is part of the value, with nothing to clear and no bound, and it
stays out of ``==``, ``repr`` and pickles (``str`` hashes differ between
processes).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence, Union

import mpmath
from mpmath.libmp import NoConvergence
from sympy.ntheory import factorint
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dmp_content, dmp_resultant, dup_cancel, dup_gcd, dup_resultant
from sympy.polys.factortools import dmp_factor_list, dup_factor_list
from sympy.polys.sqfreetools import dup_sqf_list

from .errors import DegreeBound, PrecisionFailure

DEFAULT_FACTOR_DEGREE_BOUND = 24

# working precision, in bits, of the numeric (mpmath) layer
DEFAULT_PREC = 80

# entries kept by each memoized function (see the module docstring)
MEMO_SIZE = 128

_MEMOS: list = []


def memo(fn):
    """Memoize ``fn`` under the package's one caching policy: an LRU cache
    of MEMO_SIZE entries keyed on the arguments as passed, emptied by
    ``clear_caches()``.  ``__wrapped__`` is the uncached function."""
    cached = functools.lru_cache(maxsize=MEMO_SIZE)(fn)
    _MEMOS.append(cached)
    return cached


def clear_caches() -> None:
    """Empty every memo of the package."""
    for cached in _MEMOS:
        cached.cache_clear()


Scalar = Union[int, Fraction]


def _frac(v) -> Scalar:
    """The exact scalar equal to v: an ``int`` when v is integral, a
    ``Fraction`` only when it is not.  The two forms of an integer are
    equal and hash alike, so this changes no value, key or order; ints
    are only cheaper to build, compare and hash.  TypeError for anything
    but an int or a Fraction (a float above all)."""
    if type(v) is int:
        return v
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    if isinstance(v, int):
        return int(v)
    raise TypeError(f"not an exact rational: {v!r}")


def _exact(cs: Iterable) -> list[Scalar]:
    """``_frac`` of every scalar in cs, without a call for an int."""
    return [c if type(c) is int else _frac(c) for c in cs]


def qdiv(a: Scalar, b: Scalar) -> Scalar:
    """a / b as an exact scalar; ZeroDivisionError when b is 0.  The one
    division of scalars: a bare ``/`` of two ints is a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _frac(a / b)


def qpow(a: Scalar, e: int) -> Scalar:
    """a**e as an exact scalar for any integer e; a negative power of an
    int would be a float."""
    return _frac(a**e) if e >= 0 else qdiv(1, a**-e)


class _HashSlot:
    """Base of the frozen polynomials: a slot outside the dataclass
    fields, where ``__hash__`` keeps the hash it computed first.  Being
    no field, it takes no part in ``==``, ``repr`` or pickled state."""

    __slots__ = ("_hash",)


class _DegreeSlots(_HashSlot):
    """Two more such slots, where ``BPoly.deg_x`` and ``deg_y`` keep the
    degrees they computed first."""

    __slots__ = ("_deg_x", "_deg_y")


@dataclass(frozen=True, slots=True)
class UPoly(_HashSlot):
    """Dense univariate polynomial over Q in the variable ``var``.

    ``coeffs[i]`` is the coefficient of ``var**i``; the tuple carries no
    trailing zeros, so the zero polynomial has an empty tuple.
    """

    var: str
    coeffs: tuple[Scalar, ...]

    def __hash__(self) -> int:
        # the generated dataclass hash, computed once
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.var, self.coeffs)))
            return self._hash

    @staticmethod
    def make(var: str, coeffs: Iterable) -> "UPoly":
        cs = _exact(coeffs)
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

    def lc(self) -> Scalar:
        if not self.coeffs:
            return 0
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
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
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
        return UPoly(self.var, tuple(_exact(a * c for a in self.coeffs)))

    def __pow__(self, n: int) -> "UPoly":
        return _power(self, n, UPoly.const(self.var, 1))

    def monic(self) -> "UPoly":
        if self.is_zero():
            return self
        return self.scale(qdiv(1, self.lc()))

    def eval(self, v) -> Scalar:
        v = _frac(v)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return _frac(acc)

    def with_var(self, var: str) -> "UPoly":
        return UPoly(var, self.coeffs)

    def _check(self, other: "UPoly") -> None:
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def __str__(self) -> str:
        return render_upoly(self)


@dataclass(frozen=True, slots=True)
class BPoly(_DegreeSlots):
    """Sparse bivariate polynomial over Q in x and y.

    ``terms`` maps nothing to zero: it is a sorted tuple of
    ``((i, j), coeff)`` with ``coeff`` nonzero, where ``i`` is the
    x-exponent and ``j`` the y-exponent.
    """

    terms: tuple[tuple[tuple[int, int], Scalar], ...]

    def __hash__(self) -> int:
        # the generated dataclass hash, computed once
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.terms,)))
            return self._hash

    @staticmethod
    def make(d: dict[tuple[int, int], Scalar]) -> "BPoly":
        items = sorted((k, v if type(v) is int else _frac(v)) for k, v in d.items() if v != 0)
        return BPoly(tuple(items))

    @staticmethod
    def const(c) -> "BPoly":
        return BPoly.make({(0, 0): c})

    @staticmethod
    def gen(var: str) -> "BPoly":
        return BPoly.make({(1, 0) if var == "x" else (0, 1): 1})

    @staticmethod
    def zero() -> "BPoly":
        return BPoly(())

    @staticmethod
    def from_upoly(p: UPoly) -> "BPoly":
        if p.var == "x":
            return BPoly.make({(i, 0): c for i, c in enumerate(p.coeffs)})
        return BPoly.make({(0, j): c for j, c in enumerate(p.coeffs)})

    def as_dict(self) -> dict[tuple[int, int], Scalar]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def deg_x(self) -> int:
        """Degree in x, -1 for the zero polynomial; kept once computed."""
        try:
            return self._deg_x
        except AttributeError:
            return self._keep_degrees()[0]

    def deg_y(self) -> int:
        """Degree in y, -1 for the zero polynomial; kept once computed."""
        try:
            return self._deg_y
        except AttributeError:
            return self._keep_degrees()[1]

    def _keep_degrees(self) -> tuple[int, int]:
        dx = dy = -1
        for (i, j), _ in self.terms:
            if i > dx:
                dx = i
            if j > dy:
                dy = j
        object.__setattr__(self, "_deg_x", dx)
        object.__setattr__(self, "_deg_y", dy)
        return dx, dy

    def __add__(self, other: "BPoly") -> "BPoly":
        d = self.as_dict()
        for k, v in other.terms:
            d[k] = d.get(k, 0) + v
        return BPoly.make(d)

    def __neg__(self) -> "BPoly":
        return BPoly(tuple((k, -v) for k, v in self.terms))

    def __sub__(self, other: "BPoly") -> "BPoly":
        return self + (-other)

    def __mul__(self, other: Union["BPoly", int, Fraction]) -> "BPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        d: dict[tuple[int, int], Scalar] = {}
        for (i1, j1), a in self.terms:
            for (i2, j2), b in other.terms:
                k = (i1 + i2, j1 + j2)
                d[k] = d.get(k, 0) + a * b
        return BPoly.make(d)

    __rmul__ = __mul__

    def scale(self, c) -> "BPoly":
        c = _frac(c)
        if c == 0:
            return BPoly.zero()
        return BPoly(tuple(zip((k for k, _ in self.terms), _exact(v * c for _, v in self.terms))))

    def __pow__(self, n: int) -> "BPoly":
        return _power(self, n, BPoly.const(1))

    def transpose(self) -> "BPoly":
        """Swap the roles of x and y."""
        return BPoly(tuple(sorted(((j, i), v) for (i, j), v in self.terms)))

    def coeff_of_x(self, i: int) -> UPoly:
        """Coefficient of x**i, as a polynomial in y."""
        d: dict[int, Scalar] = {}
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
# highest degree first.  Coefficients live in ZZ: every bridged call
# first puts its inputs in primitive integer form and puts their rational
# units back exactly afterwards.  They are read back through int(), which
# holds under every sympy ground type.


def _to_dup(p: UPoly) -> list:
    return [ZZ(c) for c in reversed(p.coeffs)]


def _from_dup(f: list, var: str) -> UPoly:
    return UPoly.make(var, [int(c) for c in reversed(f)])


def _to_dmp(p: BPoly) -> list:
    rows = [{} for _ in range(p.deg_x() + 1)]
    for (i, j), v in p.terms:
        rows[i][j] = v
    out = []
    for row in reversed(rows):
        n = max(row, default=-1)
        out.append([ZZ(row.get(j, 0)) for j in range(n, -1, -1)])
    return out or [[]]


def _from_dmp(f: list) -> BPoly:
    d = {}
    for r, row in enumerate(f):
        i = len(f) - 1 - r
        for k, c in enumerate(row):
            if c:
                d[(i, len(row) - 1 - k)] = int(c)
    return BPoly.make(d)


# ---------------------------------------------------------------------------
# canonical primitive-integer forms


def _primitive(coeffs: Sequence[Scalar], lead: Scalar) -> tuple[Scalar, Optional[list[int]]]:
    """(u, ints): the rational u with the sign of ``lead`` for which the
    c / u are coprime integers, and those integers, in integer arithmetic
    only (the gcd, after the lcm of the denominators when some c is a
    Fraction).  ints is None, and u is 1, when the c already are such
    integers."""
    try:
        den, nums, g = 1, coeffs, gcd(*coeffs)
    except TypeError:  # math.gcd takes no Fraction
        den = lcm(*(c.denominator for c in coeffs))
        nums = [c.numerator * (den // c.denominator) for c in coeffs]
        g = gcd(*nums)
    if lead < 0:
        g = -g
    if g == 1 and den == 1:
        return 1, None
    return qdiv(g, den), [n // g for n in nums]


def primitive_int_upoly(p: UPoly) -> tuple[Scalar, UPoly]:
    """Return (unit, q) with q integer, content-free, positive leading
    coefficient, and p = unit * q; (1, p) itself when p is such a q."""
    if p.is_zero():
        raise ValueError("zero polynomial has no primitive form")
    unit, ints = _primitive(p.coeffs, p.lc())
    return (unit, p) if ints is None else (unit, UPoly(p.var, tuple(ints)))


def primitive_int_bpoly(p: BPoly) -> tuple[Scalar, BPoly]:
    """Same normalization for bivariate polynomials; the sign is fixed by
    the graded-lex leading term (total degree, then x-exponent)."""
    if p.is_zero():
        raise ValueError("zero polynomial has no primitive form")
    _, lead = max(p.terms, key=lambda t: (t[0][0] + t[0][1], t[0][0]))
    unit, ints = _primitive([v for _, v in p.terms], lead)
    if ints is None:
        return unit, p
    return unit, BPoly(tuple(zip((k for k, _ in p.terms), ints)))


# ---------------------------------------------------------------------------
# gcd, resultants, square-free parts


def gcd_u(f: UPoly, g: UPoly) -> UPoly:
    """Monic gcd over Q; gcd(f, 0) = monic(f) and gcd(0, 0) = 0."""
    f._check(g)
    if f.is_zero() or g.is_zero():
        return (g if f.is_zero() else f).monic()
    d = dup_gcd(_to_dup(primitive_int_upoly(f)[1]), _to_dup(primitive_int_upoly(g)[1]), ZZ)
    return _from_dup(d, f.var).monic()


def cancel_u(num: UPoly, den: UPoly) -> tuple[UPoly, UPoly]:
    """num/den in lowest terms: (p, q) with q monic, p and q coprime and
    p/q = num/den; (0, 1) when num is 0.  den must be nonzero."""
    num._check(den)
    if num.is_zero():
        return num, UPoly.const(den.var, 1)
    u, N = primitive_int_upoly(num)
    v, D = primitive_int_upoly(den)
    p, q = dup_cancel(_to_dup(N), _to_dup(D), ZZ)
    q = _from_dup(q, den.var)
    return _from_dup(p, num.var).scale(qdiv(u, v * q.lc())), q.monic()


@memo
def factor_b(f: BPoly) -> tuple[Scalar, tuple[tuple[BPoly, int], ...]]:
    """Complete factorization of a bivariate polynomial over Q.

    Returns (unit, ((primitive integer irreducible factor, multiplicity),
    ...)) with unit * prod(factor**mult) == f exactly, the factors sorted
    by their terms.  Raises DegreeBound when the degree in x or in y
    exceeds DEFAULT_FACTOR_DEGREE_BOUND.

    An input in one variable is ``factor_q``'s, whose factors are already
    in the form of ``primitive_int_bpoly``: in one variable the graded-lex
    leading term is the leading one.  An input of positive degree in both
    variables is put in primitive integer form, (u, q) =
    primitive_int_bpoly(f).  The result is (u, ((q, 1),)) when
    ``certify_irreducible_bivariate(q)`` proves q prime; only when it
    does not does q go to sympy's ``dmp_factor_list`` (Wang's EEZ
    lifting).  Both results equal sympy's: the factorization over Q is
    unique up to units, and primitive_int_bpoly fixes the unit.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    bound = DEFAULT_FACTOR_DEGREE_BOUND
    if f.deg_x() > bound or f.deg_y() > bound:
        raise DegreeBound(f"bidegree ({f.deg_x()}, {f.deg_y()}) exceeds bound {bound}")
    if f.deg_x() <= 0 or f.deg_y() <= 0:
        unit, fac = factor_q(f.as_upoly())
        out = sorted(((BPoly.from_upoly(p), m) for p, m in fac), key=lambda t: t[0].terms)
        return unit, tuple(out)
    unit, q = primitive_int_bpoly(f)
    if certify_irreducible_bivariate(q):
        return unit, ((q, 1),)
    content, fac = dmp_factor_list(_to_dmp(q), 1, ZZ)
    unit *= int(content)
    out = []
    for p, m in fac:
        u, irr = primitive_int_bpoly(_from_dmp(p))
        unit *= u**m
        out.append((irr, m))
    out.sort(key=lambda t: t[0].terms)
    return _frac(unit), tuple(out)


def resultant_u(f: UPoly, g: UPoly) -> Scalar:
    """Resultant of two univariate polynomials (same variable)."""
    if f.var != g.var:
        raise ValueError("variable mismatch")
    if f.is_zero() or g.is_zero():
        return 0
    if f.degree() == 0:
        return qpow(f.lc(), g.degree())
    if g.degree() == 0:
        return qpow(g.lc(), f.degree())
    u, F = primitive_int_upoly(f)
    v, G = primitive_int_upoly(g)
    r = int(dup_resultant(_to_dup(F), _to_dup(G), ZZ))
    # homogeneity: Res(uF, vG) = u^deg G * v^deg F * Res(F, G)
    return _frac(u ** g.degree() * v ** f.degree() * r)


def resultant_x(f: BPoly, g: BPoly) -> UPoly:
    """Sylvester resultant eliminating x; a polynomial in y."""
    if f.deg_x() < 0 or g.deg_x() < 0:
        raise ValueError("zero polynomial")
    if f.deg_x() == 0 and g.deg_x() == 0:
        raise ValueError("both inputs constant in x")
    if f.deg_x() == 0:
        return f.as_upoly().with_var("y") ** g.deg_x()
    if g.deg_x() == 0:
        return g.as_upoly().with_var("y") ** f.deg_x()
    u, F = primitive_int_bpoly(f)
    v, G = primitive_int_bpoly(g)
    # Convention: product of f over the x-roots of g (times lc powers), i.e.
    # Res(g, f) in sympy's ordering, so that Res_x(x - y^2, x - y) = y - y^2.
    r = _from_dup(dmp_resultant(_to_dmp(G), _to_dmp(F), 1, ZZ), "y")
    # homogeneity: Res_x(uF, vG) = u^(deg_x G) * v^(deg_x F) * Res_x(F, G)
    unit = u ** g.deg_x() * v ** f.deg_x()
    return r if unit == 1 else r.scale(unit)


def squarefree_decomposition(f: UPoly) -> list[tuple[UPoly, int]]:
    """Monic square-free decomposition: pairwise coprime factors with
    multiplicities whose weighted product is monic(f)."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree() == 0:
        return []
    _, fac = dup_sqf_list(_to_dup(primitive_int_upoly(f)[1]), ZZ)
    return [(_from_dup(p, f.var).monic(), m) for p, m in fac]


def factor_q(f: UPoly) -> tuple[Scalar, tuple[tuple[UPoly, int], ...]]:
    """Complete factorization over Q into primitive integer irreducibles
    with positive leading coefficient, the form of a place.

    Returns (unit, ((factor, multiplicity), ...)) with
    unit * prod(factor**mult) == f exactly, the factors sorted by degree,
    then coefficients.  Raises DegreeBound when the degree exceeds
    DEFAULT_FACTOR_DEGREE_BOUND.  Degrees 1 and 2 are decided in
    integers (a quadratic by its discriminant); degree 3 and up go to
    sympy's ``dup_factor_list``.  The memo is keyed on the primitive
    form, so f and c*f share one entry for every nonzero rational c.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    bound = DEFAULT_FACTOR_DEGREE_BOUND
    if f.degree() > bound:
        raise DegreeBound(f"degree {f.degree()} exceeds bound {bound}")
    if f.degree() == 0:
        return f.lc(), ()
    unit, q = primitive_int_upoly(f)
    u, fac = _factor_primitive_q(q)
    return _frac(unit * u), fac


def factor_int(n: int) -> tuple[tuple[int, int], ...]:
    """The prime factorization of |n| for a nonzero integer n, as
    (prime, exponent) pairs in increasing order."""
    return tuple(sorted(factorint(abs(n)).items()))


@memo
def _factor_primitive_q(q: UPoly) -> tuple[Scalar, tuple[tuple[UPoly, int], ...]]:
    """``factor_q`` of a primitive integer q of positive degree.

    Degrees 1 and 2 are decided in integers; only degree 3 and up go to
    sympy's ``dup_factor_list``.  A linear q is its own factor.  For
    q = a*x^2 + b*x + c let D = b^2 - 4ac.  When D is no integer square,
    q has no rational root, so no linear factor over Q, and is
    irreducible.  When D = s^2 its roots (-b -+ s)/2a, in lowest terms
    n/d with d > 0, give the primitive factors d*x - n, squared when
    s = 0, and the unit is 1: q and the product of the factors have the
    same roots, so they differ by a rational factor; both are primitive
    (the product by Gauss's lemma) with a positive leading coefficient,
    so that factor is 1.
    """
    if q.degree() == 1:
        return 1, ((q, 1),)
    if q.degree() == 2:
        c, b, a = q.coeffs
        disc = b * b - 4 * a * c
        s = isqrt(max(disc, 0))
        if s * s != disc:
            return 1, ((q, 1),)
        roots = (Fraction(-b - s, 2 * a), Fraction(-b + s, 2 * a))
        lin = sorted((UPoly(q.var, (-r.numerator, r.denominator)) for r in roots), key=lambda p: p.coeffs)
        if s == 0:
            return 1, ((lin[0], 2),)
        return 1, ((lin[0], 1), (lin[1], 1))
    content, fac = dup_factor_list(_to_dup(q), ZZ)
    unit = int(content)
    out = []
    for p, m in fac:
        u, irr = primitive_int_upoly(_from_dup(p, q.var))
        unit *= u**m
        out.append((irr, m))
    out.sort(key=lambda t: (t[0].degree(), t[0].coeffs))
    return _frac(unit), tuple(out)


# ---------------------------------------------------------------------------
# bivariate irreducibility certification


@memo
def y_content(f: BPoly) -> UPoly:
    """Monic gcd of the coefficients of a nonzero f in x, a polynomial
    in y."""
    c = dmp_content(_to_dmp(primitive_int_bpoly(f)[1]), 1, ZZ)
    return _from_dup(c, "y").monic()


def content_free_both_ways(f: BPoly) -> bool:
    """True when no nonconstant polynomial in y alone, nor in x alone,
    divides f."""
    return y_content(f).degree() == 0 and y_content(f.transpose()).degree() == 0


def certify_irreducible_bivariate(q: BPoly) -> bool:
    """A sound sufficient test that a nonzero q is irreducible over Q:
    True when

    (a) deg_x q = 1 and y_content(q) is constant, or the same with x and
        y swapped; or
    (b) y_content(q) is constant and q(x, c) is irreducible over Q, where
        c is the first of 1, -1, 2, -2, ... at which neither lc_x(q) nor
        q(0, y) vanishes.

    False means only that neither applies.  Raises DegreeBound when
    q(x, c) is past the degree bound of ``factor_q``.  The proof of (b)
    needs only lc_x(q)(c) != 0; the condition on q(0, y) only chooses c,
    skipping the points where x divides q(x, c).  When q(0, y) is 0, x
    divides q, and q, of x-degree at least 2 there, is reducible.

    Proof.  Let q = g*h with neither factor constant.  A factor of
    x-degree 0 lies in Q[y] and divides every x-coefficient of q, hence
    y_content(q); as that is constant, both g and h have positive
    x-degree.  In (a), deg_x g + deg_x h = 1 then leaves no room, so q is
    irreducible; the swapped case is the same argument with x and y
    exchanged.  In (b), lc_x(q)(c) = lc_x(g)(c)*lc_x(h)(c) is nonzero,
    so q(x, c) = g(x, c)*h(x, c) is a product of two factors of positive
    degree, against its irreducibility.
    """
    content_free_y = y_content(q).degree() == 0
    if q.deg_x() == 1 and content_free_y:
        return True
    if q.deg_y() == 1 and y_content(q.transpose()).degree() == 0:
        return True
    if not content_free_y:
        return False
    lc, tail = q.coeff_of_x(q.deg_x()), q.coeff_of_x(0)
    if tail.is_zero():
        return False
    c = 1
    while lc.eval(c) == 0 or tail.eval(c) == 0:
        c = -c if c > 0 else 1 - c
    _, fac = factor_q(q.eval_y(c))
    return len(fac) == 1 and fac[0][1] == 1


# ---------------------------------------------------------------------------
# certified complex roots


def mpf_of(c: Scalar) -> mpmath.mpf:
    """The exact scalar c as an ``mpmath.mpf``, rounded at the working
    precision: the one such conversion of the package."""
    return mpmath.mpf(c.numerator) / c.denominator


@memo
def complex_roots(f: UPoly, eps=1e-12) -> tuple[mpmath.mpc, ...]:
    """All deg(f) complex roots with multiplicity.

    Each returned z satisfies (|f(z)|/|lc|)**(1/deg) < eps for its
    square-free factor, so the disc of radius eps about z holds a root,
    and the discs about the roots of one factor are pairwise disjoint,
    so each holds a different root.  Precision is escalated until both
    hold, from DEFAULT_PREC bits up to 16 times that; PrecisionFailure is
    raised when they cannot be reached.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if f.degree() == 0:
        return ()
    roots: list[mpmath.mpc] = []
    for sq, mult in squarefree_decomposition(f):
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


# ---------------------------------------------------------------------------
# rendering


def _fmt_coeff(c: Scalar) -> str:
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


def _term_str(c: Scalar, mon: str, first: bool) -> str:
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
