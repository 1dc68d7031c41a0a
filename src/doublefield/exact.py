"""Exact rational and polynomial arithmetic.

Univariate polynomials are dense coefficient tuples tagged with their
variable, bivariate polynomials are sparse exponent maps.  The dense
arithmetic this module does itself runs on plain coefficient lists, low
degree first (``_add``, ``_mul``, ``_exquo``, the rows of ``_x_rows``):
``UPoly``'s sum and product, the fiber resultants of x-degree at most 3
in closed form and the cofactor of a rational root.  A univariate gcd
is the content in y of the polynomial whose two rows in x are the
inputs, so ``gcd_u`` goes through ``y_content``.  ``factor_q``
decides most inputs in plain integers too: it splits off powers of the
variable, decides degrees 1 and 2 (a quadratic by its discriminant), and
decides most higher degrees from their degree patterns mod small primes,
finished by Hensel-lifted rational roots when only a linear factor is
left possible.  The certificate proves a curve prime by the same
degree-set rule over Q, read at several points.  The one bridge to sympy
holds only the fallbacks: Zassenhaus and Wang factorization, for inputs
that may have a factor of degree 2 to n - 2 and curves whose degree sets
leave a proper factor possible, contents in y that no gcd mod p decides,
and the PRS resultant past x-degree 3.  The bridge works over ZZ only:
each bridged call puts its inputs in primitive integer form
(``primitive_int_upoly``, ``primitive_int_bpoly``) and puts their
rational units back exactly, so everything stays exact.
Both factorizers return primitive integer irreducibles with a positive
leading coefficient, the form in which places store their polynomials.
No other module of the package imports sympy.

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
empties every one of them.  Here ``factor_b`` and ``y_content`` (key:
the polynomial) are memoized; the verify oracle (``oracles``) memoizes
``complex_roots`` (key: polynomial and eps), its per-place heights,
``arch_lambda`` and the pairwise term ``_hh`` (arguments in order), and
``divisors`` hands out one shared place object per input through
``UnaryPlace.finite`` and ``UnaryPlace.infinity``.  ``factor_q`` itself
has no memo: it takes the primitive form of its input and puts the unit
back outside the memoized ``_factor_primitive_q``, so f and c*f share one
entry for every nonzero rational c.  A fiber resultant and its negative,
which ``pair(A, B)`` and ``pair(B, A)`` factor, are then factored once.
``factor_b`` stays keyed on its raw input: the bivariate products it
factors hardly ever repeat, even up to a unit, so a primitive key would
only add its cost to every call.  Memoized functions return tuples, never
lists, so no caller can alter a cached value.  No cache sits on a checked
entry point: ``pair``, the residue routes, ``correspondence`` and the
oracle's ``intersect`` recompute on every call, so the route agreement
checks compare independent computations.  The pair-symmetry checks (``verify``
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

Printing.  ``render_sum`` is the one printer of a signed sum of
``(coefficient, text)`` terms: polynomials print through it term by
term, and ``Divisor.__str__`` prints its places through it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm
from typing import Iterable, Iterator, Optional, Sequence, Union

from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dmp_content, dmp_resultant
from sympy.polys.factortools import dmp_factor_list, dup_factor_list

from .errors import DegreeBound

DEFAULT_FACTOR_DEGREE_BOUND = 24

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
        return UPoly.make(self.var, _add(self.coeffs, other.coeffs))

    def __neg__(self) -> "UPoly":
        return UPoly(self.var, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UPoly") -> "UPoly":
        return self + (-other)

    def __mul__(self, other: Union["UPoly", int, Fraction]) -> "UPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        return UPoly.make(self.var, _mul(self.coeffs, other.coeffs))

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
        return BPoly.make(_mul_table(dict(self.terms), other.terms))

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

    def eval_y(self, c) -> UPoly:
        """Substitute y = c; result is a polynomial in x."""
        c = _frac(c)
        out = [0] * (self.deg_x() + 1)
        for (i, j), v in self.terms:
            out[i] += v * c**j
        return UPoly.make("x", out)

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


def _mul_table(table: dict, terms: tuple) -> dict[tuple[int, int], Scalar]:
    """The coefficient table {(i, j): c} of table times the polynomial
    with these terms, possibly with zero entries."""
    out: dict[tuple[int, int], Scalar] = {}
    for (i1, j1), a in table.items():
        for (i2, j2), b in terms:
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + a * b
    return out


# ---------------------------------------------------------------------------
# dense arithmetic on plain coefficient lists, low degree first


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _add(a: Sequence, b: Sequence) -> list:
    """a + b, with no trailing zeros."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _mul(a: Sequence, b: Sequence) -> list:
    """a * b; [] when either is zero, and no trailing zeros when a and b
    have none."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


def _exquo(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a / b for a nonzero b that divides a exactly in Z[t], by long
    division from the top."""
    a, n = list(a), len(b) - 1
    q = [0] * max(len(a) - n, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = a[i + n] // b[-1]
        if c:
            for j in range(n):
                a[i + j] -= c * b[j]
    return q


def _x_rows(g: BPoly) -> list[list]:
    """rows[i] = the coefficient of x^i in g, a list in y; [] for a power
    of x that g lacks."""
    rows: list[list] = [[] for _ in range(g.deg_x() + 1)]
    for (i, j), v in g.terms:  # sorted, so each row's entries ascend
        row = rows[i]
        row += [0] * (j - len(row))
        row.append(v)
    return rows


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
    return [[ZZ(c) for c in reversed(row)] for row in reversed(_x_rows(p))] or [[]]


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
# gcd, resultants


def gcd_u(f: UPoly, g: UPoly) -> UPoly:
    """Monic gcd over Q; gcd(f, 0) = monic(f) and gcd(0, 0) = 0.  For
    nonzero f and g it is ``y_content`` of the polynomial f + x*g, whose
    two rows in x are f and g."""
    f._check(g)
    if f.is_zero() or g.is_zero():
        return (g if f.is_zero() else f).monic()
    rows = {(i, j): c for i, p in enumerate((f, g)) for j, c in enumerate(p.coeffs)}
    return y_content(BPoly.make(rows)).with_var(f.var)


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


def resultant_x(f: BPoly, g: BPoly) -> UPoly:
    """Sylvester resultant eliminating x; a polynomial in y.

    Convention: sympy's ``dmp_resultant(G, F)``, so that
    Res_x(x - y^2, x - y) = y - y^2.  Let a1, a2 be the x-degrees of f
    and g, and Res(A, B) = lc(A)^deg B * prod B(beta) over the roots
    beta of A, the Sylvester determinant; Res(B, A) = (-1)^(a1*a2)
    Res(A, B).  sympy's PRS puts the form of larger degree first and
    fixes no sign, so its value is Res(G, F) when a2 >= a1 and Res(F, G)
    when a1 > a2.  With F, G the primitive forms of f and g (rows f_i,
    g_i of ``_x_rows``, polynomials in y), one of three routes computes
    it exactly, in integer list arithmetic:

    - a1 = 1 or a2 = 1: substitution (``_substitute``).  For
      F = f1*x + f0, Res(F, G) = f1^a2 * G(-f0/f1)
      = sum g_i*(-f0)^i*f1^(a2-i), and a2 >= a1, so the value is
      Res(G, F) = (-1)^a2 Res(F, G).  For G = g1*x + g0 and a1 > 1,
      Res(G, F) = g1^a1 * F(-g0/g1) = sum f_i*(-g0)^i*g1^(a1-i), and the
      value is Res(F, G) = (-1)^a1 Res(G, F).
    - a1, a2 in {2, 3}: the Bezoutian (``_bezout_det``) of both forms
      read with the formal degree n = max(a1, a2).  Its determinant is
      (-1)^(n(n-1)/2) Res_n,n(F, G) (Cox, Little, O'Shea, Using
      Algebraic Geometry, ch. 3), a polynomial identity in the
      coefficients, so it holds when the smaller form is padded with a
      zero leading coefficient, and Res_n,n(G, F) = (-1)^n Res_n,n(F, G).
      Padding a form of degree n - 1 to formal degree n multiplies the
      resultant by the other form's leading coefficient:
      Res_n,n(G, F) = g_n * Res(G, F) when a1 = n - 1, and
      Res_n,n(G, F) = (-1)^n f_n * Res(G, F) when a2 = n - 1 (swap the
      arguments, pad, and swap back).  So Res(G, F) is
      (-1)^(n(n+1)/2) det, times (-1)^n when a2 < a1, divided exactly by
      lc_x of the larger form when a1 != a2: - at (2, 2) and (3, 2),
      + at (3, 3) and (2, 3).  a1*a2 is even when a1 != a2, so this is
      sympy's value in every order.
    - otherwise sympy's subresultant PRS.  The Bezout route is not
      extended past n = 3: a Bareiss determinant of the Bezoutian lost
      to the PRS on unbalanced and larger shapes.
    """
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
    a1, a2 = f.deg_x(), g.deg_x()
    fr, gr = _x_rows(F), _x_rows(G)
    if a1 == 1:
        r, negate = _substitute(gr, *fr), a2 % 2
    elif a2 == 1:
        r, negate = _substitute(fr, *gr), a1 % 2
    elif a1 <= 3 and a2 <= 3:
        n = max(a1, a2)
        r = _bezout_det(fr, gr, n)
        if a1 != a2:
            r = _exquo(r, (gr if a2 > a1 else fr)[-1])
        negate = (n * (n + 1) // 2 + (n if a2 < a1 else 0)) % 2
    else:
        r, negate = _from_dup(dmp_resultant(_to_dmp(G), _to_dmp(F), 1, ZZ), "y").coeffs, False
    r = UPoly.make("y", [-c for c in r] if negate else r)
    # homogeneity: Res_x(uF, vG) = u^(deg_x G) * v^(deg_x F) * Res_x(F, G)
    unit = u**a2 * v**a1
    return r if unit == 1 else r.scale(unit)


def _substitute(rows: list, t0: list, t1: list) -> list:
    """sum r_i*(-t0)^i*t1^(n-i) for the rows [r_0, ..., r_n] of a form of
    x-degree n, by homogeneous Horner: the form evaluated at
    (x0 : x1) = (t1 : -t0)."""
    s = [-c for c in t0]
    acc, power = rows[-1], [1]
    for r in reversed(rows[:-1]):
        power = _mul(power, t1)
        acc = _add(_mul(acc, s), _mul(r, power))
    return acc


def _bezout_det(fr: list, gr: list, n: int) -> list:
    """Determinant of the n x n Bezoutian, n = 2 or 3, of two forms given
    by their ``_x_rows`` and read with formal x-degree n: the
    coefficients B[i][j] of x^i z^j in (F(x)G(z) - F(z)G(x)) / (x - z).
    Each pair b < a adds c = f_a g_b - f_b g_a times
    (x^a z^b - x^b z^a) / (x - z) = sum over t < a - b of x^(a-1-t) z^(b+t)."""
    f = fr + [[]] * (n + 1 - len(fr))
    g = gr + [[]] * (n + 1 - len(gr))
    B = [[[] for _ in range(n)] for _ in range(n)]
    for a in range(1, n + 1):
        for b in range(a):
            c = _add(_mul(f[a], g[b]), _mul(f[b], [-v for v in g[a]]))
            for t in range(a - b):
                B[a - 1 - t][b + t] = _add(B[a - 1 - t][b + t], c)

    def minor(i, j, k, l):
        return _add(_mul(B[i][k], B[j][l]), _mul(B[i][l], [-v for v in B[j][k]]))

    if n == 2:
        return minor(0, 1, 0, 1)
    return _add(
        _add(_mul(B[0][0], minor(1, 2, 1, 2)), _mul(B[0][1], [-v for v in minor(1, 2, 0, 2)])),
        _mul(B[0][2], minor(1, 2, 0, 1)),
    )


def factor_q(f: UPoly) -> tuple[Scalar, tuple[tuple[UPoly, int], ...]]:
    """Complete factorization over Q into primitive integer irreducibles
    with positive leading coefficient, the form of a place.

    Returns (unit, ((factor, multiplicity), ...)) with
    unit * prod(factor**mult) == f exactly, the factors sorted by degree,
    then coefficients.  Raises DegreeBound when the degree exceeds
    DEFAULT_FACTOR_DEGREE_BOUND.  A power of the variable is split off
    first.  Degrees 1 and 2 are decided in integers (a quadratic by its
    discriminant), and degree n >= 3 by degree patterns mod small primes,
    which prove most such inputs irreducible; when they leave only factor
    degrees 1 and n - 1 possible, the rational roots, Hensel-lifted from
    the roots mod p, decide the rest.  Only inputs that may still have a
    factor of degree 2 to n - 2 go to sympy's ``dup_factor_list``.  The
    proofs are in ``_factor_primitive_q``.  The memo is keyed on the
    primitive form, so f and c*f share one entry for every nonzero
    rational c.
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


@memo
def _factor_primitive_q(q: UPoly) -> tuple[Scalar, tuple[tuple[UPoly, int], ...]]:
    """``factor_q`` of a primitive integer q of positive degree in t.

    First t^k, for the k low zero coefficients of q, is split off as the
    factor (t, k).  The cofactor c = q / t^k has the same coefficients as
    q, so it is primitive with a positive leading coefficient too, and it
    is decided here, not by a recursive call of this memo.  A constant c
    (then c = 1) adds no factor, and a linear c is its own factor.

    A quadratic c = a*t^2 + b*t + d is decided by D = b^2 - 4ad.  When D
    is no integer square, c has no rational root, so no linear factor over
    Q, and is irreducible.  When D = s^2 its roots (-b -+ s)/2a, in lowest
    terms n/e with e > 0, give the primitive factors e*t - n, squared when
    s = 0, and the unit is 1: c and the product of the factors have the
    same roots, so they differ by a rational factor; both are primitive
    (the product by Gauss's lemma) with a positive leading coefficient, so
    that factor is 1.

    For c of degree n >= 3, ``_pattern_verdict`` reads the degrees of the
    factors of c mod p at the primes of ``PATTERN_PRIMES`` in turn.  It
    skips a prime p that divides lc(c) or at which c mod p is not
    squarefree, and keeps the candidates C: the degrees 0 < d < n that are
    a sum of factor degrees at every prime it used.  Every factor of c
    over Z has its degree in C.  Proof: let c = g*h over Z with deg g = d,
    0 < d < n; by Gauss's lemma such a split exists for every
    factorization over Q.  Since p does not divide lc(c) = lc(g)*lc(h),
    g mod p keeps degree d.  As c mod p is squarefree, its monic
    irreducible factors are distinct and each divides exactly one of
    g mod p and h mod p (unique factorization in GF(p)[t]), so d is the
    sum of the degrees of those that divide g mod p.  An empty C proves c
    irreducible.

    When C is a subset of {1, n - 1} after a usable prime p,
    ``_rational_roots`` decides c at p.  It lifts each root r of c mod p
    by Newton's iteration to the root mod M = p^(2^k), for the first k
    with M > 2*|lc(c)*c(0)| (c(0) != 0, as t^k is split off), takes the
    symmetric residue m of lc(c)*r mod M, and keeps m/lc(c) when it is a
    root of c in Q.  Every rational root is found: c is squarefree mod p
    and p does not divide lc(c), so a root a/b in lowest terms (b divides
    lc(c), a divides c(0)) reduces to a simple root mod p, which by
    Hensel's lemma has exactly one p-adic lift, a/b itself; lc(c)*a/b is
    an integer of absolute value at most |lc(c)*c(0)| < M/2, so the
    symmetric residue is that integer.  The roots are simple (c mod p is
    squarefree, so c is), each gives the primitive factor b*t - a, and
    the cofactor h, c divided exactly by them, is irreducible or 1: it
    has no rational root, so a proper split h = h1*h2 over Z has
    deg h1, deg h2 >= 2, and h1 would be a factor of c of degree 2 to
    n - 2, which is not in C.  The unit is 1, as for the quadratic: the
    factors are primitive with positive leading coefficients and their
    product is c, by Gauss's lemma and unique factorization.  Each cubic
    is decided at its first usable prime, as its C lies in {1, 2}.

    Only when the test stops with another C (at most
    ``PATTERN_MAX_PRIMES`` usable primes, or ``PATTERN_STALL`` in a row
    that leave C as it was) does c go to sympy's ``dup_factor_list``
    (Zassenhaus).
    """
    cs = q.coeffs
    k = 0
    while cs[k] == 0:
        k += 1
    out = [(UPoly(q.var, (0, 1)), k)] if k else []
    c = UPoly(q.var, cs[k:]) if k else q
    n = c.degree()
    unit = 1
    roots = _pattern_verdict(c.coeffs) if n >= 3 else ()
    if n == 2:
        d0, b, a = c.coeffs
        disc = b * b - 4 * a * d0
        s = isqrt(max(disc, 0))
        if s * s != disc:
            out.append((c, 1))
        else:
            zeros = (Fraction(-b - s, 2 * a), Fraction(-b + s, 2 * a))
            lin = [UPoly(q.var, (-r.numerator, r.denominator)) for r in zeros]
            out += [(lin[0], 2)] if s == 0 else [(lin[0], 1), (lin[1], 1)]
    elif roots is None:
        content, fac = dup_factor_list(_to_dup(c), ZZ)
        unit = int(content)
        for p, m in fac:
            u, irr = primitive_int_upoly(_from_dup(p, q.var))
            unit *= u**m
            out.append((irr, m))
    else:
        for a, b in roots:
            out.append((UPoly(q.var, (-a, b)), 1))
            c = UPoly(q.var, tuple(_exquo(c.coeffs, (-a, b))))
        if c.degree() > 0:
            out.append((c, 1))
    out.sort(key=lambda t: (t[0].degree(), t[0].coeffs))
    return _frac(unit), tuple(out)


# ---------------------------------------------------------------------------
# degree patterns mod p, on plain int lists over GF(p), low degree first

# the odd primes the pattern test tries in turn, the most of them it
# uses, and how many usable primes in a row that leave its candidate
# degrees unchanged stop it (CHANGES.md has the table that chose them);
# the certificate stops on its points by the same two counts
PATTERN_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
PATTERN_MAX_PRIMES = 8
PATTERN_STALL = 3


def _pattern_verdict(cs: Sequence[int]) -> Optional[tuple[tuple[int, int], ...]]:
    """The rational roots (a, b), meaning a/b in lowest terms with b > 0,
    of the primitive integer polynomial with coefficients cs (degree
    n >= 3, cs[0] != 0) when its degree patterns mod p decide it: () when
    they prove it irreducible, the roots when they leave only factor
    degrees 1 and n - 1; None when they leave it undecided (the proof is
    in ``_factor_primitive_q``, the rule in ``_degree_sets``)."""
    n = len(cs) - 1
    verdict = _degree_sets(n, ((p, _degree_pattern(cs, p)) for p in PATTERN_PRIMES), 2 | 1 << (n - 1))
    if verdict is None:
        return None
    candidates, p, pattern = verdict
    return _rational_roots(cs, p, pattern.count(1)) if candidates else ()


def _degree_sets(n: int, patterns: Iterable, enough: int = 0) -> Optional[tuple]:
    """The degree-set rule.  The candidates C start as the degrees
    0 < d < n, a mask in which bit d stands for degree d.  Each
    (point, degrees) of ``patterns`` in turn, degrees being the factor
    degrees at that point with multiplicity (None for a point that is
    skipped), keeps in C the degrees that are a sum of some of them.
    Returns (C, point, degrees) once C is empty (at once, with no point,
    when it starts empty) or lies within the mask ``enough`` after a
    point; None when the patterns run out or the test stops:
    ``PATTERN_MAX_PRIMES`` usable points, or ``PATTERN_STALL`` in a row
    that leave C as it was."""
    candidates = (1 << n) - 2
    if not candidates:
        return 0, None, None
    used = unchanged = 0
    for point, degrees in patterns:
        if degrees is None:
            continue
        sums = 1
        for d in degrees:
            sums |= sums << d
        narrowed = candidates & sums
        if not narrowed & ~enough:
            return narrowed, point, degrees
        unchanged = unchanged + 1 if narrowed == candidates else 0
        candidates = narrowed
        used += 1
        if used == PATTERN_MAX_PRIMES or unchanged == PATTERN_STALL:
            return None
    return None


def _rational_roots(cs: Sequence[int], p: int, count: int) -> tuple[tuple[int, int], ...]:
    """The rational roots (a, b) of cs, for a usable prime p at which cs
    has ``count`` roots: each root mod p, found by evaluation, is lifted
    past 2*|lc*cs[0]| and kept when lc times it, as a symmetric residue,
    over lc is a root in Q (proof in ``_factor_primitive_q``)."""
    lc = cs[-1]
    bound = 2 * abs(lc * cs[0])
    roots = []
    for r in range(p):
        v = 0
        for c in reversed(cs):
            v = (v * r + c) % p
        if v:
            continue
        r, mod = _hensel_lift(cs, r, p, bound)
        m = lc * r % mod
        if 2 * m > mod:
            m -= mod
        g = gcd(m, lc)
        a, b = m // g, lc // g
        v, w = 0, 1
        for c in reversed(cs):
            v, w = v * a + c * w, w * b
        if not v:
            roots.append((a, b))
        count -= 1
        if not count:
            break
    return tuple(roots)


def _hensel_lift(cs: Sequence[int], r: int, p: int, bound: int) -> tuple[int, int]:
    """(root, M): a simple root r of cs mod p lifted by Newton's iteration
    (von zur Gathen and Gerhard, Modern Computer Algebra, section 15.4) to
    the root mod M = p^(2^k), for the first k with M > bound."""
    mod = p
    while mod <= bound:
        mod *= mod
        v = dv = 0
        for c in reversed(cs):
            v, dv = (v * r + c) % mod, (dv * r + v) % mod
        r = (r - v * pow(dv, -1, mod)) % mod
    return r, mod


def _degree_pattern(cs: Sequence[int], p: int) -> Optional[list[int]]:
    """The degrees of the irreducible factors of f = cs mod p, with
    repetition; None when p divides the leading coefficient or f is not
    squarefree (gcd(f, f') is not constant)."""
    lc = cs[-1] % p
    if not lc:
        return None
    inv = pow(lc, -1, p)
    f = [c * inv % p for c in cs]
    df = _trim([i * c % p for i, c in enumerate(f)][1:])
    if len(_gcd_p(f, df, p)) > 1:
        return None
    return _ddf_p(f, p)


def _ddf_p(f: list[int], p: int) -> list[int]:
    """The degrees of the irreducible factors of a monic squarefree f of
    positive degree over GF(p), by distinct-degree factorization (von zur
    Gathen and Gerhard, Modern Computer Algebra, section 14.2): after the
    factors of degree below d are divided out of g, gcd(g, t^(p^d) - t) is
    the product of those of degree d, and once 2d > deg g what is left is
    irreducible.  h = t^(p^d) is kept mod f: h^p = sum h_i t^(i p), as
    h_i^p = h_i, so ``rows`` holds t^(i p) mod f; g divides f, so h - t
    mod f serves for g as well."""
    n = len(f) - 1
    rows = [[1]]
    for _ in range(1, n):
        rows.append(_divmod_p([0] * p + rows[-1], f, p)[1])
    degrees: list[int] = []
    h, g, d = [0, 1], f, 0
    while 2 * d + 2 < len(g):
        d += 1
        acc = [0] * n
        for hi, row in zip(h, rows):
            if hi:
                for j, r in enumerate(row):
                    acc[j] += hi * r
        h = _trim([a % p for a in acc])
        t = h + [0] * (2 - len(h))
        t[1] = (t[1] - 1) % p
        common = _gcd_p(g, _divmod_p(_trim(t), g, p)[1], p)
        if len(common) > 1:
            degrees += [d] * ((len(common) - 1) // d)
            g = _divmod_p(g[:], common, p)[0]
    if len(g) > 1:
        degrees.append(len(g) - 1)
    return degrees


def _divmod_p(a: list[int], f: list[int], p: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by a monic f over GF(p); a is
    overwritten."""
    n = len(f) - 1
    quo = [0] * max(len(a) - n, 0)
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i] % p
        if c:
            quo[i - n] = c
            s = i - n
            for j in range(n):
                a[s + j] -= c * f[j]
    return quo, _trim([c % p for c in a[:n]])


def _gcd_p(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd over GF(p) of a monic a and a reduced b."""
    while b:
        inv = pow(b[-1], -1, p)
        a, b = [c * inv % p for c in b], a
        b = _divmod_p(b[:], a, p)[1]
    return a


# ---------------------------------------------------------------------------
# bivariate irreducibility certification


@memo
def y_content(f: BPoly) -> UPoly:
    """Monic gcd of the coefficients of a nonzero f in x, a polynomial
    in y.

    It is read as 1 in integers when some row (coefficient of a power of
    x) of the primitive form of f is a nonzero constant, or when
    ``_rows_coprime_mod_p`` finds the top row coprime mod p to another
    row at one of up to three primes p; sympy's ``dmp_content`` computes
    it otherwise.

    Proof of the second test, at each such p.  The content c(y) of the
    primitive form is a primitive integer polynomial (Gauss's lemma) and
    divides every row in Z[y].  lc(c) divides the leading coefficient of
    the top row, and p does not, so c mod p keeps the degree of c and
    divides both rows mod p.  Their gcd mod p is constant, so deg c = 0.
    """
    g = primitive_int_bpoly(f)[1]
    rows = _x_rows(g)
    if any(len(row) == 1 for row in rows) or _rows_coprime_mod_p(rows):
        return UPoly.const("y", 1)
    return _from_dup(dmp_content(_to_dmp(g), 1, ZZ), "y").monic()


def _rows_coprime_mod_p(rows: list[list[int]]) -> bool:
    """True when the last of the integer rows (low degree first, the last
    nonzero) and some other nonzero row are coprime mod p, at one of the
    first three primes of ``PATTERN_PRIMES`` that do not divide the last
    row's leading coefficient; False when no other row is at any of them."""
    top = rows[-1]
    for p in [p for p in PATTERN_PRIMES if top[-1] % p][:3]:
        inv = pow(top[-1], -1, p)
        monic = [c * inv % p for c in top]
        if any(len(_gcd_p(monic, _trim([c % p for c in row]), p)) == 1 for row in rows[:-1] if row):
            return True
    return False


def content_free_both_ways(f: BPoly) -> bool:
    """True when no nonconstant polynomial in y alone, nor in x alone,
    divides f."""
    return y_content(f).degree() == 0 and y_content(f.transpose()).degree() == 0


def certify_irreducible_bivariate(q: BPoly) -> bool:
    """A sound sufficient test that a nonzero q is irreducible over Q:
    the degree-set rule of ``_pattern_verdict`` (``_degree_sets``), read
    over Q at several points.

    Let g be whichever of q and q.transpose() has the smaller x-degree n
    (q on a tie).  The test returns False when g(0, y) = 0 or y_content(g)
    is not constant: then x or the content divides g, a proper factor
    when g has positive degree in both variables.  Otherwise it narrows
    the candidate degrees 1..n - 1 by the factor degrees, with
    multiplicity, of g(x, c) (``factor_q``) at the points c = 1, -1, 2,
    -2, ... that are zeros of neither lc_x(g) nor g(0, y), and returns
    True once no degree is left.  With n = 1 none is left to begin with,
    so no point is read.  It returns False when ``_degree_sets`` stops;
    False means only that the rule did not prove q prime.  Raises
    DegreeBound when g(x, c) is past the degree bound of ``factor_q``.

    Proof.  q and its transpose are irreducible together.  Let g = a*b
    with neither factor constant.  A factor of x-degree 0 lies in Q[y] and
    divides every x-coefficient of g, hence y_content(g); as that is
    constant, d = deg_x a lies in 1..n - 1.  At a point c,
    lc_x(g)(c) = lc_x(a)(c)*lc_x(b)(c) is nonzero, so a(x, c) has degree
    d and divides g(x, c); by unique factorization in Q[x] its
    irreducible factors are some of those of g(x, c), counted with
    multiplicity, so d is a sum of some of their degrees.  So d stays a
    candidate at every point, and no candidate left proves g irreducible.
    The proof needs only lc_x(g)(c) != 0; skipping the zeros of g(0, y)
    only avoids points where x divides g(x, c), which rule out neither 1
    nor n - 1.
    """
    g = q.transpose() if q.deg_y() < q.deg_x() else q
    # the terms are sorted, so the first has the least power of x
    if g.terms[0][0][0] > 0 or y_content(g).degree() > 0:
        return False
    return _degree_sets(g.deg_x(), _specializations(g)) is not None


def _specializations(g: BPoly) -> Iterator[tuple[int, list[int]]]:
    """(c, the factor degrees of g(x, c) with multiplicity) at c = 1, -1,
    2, -2, ..., skipping the zeros of lc_x(g) and g(0, y).  Nothing is
    built before the first point is asked for, so a curve of x-degree 1,
    which needs no point, pays for none."""
    lc, tail = g.coeff_of_x(g.deg_x()), g.coeff_of_x(0)
    for k in count(1):
        for c in (k, -k):
            if lc.eval(c) and tail.eval(c):
                yield c, [p.degree() for p, m in factor_q(g.eval_y(c))[1] for _ in range(m)]


# ---------------------------------------------------------------------------
# rendering


def _fmt_coeff(c: Scalar) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _power_text(var: str, e: int) -> str:
    return "" if e == 0 else var if e == 1 else f"{var}^{e}"


def render_sum(terms) -> str:
    """The signed sum of ``(coefficient, text)`` pairs, in their order:
    spaced signs between terms, no coefficient of +-1 before a text, the
    coefficient alone for an empty text, and "0" for no terms."""
    parts = []
    for c, text in terms:
        sign = (" - " if c < 0 else " + ") if parts else ("-" if c < 0 else "")
        a = abs(c)
        if not text:
            parts.append(sign + _fmt_coeff(a))
        elif a == 1:
            parts.append(sign + text)
        else:
            parts.append(f"{sign}{_fmt_coeff(a)}*{text}")
    return "".join(parts) or "0"


def render_upoly(p: UPoly) -> str:
    return render_sum(
        (c, _power_text(p.var, i)) for i, c in reversed(tuple(enumerate(p.coeffs))) if c != 0
    )


def render_bpoly(p: BPoly) -> str:
    terms = sorted(p.terms, key=lambda t: (-(t[0][0] + t[0][1]), -t[0][0], -t[0][1]))
    return render_sum(
        (c, "*".join(filter(None, (_power_text("x", i), _power_text("y", j)))))
        for (i, j), c in terms
    )
