"""Exact rational and polynomial arithmetic.

Univariate polynomials are dense coefficient tuples tagged with their
variable, bivariate polynomials are sparse exponent maps.  The dense
arithmetic this module does itself runs on plain coefficient lists, low
degree first (``_add``, ``_mul``, ``_exquo``, the rows of ``_x_rows``):
``UPoly``'s sum and product, the fiber resultants of x-degree at most 3
in closed form and the cofactor of a rational root.  ``factor_q``
decides every input in plain integers too: it splits off powers of the
variable, decides degrees 1 and 2 (a quadratic by its discriminant), and
decides most higher degrees from their degree patterns mod small primes,
finished by Hensel-lifted rational roots when only a linear factor is
left possible; the rest go through a squarefree split when no small
prime was usable, then Zassenhaus's algorithm at the pattern prime with
the fewest factors.  The certificate proves a curve prime by the same
degree-set rule over Q, read at several points, and its content in y
constant by a constant row, a gcd mod p or a resultant.  The one bridge
to sympy holds only the fallbacks: Wang's factorization, for curves
whose degree sets leave a proper factor possible, and the PRS resultant
past x-degree 3.  The bridge works over ZZ only:
each bridged call puts its inputs in primitive integer form
(``primitive_int_bpoly``) and puts their rational units back exactly,
so everything stays exact.  The bridge loads on first use
(``_load_bridge``): sympy is imported by the first fallback call, so a
process that needs no fallback never imports it.  Both factorizers
return primitive integer irreducibles with a positive leading
coefficient, the form in which places store their polynomials.  No
other module of the package imports sympy.

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
empties every one of them.  Here ``factor_b`` (key: the polynomial) is
memoized; the verify oracle (``oracles``) memoizes
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
from itertools import combinations, count
from math import gcd, isqrt, lcm
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import DegreeBound, InconsistentResult

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
        if not isinstance(other, UPoly):
            return NotImplemented
        self._check(other)
        return UPoly.make(self.var, _add(self.coeffs, other.coeffs))

    def __neg__(self) -> "UPoly":
        return UPoly(self.var, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UPoly") -> "UPoly":
        return self + (-other) if isinstance(other, UPoly) else NotImplemented

    def __mul__(self, other: Union["UPoly", int, Fraction]) -> "UPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, UPoly):
            return NotImplemented
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
        if not isinstance(other, BPoly):
            return NotImplemented
        d = self.as_dict()
        for k, v in other.terms:
            d[k] = d.get(k, 0) + v
        return BPoly.make(d)

    def __neg__(self) -> "BPoly":
        return BPoly(tuple((k, -v) for k, v in self.terms))

    def __sub__(self, other: "BPoly") -> "BPoly":
        return self + (-other) if isinstance(other, BPoly) else NotImplemented

    def __mul__(self, other: Union["BPoly", int, Fraction]) -> "BPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, BPoly):
            return NotImplemented
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
# A BPoly becomes a level-1 ``dmp`` list with x as the main variable: one
# ``dup`` list in y per power of x, and a resultant comes back as a
# ``dup`` in y.  Both list the highest degree first.  Coefficients live
# in ZZ: every bridged call first puts its inputs in primitive integer
# form and puts their rational units back exactly afterwards.  They are
# read back through int(), which holds under every sympy ground type.
#
# The bridge loads on first use: each of the two bridged call sites
# runs ``_load_bridge`` before the call, which also sets the ``ZZ`` that
# ``_to_dmp`` reads.  The three names are attributes of this
# module from import on, None until the first load; the load fills only
# the names still None, so a name replaced beforehand (a test's
# ``monkeypatch.setattr``) stays replaced.

_BRIDGED = ("ZZ", "dmp_resultant", "dmp_factor_list")
ZZ = dmp_resultant = dmp_factor_list = None


def _load_bridge() -> None:
    """Set each bridged name that is still None to sympy's object,
    importing sympy on the first call; later calls only look it up."""
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dmp_resultant
    from sympy.polys.factortools import dmp_factor_list

    loaded = locals()
    for n in _BRIDGED:
        if globals()[n] is None:
            globals()[n] = loaded[n]


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
# resultants


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
    _load_bridge()
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
        _load_bridge()
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
    the roots mod p, decide the rest.  The inputs they leave open are
    finished here too, in plain integers: a squarefree split when no
    prime was usable, then Zassenhaus's algorithm at the pattern prime
    with the fewest factors, its recombination pruned by the degrees the
    patterns left.  The proofs are in ``_irreducibles``.  The memo is
    keyed on the primitive form, so f and c*f share one entry for every
    nonzero rational c.
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
    q, so it is primitive with a positive leading coefficient too, and
    ``_irreducibles`` factors it when it is not constant (then c = 1).
    The unit is 1: the factors are primitive with positive leading
    coefficients, so their product with multiplicities is primitive with
    a positive leading coefficient (Gauss's lemma), and it equals q up to
    a rational factor by unique factorization, which is therefore 1.
    """
    cs = q.coeffs
    k = 0
    while cs[k] == 0:
        k += 1
    out = [(UPoly(q.var, (0, 1)), k)] if k else []
    if len(cs) - k > 1:
        out += [(UPoly(q.var, g), m) for g, m in _irreducibles(cs[k:])]
    out.sort(key=lambda t: (t[0].degree(), t[0].coeffs))
    return 1, tuple(out)


def _irreducibles(c: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """The irreducible factors over Z of a primitive integer polynomial c
    of degree n >= 1 with c[0] != 0 and a positive leading coefficient,
    each primitive with a positive leading coefficient, with their
    multiplicities.

    A linear c is its own factor.  A quadratic c = a*t^2 + b*t + d is
    decided by D = b^2 - 4ad.  When D is no integer square, c has no
    rational root, so no linear factor over Q, and is irreducible.  When
    D = s^2 its roots (-b -+ s)/2a, in lowest terms n/e with e > 0, give
    the primitive factors e*t - n, squared when s = 0: c and the product
    of the factors have the same roots and are both primitive with a
    positive leading coefficient, so they are equal.

    For n >= 3, the degree patterns read the degrees of the factors of c
    mod p at the primes of ``PATTERN_PRIMES`` in turn (``_degree_sets``).
    They skip a prime p that divides lc(c) or at which c mod p is not
    squarefree, and keep the candidates C: the degrees 0 < d < n that are
    a sum of factor degrees at every prime they used (a usable prime).
    Every factor of c over Z has its degree in C.  Proof: let c = g*h
    over Z with deg g = d, 0 < d < n; by Gauss's lemma such a split exists
    for every factorization over Q.  Since p does not divide
    lc(c) = lc(g)*lc(h), g mod p keeps degree d.  As c mod p is
    squarefree, its monic irreducible factors are distinct and each
    divides exactly one of g mod p and h mod p (unique factorization in
    GF(p)[t]), so d is the sum of the degrees of those that divide g mod
    p.  An empty C proves c irreducible.

    A usable prime also proves c squarefree: were c = a^2*b over Z with
    deg a > 0, a mod p would keep its degree (p does not divide lc(c),
    so neither lc(a)), and its square would divide c mod p.

    When C is a subset of {1, n - 1} after a usable prime p,
    ``_rational_roots`` decides c at p.  It lifts each root r of c mod p
    by Newton's iteration to the root mod M = p^(2^k), for the first k
    with M > 2*|lc(c)*c(0)|, takes the symmetric residue m of lc(c)*r mod
    M, and keeps m/lc(c) when it is a root of c in Q.  Every rational
    root is found: p does not divide lc(c) and c mod p is squarefree, so
    a root a/b in lowest terms (b divides lc(c), a divides c(0)) reduces
    to a simple root mod p, which by Hensel's lemma has exactly one
    p-adic lift, a/b itself; lc(c)*a/b is an integer of absolute value at
    most |lc(c)*c(0)| < M/2, so the symmetric residue is that integer.
    The roots are simple (c is squarefree), each gives the primitive
    factor b*t - a, and the cofactor h, c divided exactly by them, is
    irreducible or 1: it has no rational root, so a proper split
    h = h1*h2 over Z has deg h1, deg h2 >= 2, and h1 would be a factor of
    c of degree 2 to n - 2, which is not in C.  Each cubic is decided at
    its first usable prime, as its C lies in {1, 2}.

    When the patterns stop with another C (after ``PATTERN_MAX_PRIMES``
    usable primes, or ``PATTERN_STALL`` in a row that leave C as it was),
    ``_zassenhaus`` finishes c at the usable prime with the fewest
    factors, pruned by C.  When no prime of ``PATTERN_PRIMES`` was usable,
    c may have a square factor: ``_squarefree_parts`` splits it, c =
    prod a_i^i, and each a_i of positive degree is factored by this rule
    again, its factors taking multiplicity i.  The a_i are squarefree and
    pairwise coprime, so the multiplicities are right, and each has
    degree below n unless c is squarefree (then c = a_1), so the
    recursion ends.  A c that is squarefree takes the first usable prime past
    ``PATTERN_PRIMES`` (``_usable_prime``), which decides it by the same
    rule, or finishes it.
    """
    c = tuple(c)
    n = len(c) - 1
    if n == 1:
        return [(c, 1)]
    if n == 2:
        d0, b, a = c
        disc = b * b - 4 * a * d0
        s = isqrt(max(disc, 0))
        if s * s != disc:
            return [(c, 1)]
        zeros = [Fraction(-b - s, 2 * a), Fraction(-b + s, 2 * a)]
        lin = [(-r.numerator, r.denominator) for r in zeros]
        return [(lin[0], 2)] if s == 0 else [(lin[0], 1), (lin[1], 1)]
    ends = 2 | 1 << (n - 1)
    candidates, p, degrees = _degree_sets(n, ((p, _degree_pattern(c, p)) for p in PATTERN_PRIMES), ends)
    if p is None:
        parts = _squarefree_parts(c)
        if all(len(a) < len(c) for a, _ in parts):
            return [(g, i * m) for a, i in parts for g, m in _irreducibles(a)]
        candidates, p, degrees = _degree_sets(n, [_usable_prime(c)], ends)
    if not candidates:
        return [(c, 1)]
    if candidates & ~ends:
        return [(g, 1) for g in _zassenhaus(c, p, candidates)]
    out = []
    for a, b in _rational_roots(c, p, degrees.count(1)):
        out.append(((-a, b), 1))
        c = tuple(_exquo(c, (-a, b)))
    return out + [(c, 1)] if len(c) > 1 else out


# ---------------------------------------------------------------------------
# degree patterns mod p, on plain int lists over GF(p), low degree first

# the odd primes the pattern test tries in turn, the most of them it
# uses, and how many usable primes in a row that leave its candidate
# degrees unchanged stop it (CHANGES.md has the table that chose them);
# the certificate stops on its points by the same two counts
PATTERN_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
PATTERN_MAX_PRIMES = 8
PATTERN_STALL = 3


def _degree_sets(n: int, patterns: Iterable, enough: int = 0) -> tuple:
    """The degree-set rule.  The candidates C start as the degrees
    0 < d < n, a mask in which bit d stands for degree d.  Each
    (point, degrees) of ``patterns`` in turn, degrees being the factor
    degrees at that point with multiplicity (None for a point that is
    skipped), keeps in C the degrees that are a sum of some of them.

    Returns (C, point, degrees).  Once C is empty or lies within the mask
    ``enough`` after a point, that point and its degrees (C = 0 and no
    point when C starts empty).  When the patterns run out or the test
    stops (``PATTERN_MAX_PRIMES`` usable points, or ``PATTERN_STALL`` in a
    row that leave C as it was), the C left, which reaches outside
    ``enough``, and the usable point with the fewest degrees, the first
    of them on a tie; None and None when no point was usable."""
    candidates = (1 << n) - 2
    if not candidates:
        return 0, None, None
    used = unchanged = 0
    best = None, None
    for point, degrees in patterns:
        if degrees is None:
            continue
        sums = 1
        for d in degrees:
            sums |= sums << d
        narrowed = candidates & sums
        if not narrowed & ~enough:
            return narrowed, point, degrees
        if best[1] is None or len(degrees) < len(best[1]):
            best = point, degrees
        unchanged = unchanged + 1 if narrowed == candidates else 0
        candidates = narrowed
        used += 1
        if used == PATTERN_MAX_PRIMES or unchanged == PATTERN_STALL:
            break
    return (candidates, *best)


def _usable_prime(c: Sequence[int]) -> tuple[int, list[int]]:
    """(p, the degree pattern of c at p) for the first odd prime p past
    ``PATTERN_PRIMES`` that is usable for a squarefree c of degree
    n >= 3.  InconsistentResult past the bound below, which no squarefree
    c reaches, so the search never loops.

    A prime is unusable exactly when it divides lc(c)*disc(c) =
    +-Res(c, c'), a nonzero integer as c is squarefree.  By Hadamard's
    inequality on the Sylvester matrix, |Res(c, c')| <=
    |c|_2^(n-1) * |c'|_2^n, so Res(c, c') has fewer distinct prime
    factors than half the bit length of S(c)^(n-1) * S(c')^n, S being
    the sum of the squared coefficients, plus one."""
    n = len(c) - 1
    dc = [i * a for i, a in enumerate(c)][1:]
    bad = (sum(a * a for a in c) ** (n - 1) * sum(a * a for a in dc) ** n).bit_length() // 2 + 1
    p = PATTERN_PRIMES[-1]
    while bad >= 0:
        p += 2
        if any(p % q == 0 for q in range(3, isqrt(p) + 1, 2)):
            continue
        degrees = _degree_pattern(c, p)
        if degrees is not None:
            return p, degrees
        bad -= 1
    raise InconsistentResult("no usable prime: the input is not squarefree")


def _rational_roots(cs: Sequence[int], p: int, count: int) -> tuple[tuple[int, int], ...]:
    """The rational roots (a, b), meaning a/b in lowest terms with b > 0,
    of cs, for a usable prime p at which cs has ``count`` roots: each
    root mod p, found by evaluation, is lifted past 2*|lc*cs[0]| and
    kept when lc times it, as a symmetric residue, over lc is a root in Q
    (proof in ``_irreducibles``)."""
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
    the root mod M = p^(2^k), for the first k with M > bound.
    InconsistentResult when r is a multiple root mod p, which no root of
    cs at a usable prime is."""
    mod = p
    while mod <= bound:
        mod *= mod
        v = dv = 0
        for c in reversed(cs):
            v, dv = (v * r + c) % mod, (dv * r + v) % mod
        try:
            r = (r - v * pow(dv, -1, mod)) % mod
        except ValueError:
            raise InconsistentResult(f"{r} is a multiple root mod {p}") from None
    return r, mod


def _degree_pattern(cs: Sequence[int], p: int) -> Optional[list[int]]:
    """The degrees of the irreducible factors of f = cs mod p, with
    repetition, read off the products of ``_ddf_p``; None when p divides
    the leading coefficient or f is not squarefree (gcd(f, f') is not
    constant)."""
    lc = cs[-1] % p
    if not lc:
        return None
    inv = pow(lc, -1, p)
    f = [c * inv % p for c in cs]
    df = _trim([i * c % p for i, c in enumerate(f)][1:])
    if len(_gcd_p(f, df, p)) > 1:
        return None
    return [d for d, g in _ddf_p(f, p) for _ in range((len(g) - 1) // d)]


def _ddf_p(f: list[int], p: int) -> list[tuple[int, list[int]]]:
    """The distinct-degree factorization of a monic squarefree f of
    positive degree over GF(p): (d, g_d) for each d at which f has
    irreducible factors, d ascending, g_d the monic product of those of
    degree d (von zur Gathen and Gerhard, Modern Computer Algebra,
    section 14.2).  After the factors of degree below d are divided out
    of g, gcd(g, t^(p^d) - t) is the product of those of degree d, and
    once 2d > deg g what is left is irreducible.  h = t^(p^d) is kept mod
    f: h^p = sum h_i t^(i p), as h_i^p = h_i, so ``rows`` holds t^(i p)
    mod f; g divides f, so h - t mod f serves for g as well, and
    ``_gcd_p`` reduces it mod g first only when deg(h - t) >= deg g.

    f is not overwritten, and the last g_d may be f itself.  With
    n = deg f, the rows cost about p*n^2 multiplications (row i is row
    i - 1 times t^p, reduced by up to p eliminations of n terms, inlined
    here), each h^p costs n^2, and each gcd and the exact division
    g / gcd cost deg g times the smaller degree."""
    n = len(f) - 1
    rows = [[1]]
    for _ in range(1, n):
        a = [0] * p + rows[-1]
        for i in range(len(a) - 1, n - 1, -1):
            c = a[i] % p
            if c:
                s = i - n
                for j in range(n):
                    a[s + j] -= c * f[j]
        rows.append(_trim([c % p for c in a[:n]]))
    products: list[tuple[int, list[int]]] = []
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
        common = _gcd_p(_trim(t), g, p)
        m = len(common) - 1
        if m:
            products.append((d, common))
            # g / common, exact, by long division from the top
            a = g[:]
            g = [0] * (len(a) - m)
            for i in range(len(g) - 1, -1, -1):
                c = g[i] = a[i + m] % p
                if c:
                    for j in range(m):
                        a[i + j] -= c * common[j]
    if len(g) > 1:
        products.append((len(g) - 1, g))
    return products


def _gcd_p(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd over GF(p) of a and b, reduced lists low degree
    first with no trailing zeros, either of them empty or not monic; []
    when both are empty.

    One Euclid loop on copies, so neither a nor b is overwritten.  A
    shorter a is swapped with b, so the first step reduces the longer
    list mod the shorter.  Each step reduces the dividend mod the divisor
    in place, eliminating its top term by c = (top coefficient) *
    inv(lc divisor) mod p; it builds no quotient and reduces mod p once
    per remainder.  The cost is about deg a * deg b multiplications and
    one inverse mod p per step."""
    if len(a) < len(b):
        a, b = b, a
    a, b = a[:], b[:]
    while b:
        n = len(b) - 1
        inv = pow(b[-1], -1, p)
        for i in range(len(a) - 1, n - 1, -1):
            c = a[i] * inv % p
            if c:
                s = i - n
                for j in range(n):
                    a[s + j] -= c * b[j]
        a, b = b, _trim([c % p for c in a[:n]])
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


# ---------------------------------------------------------------------------
# the finish: squarefree split over Z, then Zassenhaus's algorithm


def _divmod_mod(a: Sequence[int], b: Sequence[int], m: int) -> tuple[list[int], list[int]]:
    """(q, r) with a = q*b + r mod m and deg r < deg b, both reduced mod
    m, for a b whose leading coefficient is a unit mod m.  a is not
    overwritten."""
    n = len(b) - 1
    inv = pow(b[-1], -1, m)
    a = list(a)
    q = [0] * max(len(a) - n, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = a[i + n] * inv % m
        if c:
            for j in range(n):
                a[i + j] -= c * b[j]
    return q, _trim([c % m for c in a[:n]])


def _mod(a: Sequence[int], m: int) -> list[int]:
    return _trim([c % m for c in a])


def _sub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    return _add(a, [-c for c in b])


def _pp(a: Sequence[int]) -> list[int]:
    """The primitive part of a nonzero integer list, with a positive
    leading coefficient."""
    ints = _primitive(a, a[-1])[1]
    return list(a) if ints is None else ints


def _gcd_z(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The primitive gcd in Z[t] of a nonzero a and any b, with a positive
    leading coefficient: the last nonzero remainder of the primitive PRS
    (von zur Gathen and Gerhard, section 6.12), made primitive.  Each
    pseudo-remainder lc(b)^(deg a - deg b + 1)*a mod b is taken to its
    primitive part, which keeps the gcd up to a constant and the
    coefficients small; the primitive gcd is [1] once a remainder is a
    nonzero constant."""
    a = _pp(a)
    if not b:
        return a
    b = _pp(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        n, lb = len(b) - 1, b[-1]
        r = list(a)
        for i in range(len(r) - 1, n - 1, -1):
            c = r[i]
            if c:
                for j in range(i - n):
                    r[j] *= lb
                for j in range(n):
                    r[i - n + j] = r[i - n + j] * lb - c * b[j]
        r = _trim(r[:n])
        if not r:
            return b
        a, b = b, _pp(r)
    return [1]


def _squarefree_parts(c: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """[(a_i, i), ...] for the a_i of positive degree in c = prod a_i^i, a
    primitive integer c of positive degree with a positive leading
    coefficient: Yun's algorithm (von zur Gathen and Gerhard, section
    14.6) over Z.  The a_i are primitive with positive leading
    coefficients, squarefree and pairwise coprime.

    u = gcd(c, c'), v_1 = c/u, w_1 = c'/u, then a_i = gcd(v_i, w_i - v_i'),
    v_(i+1) = v_i/a_i and w_(i+1) = (w_i - v_i')/a_i until v_i is
    constant, which it is by i = deg c.  Over Q the invariants are v_i = prod_(j >= i) a_j and
    w_i - v_i' = a_i * sum_(j >= i) (j - i) a_j' v_i / a_j, up to one
    rational factor that v_i and w_i share; every gcd is primitive, so by
    Gauss's lemma it divides exactly in Z[t].  The product of the a_i^i
    is primitive with a positive leading coefficient and has the roots
    of c with their multiplicities, so it is c."""
    dc = [i * a for i, a in enumerate(c)][1:]
    u = _gcd_z(c, dc)
    v, w = _exquo(c, u), _exquo(dc, u)
    parts = []
    for i in range(1, len(c)):  # no multiplicity exceeds deg c
        if len(v) < 2:
            break
        y = _sub(w, [j * a for j, a in enumerate(v)][1:])
        a = _gcd_z(v, y)
        v, w = _exquo(v, a), _exquo(y, a)
        if len(a) > 1:
            parts.append((tuple(a), i))
    return parts


def _edf_p(g: list[int], d: int, p: int) -> list[list[int]]:
    """The monic irreducible factors over GF(p), p odd, of a monic
    squarefree g whose irreducible factors all have degree d: equal-degree
    factorization by Cantor and Zassenhaus (von zur Gathen and Gerhard,
    section 14.3).  For a with a^e, e = (p^d - 1)/2, the power is 0 or +-1
    in each field GF(p)[t]/(g_i), so gcd(a^e - 1, g) is the product of
    the g_i where it is 1.  The trial polynomials a are those whose
    coefficients are the base-p digits of p, p + 1, ...: by the Chinese
    remainder theorem one of degree below deg g is 0 mod g_1 and 1 mod
    g_2, which splits g, so the search stops.  The factors are unique, so
    the sequence chosen changes only the time, never the output."""
    m = len(g) - 1
    if m == d:
        return [g]
    for k in count(p):
        a = []
        while k:
            k, r = divmod(k, p)
            a.append(r)
        w, e = [1], (p**d - 1) // 2
        while e:
            if e & 1:
                w = _divmod_mod(_mul(w, a), g, p)[1]
            e >>= 1
            if e:
                a = _divmod_mod(_mul(a, a), g, p)[1]
        w = w + [0] * (1 - len(w))
        w[0] -= 1
        h = _gcd_p(_mod(w, p), g, p)
        if 1 < len(h) < len(g):
            return _edf_p(h, d, p) + _edf_p(_divmod_mod(g, h, p)[0], d, p)


def _gcdex_p(g: list[int], h: list[int], p: int) -> tuple[list[int], list[int]]:
    """(s, t) with s*g + t*h = 1 over GF(p), deg s < deg h and
    deg t < deg g, for coprime g and h of positive degree: the extended
    Euclidean algorithm, its last remainder made 1."""
    r0, r1, s0, s1, t0, t1 = g, h, [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod(_sub(s0, _mul(q, s1)), p)
        t0, t1 = t1, _mod(_sub(t0, _mul(q, t1)), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _hensel_step(
    f: list[int], g: list[int], h: list[int], s: list[int], t: list[int], m: int
) -> tuple[list[int], list[int], list[int], list[int]]:
    """One quadratic Hensel step (von zur Gathen and Gerhard, Algorithm
    15.10): from f = g*h and s*g + t*h = 1 mod m, with h monic,
    deg s < deg h and deg t < deg g, the same four relations mod m^2,
    each new polynomial congruent to the old one mod m."""
    M = m * m
    e = _mod(_sub(f, _mul(g, h)), M)
    q, r = _divmod_mod(_mod(_mul(s, e), M), h, M)
    g = _mod(_add(_add(g, _mul(t, e)), _mul(q, g)), M)
    h = _mod(_add(h, r), M)
    b = _mod(_sub(_add(_mul(s, g), _mul(t, h)), [1]), M)
    c, d = _divmod_mod(_mod(_mul(s, b), M), h, M)
    s = _mod(_sub(s, d), M)
    t = _mod(_sub(t, _add(_mul(t, b), _mul(c, g))), M)
    return g, h, s, t


def _multifactor_lift(f: list[int], leaves: list[list[int]], p: int, k: int) -> list[list[int]]:
    """The monic F_i mod M = p^(2^k), F_i = leaves[i] mod p, with
    f = lc(f) * prod F_i mod M, for a f whose lc is a unit mod p and
    pairwise coprime monic leaves with f = lc(f) * prod leaves mod p: the
    leaves are halved into a factor tree, and each node's split
    g*h of its polynomial is lifted by k Hensel steps before its halves
    are (von zur Gathen and Gerhard, section 15.5).  The lift is unique
    (their Theorem 15.14): monic F_i of the same degrees, pairwise
    coprime mod p, with these two congruences are determined mod M."""
    mod = p ** (2**k)
    if len(leaves) == 1:
        inv = pow(f[-1], -1, mod)
        return [[c * inv % mod for c in f]]
    half = len(leaves) // 2
    g = [f[-1] % p]
    for leaf in leaves[:half]:
        g = _mod(_mul(g, leaf), p)
    h = [1]
    for leaf in leaves[half:]:
        h = _mod(_mul(h, leaf), p)
    s, t = _gcdex_p(g, h, p)
    m = p
    for _ in range(k):
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return _multifactor_lift(g, leaves[:half], p, k) + _multifactor_lift(h, leaves[half:], p, k)


def _zassenhaus(c: tuple[int, ...], p: int, candidates: int) -> list[tuple[int, ...]]:
    """The irreducible factors over Z of a squarefree primitive c of
    degree n >= 3 with c[0] != 0 and lc(c) > 0, each primitive with a
    positive leading coefficient, from a usable prime p and the
    candidate degrees C (a mask, as in ``_degree_sets``) that every
    factor of c has: Zassenhaus's algorithm as in von zur Gathen and
    Gerhard, Algorithm 15.19, with its recombination pruned by C.
    InconsistentResult when p divides lc(c), which no usable prime does.

    Factors mod p.  The products (d, g_d) of ``_ddf_p`` at p are split by
    ``_edf_p`` into the monic irreducible factors of c mod p, which are
    distinct (c mod p is squarefree).  They are lifted together
    (``_multifactor_lift``) to M = p^(2^k) > 2B, B = sqrt(n + 1) * 2^n *
    A * b with A the largest |coefficient| and b = lc(c).

    The bound.  For the Mahler measure M(u) = |lc u| * prod max(1, |z|)
    over the roots z of u: M is multiplicative, |u|_1 <= 2^(deg u) M(u),
    and M(c) <= |c|_2 <= sqrt(n + 1) A (Landau).  Let f be c or a factor
    of c over Z, with b_f = lc(f) > 0, and f = g*h over Z.  Then
    g* = (b_f / lc g) g and h* = (b_f / lc h) h have g* h* = b_f f and
    |g*|_1 |h*|_1 <= 2^(deg f) M(b_f f) <= 2^n b M(c) <= B, as b_f
    divides b and M(f) <= M(c) (c/f has integer coefficients, so measure
    at least 1).

    Recombination.  With f the part of c still to split (f = c at
    first), b_f its leading coefficient and T the indices of the lifted
    factors F_i that make it up (f = b_f prod_T F_i mod M), the subsets
    S of T are tried by size s = 1, 2, ... while 2s <= |T|, and in each
    size in order, but only those whose degree sum is in C and for which
    the constant term of b_f prod_S F_i mod M, a symmetric residue,
    divides b_f f(0) (a true g* divides b_f f, and f(0) != 0).  A subset
    is accepted when G = b_f prod_S F_i and H = b_f prod_(T - S) F_i,
    symmetric residues mod M, have |G|_1 |H|_1 <= B; then pp(G) is a
    factor, f becomes pp(H), and S leaves T.

    Soundness.  G*H = b_f f mod M, and both sides have every coefficient
    below M/2 in absolute value (|G H|_inf <= |G|_1 |H|_1 <= B, and
    |b_f f|_inf <= b_f |f|_1 <= B by the bound), so G*H = b_f f over Z
    and pp(G) divides f.  Completeness.  If f = g*h over Z with g
    irreducible, by unique factorization mod p (f mod p is squarefree)
    and uniqueness of the lift, b_f/lc(g) g = b_f prod_S F_i mod M for one
    S; the bound makes g* the symmetric residue G, h* likewise H, and
    deg g is in C, so S passes every test once it is tried.  A subset
    accepted at size s gives an irreducible factor: a proper factor of
    it would have a smaller subset, tried before (a subset of T that
    gives a factor of f gave one of every earlier f as well).  Once
    2s > |T|, f has no proper factor: the subsets of a split f = g*h
    partition T, so one of them has size at most |T|/2 < s.
    """
    n, b = len(c) - 1, c[-1]
    if not b % p:
        raise InconsistentResult(f"the finish was handed {p}, which divides the leading coefficient")
    inv = pow(b, -1, p)
    leaves = [leaf for d, g in _ddf_p([a * inv % p for a in c], p) for leaf in _edf_p(g, d, p)]
    bound2 = (n + 1) * 4**n * (max(map(abs, c)) * b) ** 2  # B^2
    mod, k = p, 0
    while mod * mod <= 4 * bound2:
        mod, k = mod * mod, k + 1
    lifted = _multifactor_lift(list(c), leaves, p, k)

    def symmetric(a: list[int]) -> list[int]:
        return [v - mod if 2 * v > mod else v for v in a]

    def product(indices) -> list[int]:
        out = [b]
        for i in indices:
            out = _mod(_mul(out, lifted[i]), mod)
        return symmetric(out)

    factors, f, rest, s = [], c, list(range(len(lifted))), 1
    while 2 * s <= len(rest):
        for subset in combinations(rest, s):
            if not candidates >> sum(len(lifted[i]) - 1 for i in subset) & 1:
                continue
            low = b
            for i in subset:
                low = low * lifted[i][0] % mod
            if 2 * low > mod:
                low -= mod
            if not low or b * f[0] % low:
                continue
            G = product(subset)
            H = product(i for i in rest if i not in subset)
            if (sum(map(abs, G)) * sum(map(abs, H))) ** 2 <= bound2:
                factors.append(tuple(_pp(G)))
                f = tuple(_pp(H))
                b = f[-1]
                rest = [i for i in rest if i not in subset]
                break
        else:
            s += 1
    return factors + [f]


# ---------------------------------------------------------------------------
# bivariate irreducibility certification


def y_content_is_constant(f: BPoly) -> bool:
    """True when no nonconstant polynomial in y alone divides a nonzero f.

    With g the primitive form of f, whose rows (coefficients of powers of
    x) are integer polynomials in y, and t its top row: True when some
    row is a nonzero constant or ``_rows_coprime_mod_p`` finds t coprime
    mod p to another row; otherwise whether Res_x(t, g.transpose()), t
    written in x, the resultant of t and g read in y, is nonzero.

    Proofs.  The content c(y) of g is a primitive integer polynomial
    (Gauss's lemma) dividing every row in Z[y].  At such a p, p does not
    divide lc(t), so neither lc(c): c mod p keeps its degree and divides
    both rows mod p, whose gcd is constant, so deg c = 0.  Over Q(x), t
    and g read in y share a nonconstant factor exactly when that
    resultant is 0 (von zur Gathen and Gerhard, sections 6.2 and 6.3),
    as a nonconstant c does.  An irreducible common factor divides t, so
    it is, up to a unit, some h in Q[y] (irreducible over Q, irreducible
    over Q(x)); by Gauss's lemma h divides g in Q[x, y], hence every row.
    """
    g = primitive_int_bpoly(f)[1]
    rows = _x_rows(g)
    if any(len(row) == 1 for row in rows) or _rows_coprime_mod_p(rows):
        return True
    return not resultant_x(BPoly.from_upoly(UPoly("x", tuple(rows[-1]))), g.transpose()).is_zero()


def _rows_coprime_mod_p(rows: list[list[int]]) -> bool:
    """True when the last of the integer rows (low degree first, the last
    nonzero) and some other nonzero row are coprime mod p, at one of the
    first three primes of ``PATTERN_PRIMES`` that do not divide the last
    row's leading coefficient; False when no other row is at any of them."""
    top = rows[-1]
    for p in [p for p in PATTERN_PRIMES if top[-1] % p][:3]:
        top_p = [c % p for c in top]
        if any(len(_gcd_p(top_p, _trim([c % p for c in row]), p)) == 1 for row in rows[:-1] if row):
            return True
    return False


def content_free_both_ways(f: BPoly) -> bool:
    """True when no nonconstant polynomial in y alone, nor in x alone, divides f."""
    return y_content_is_constant(f) and y_content_is_constant(f.transpose())


def certify_irreducible_bivariate(q: BPoly) -> bool:
    """A sound sufficient test that a nonzero q is irreducible over Q:
    the degree-set rule of ``factor_q``'s patterns (``_degree_sets``), read
    over Q at several points.

    Let g be whichever of q and q.transpose() has the smaller x-degree n
    (q on a tie).  It returns False when g(0, y) = 0 or g has a content
    in y (``y_content_is_constant``): then x or the content divides g, a
    proper factor when g has positive degree in both variables.
    Otherwise it narrows the candidate degrees 1..n - 1 by the factor
    degrees, with multiplicity, of g(x, c) (``factor_q``) at the points
    c = 1, -1, 2, -2, ... that are zeros of neither lc_x(g) nor g(0, y),
    and returns True once no degree is left.  With n = 1 none is left to
    begin with, so no point is read.  It returns False when
    ``_degree_sets`` stops; False means only that the rule did not prove
    q prime.  Raises DegreeBound when g(x, c) is past ``factor_q``'s bound.

    Proof.  q and its transpose are irreducible together.  Let g = a*b
    with neither factor constant.  A factor of x-degree 0 lies in Q[y] and
    divides every x-coefficient of g, hence the content of g in y; as
    that is constant, d = deg_x a lies in 1..n - 1.  At a point c,
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
    if g.terms[0][0][0] > 0 or not y_content_is_constant(g):
        return False
    return not _degree_sets(g.deg_x(), _specializations(g))[0]


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
