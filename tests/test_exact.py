"""Unit tests for the exact arithmetic substrate."""

import dataclasses
import functools
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ, ZZ
from sympy.polys.densetools import dup_primitive
from sympy.polys.euclidtools import dup_gcd, dup_resultant
from sympy.polys.factortools import dmp_factor_list, dup_factor_list
from sympy.polys.galoistools import gf_factor_sqf, gf_from_int_poly, gf_gcd, gf_monic, gf_sqf_p
from sympy.polys.sqfreetools import dup_sqf_list

from doublefield import exact
from doublefield.divisors import DeltaElement
from doublefield.errors import DegreeBound, InconsistentResult, PrecisionFailure
from doublefield.exact import (
    DEFAULT_FACTOR_DEGREE_BOUND,
    BPoly,
    UPoly,
    _from_dmp,
    _to_dmp,
    certify_irreducible_bivariate,
    factor_b,
    factor_q,
    primitive_int_bpoly,
    primitive_int_upoly,
    resultant_x,
    y_content_is_constant,
)
from doublefield.oracles import complex_roots
from test_mutants import _variant


def up(*coeffs, var="x"):
    return UPoly.make(var, coeffs)


X = BPoly.gen("x")
Y = BPoly.gen("y")


def bp(expr_terms):
    return BPoly.make({k: Fraction(v) for k, v in expr_terms.items()})


small_fracs = st.fractions(min_value=-10, max_value=10, max_denominator=6)


def upoly_strategy(var="x", max_deg=5, coeffs=small_fracs):
    return st.lists(coeffs, min_size=0, max_size=max_deg + 1).map(
        lambda cs: UPoly.make(var, cs)
    )


# the bridge reduces integral and rational inputs alike to primitive
# integer forms, and puts the units back
small_ints = st.integers(-9, 9).map(Fraction)
any_coeffs = st.one_of(small_ints, small_fracs)


def bpoly_strategy(max_deg=3, coeffs=small_fracs, max_terms=6):
    return st.dictionaries(
        st.tuples(st.integers(0, max_deg), st.integers(0, max_deg)), coeffs, max_size=max_terms
    ).map(BPoly.make)


def mixed_upolys(max_deg=5):
    return st.one_of(upoly_strategy(max_deg=max_deg, coeffs=small_ints), upoly_strategy(max_deg=max_deg))


def mixed_bpolys(max_deg=3, max_terms=6):
    return st.one_of(
        bpoly_strategy(max_deg, small_ints, max_terms), bpoly_strategy(max_deg, small_fracs, max_terms)
    )


SX, SY = sympy.symbols("x y")


def sym_u(p):
    """Expression form of a UPoly (test-only oracle input)."""
    s = SX if p.var == "x" else SY
    return sum((sympy.Rational(c.numerator, c.denominator) * s**i for i, c in enumerate(p.coeffs)), sympy.S.Zero)


def sym_b(p):
    return sum(
        (sympy.Rational(v.numerator, v.denominator) * SX**i * SY**j for (i, j), v in p.terms), sympy.S.Zero
    )


def _grid_form(rng, a, b, lc_at_zero, big=False):
    """A form of x-degree a and y-degree b with integer coefficients in
    [-5, 5]; its x-leading coefficient has y-degree b and, when
    lc_at_zero (b >= 1), vanishes at y = 0.  With big, every coefficient
    but the leading one is within 5 of a multiple of 10^30 in
    [-5 * 10^30, 5 * 10^30], and every odd x-row below x^a has y-degree 0."""
    d = {(i, j): rng.randint(-5, 5) for i in range(a) for j in range(b + 1)}
    for j in range(1 if lc_at_zero else 0, b):
        d[(a, j)] = rng.randint(-5, 5)
    if big:
        d = {(i, j): c * 10**30 + rng.randint(-5, 5) for (i, j), c in d.items() if i % 2 == 0 or i == a or j == 0}
    d[(a, b)] = rng.choice((-3, -2, -1, 1, 2, 3))
    return BPoly.make(d)


def _kronecker_bits(F, G):
    """The k of ``resultant_x`` for primitive forms F and G: one more
    than the bits of isqrt(N(F)^deg_x G * N(G)^deg_x F) + 1, where N is
    the sum over the x-rows of each row's squared l1 norm."""
    norms = []
    for P in (F, G):
        rows = [0] * (P.deg_x() + 1)
        for (i, _), c in P.terms:
            rows[i] += abs(c)
        norms.append(sum(s * s for s in rows))
    return (math.isqrt(norms[0] ** G.deg_x() * norms[1] ** F.deg_x()) + 1).bit_length() + 1


def upoly_of_expr(expr, var):
    cs = sympy.Poly(expr, SX if var == "x" else SY, domain="QQ").all_coeffs()
    return UPoly.make(var, [Fraction(int(c.p), int(c.q)) for c in reversed(cs)])


def bpoly_of_poly(P):
    """A sympy Poly in x and y (test-only oracle output) as a BPoly."""
    return BPoly.make({k: Fraction(int(c.p), int(c.q)) for k, c in P.as_dict().items()})


# ---------------------------------------------------------------------------
# UPoly / BPoly arithmetic


class TestUPoly:
    def test_canonical_no_trailing_zeros(self):
        assert up(1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))
        assert up(0).is_zero()

    def test_eval_compose(self):
        f = up(1, 2, 1)  # (x+1)^2
        assert f.eval(2) == 9
        # substituting a constant for either variable of (x+1)^2 * y
        g = BPoly.from_upoly(f) * Y
        assert g.transpose().eval_y(2) == up(0, 9)
        assert g.eval_y(2) == up(2, 4, 2)

    @settings(max_examples=60)
    @given(upoly_strategy(), upoly_strategy(), upoly_strategy())
    def test_ring_laws(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f


# the list helpers exact does its own dense arithmetic with, low degree
# first and without trailing zeros
int_lists = st.lists(st.integers(-50, 50), max_size=6).map(exact._trim)
scalar_lists = st.lists(any_coeffs, max_size=6).map(exact._trim)


class TestListArithmetic:
    @settings(max_examples=80)
    @given(int_lists, int_lists.filter(bool))
    def test_exquo_inverts_mul(self, a, b):
        assert exact._exquo(exact._mul(a, b), b) == a

    @settings(max_examples=80, deadline=None)
    @given(scalar_lists, scalar_lists)
    def test_add_mul_match_upoly_and_sympy(self, a, b):
        f, g = up(*a), up(*b)
        total, product = exact._add(a, b), exact._mul(a, b)
        assert total == list((f + g).coeffs) and product == list((f * g).coeffs)
        assert up(*total) == upoly_of_expr(sym_u(f) + sym_u(g), "x")
        assert up(*product) == upoly_of_expr(sym_u(f) * sym_u(g), "x")


class TestBPoly:
    def test_product(self):
        assert (X - Y) * (X + Y) == X * X - Y * Y

    def test_transpose_involution(self):
        f = X**2 * Y + 3 * X - Y**3
        assert f.transpose().transpose() == f

    def test_eval(self):
        f = X**2 - Y
        assert f.transpose().eval_y(3) == up(7) - up(0, 1) + up(2)
        assert f.transpose().eval_y(3).eval(9) == 0

    @settings(max_examples=40)
    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), small_fracs), max_size=6),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), small_fracs), max_size=6),
    )
    def test_ring_laws(self, a, b):
        f = BPoly.make({(i, j): c for i, j, c in a})
        g = BPoly.make({(i, j): c for i, j, c in b})
        assert f * g == g * f
        assert (f + g) * (f - g) == f * f - g * g

    @settings(max_examples=40)
    @given(mixed_bpolys(max_deg=2, max_terms=4), mixed_upolys(max_deg=3), st.integers(0, 9))
    def test_power_is_repeated_product(self, f, p, n):
        f_n, p_n = BPoly.const(1), UPoly.const("x", 1)
        for _ in range(n):
            f_n, p_n = f_n * f, p_n * p
        assert f**n == f_n
        assert p**n == p_n


@pytest.mark.parametrize(
    "f, other", [(f, o) for f, g in ((up(1, 1), X), (X, up(1, 1))) for o in (1, Fraction(1, 2), "1", g)]
)
def test_sum_with_another_type_is_a_type_error(f, other):
    """+ and - take a polynomial of their own class only: anything else,
    the other class included, raises TypeError (BPoly.gen("x") - 1
    raised AttributeError)."""
    for op in (lambda: f + other, lambda: f - other, lambda: other + f, lambda: other - f):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("f, other", [(f, o) for f, g in ((up(1, 1), X), (X, up(1, 1))) for o in ("1", 1.5, g)])
def test_product_with_another_type_is_a_type_error(f, other):
    """* takes an int, a Fraction or a polynomial of its own class only:
    the other class or a float raises TypeError, not AttributeError
    (BPoly.gen("x") * UPoly.make("x", [1, 1]) did)."""
    for op in (lambda: f * other, lambda: other * f):
        with pytest.raises(TypeError):
            op()


# ---------------------------------------------------------------------------
# the hash a frozen polynomial keeps after its first hash()


def _same_value(a, b):
    """a and b are distinct objects with equal values and equal hashes,
    and the hash each keeps is the one the generated dataclass hash gave."""
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    for p in (a, b):  # read back from the slot
        assert hash(p) == (hash((p.var, p.coeffs)) if isinstance(p, UPoly) else hash((p.terms,)))


class TestHashOnce:
    @settings(max_examples=40)
    @given(mixed_upolys(), mixed_upolys(), st.integers(1, 9))
    def test_upoly_routes(self, f, g, k):
        _same_value(f, UPoly.make("x", list(f.coeffs)))
        _same_value(f, (f + g) - g)
        _same_value(f * g, g * f)
        _same_value(f, f.with_var("y").with_var("x"))
        if not f.is_zero():
            _same_value(primitive_int_upoly(f)[1], primitive_int_upoly(f.scale(k))[1])

    @settings(max_examples=40)
    @given(mixed_bpolys(), mixed_bpolys(), st.integers(1, 9))
    def test_bpoly_routes(self, f, g, k):
        d = f.as_dict()
        _same_value(BPoly.make(d), BPoly.make(dict(reversed(d.items()))))
        _same_value(f, (f + g) - g)
        _same_value(f * g, g * f)
        _same_value(f, f.transpose().transpose())
        if not f.is_zero():
            _same_value(primitive_int_bpoly(f)[1], primitive_int_bpoly(f.scale(k))[1])

    def test_slot_is_not_in_repr_or_fields(self):
        f, p = X**2 - Y, up(1, 2)
        hash(f), hash(p), f.deg_x(), f.deg_y()
        assert repr(p) == f"UPoly(var='x', coeffs={p.coeffs!r})"
        assert repr(f) == f"BPoly(terms={f.terms!r})"
        assert [fld.name for fld in dataclasses.fields(p)] == ["var", "coeffs"]
        assert [fld.name for fld in dataclasses.fields(f)] == ["terms"]

    @settings(max_examples=40)
    @given(mixed_bpolys(), st.sampled_from(("deg_x", "deg_y")))
    def test_degrees_kept_once(self, f, first):
        """Either degree, asked first, keeps both; they are the scans the
        methods made before, and equal polynomials agree on them."""
        dx = max((i for (i, _), _ in f.terms), default=-1)
        dy = max((j for (_, j), _ in f.terms), default=-1)
        getattr(f, first)()
        assert (f._deg_x, f._deg_y) == (dx, dy)
        assert (f.deg_x(), f.deg_y()) == (dx, dy)
        g = BPoly.make(f.as_dict())
        assert not hasattr(g, "_deg_x") and not hasattr(g, "_deg_y")
        assert g == f and hash(g) == hash(f)
        assert (g.deg_x(), g.deg_y()) == (dx, dy)

    def test_degrees_not_pickled(self):
        f = X**3 * Y - Y**2
        assert (f.deg_x(), f.deg_y(), hash(f)) == (3, 2, hash(f))
        g = pickle.loads(pickle.dumps(f))
        assert g == f
        assert not hasattr(g, "_deg_x") and not hasattr(g, "_deg_y") and not hasattr(g, "_hash")
        assert (g.deg_x(), g.deg_y()) == (3, 2)

    def test_unpickled_hash_is_recomputed(self):
        """A polynomial hashed and pickled by a process under another
        PYTHONHASHSEED is found as a dict key here: the salted str hash
        of its variable is not carried over."""
        child = (
            "import pickle, sys\n"
            "from doublefield.exact import BPoly, UPoly\n"
            "p = UPoly.make('x', [1, 2, 3])\n"
            "f = BPoly.make({(1, 0): 1, (0, 1): 2})\n"
            "print(hash('x'), hash(p), hash(f))\n"
            "sys.stdout.flush()\n"
            "sys.stdout.buffer.write(pickle.dumps((p, f)))\n"
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = str(Path(exact.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, check=True).stdout
        line, blob = out.split(b"\n", 1)
        hash_x, hash_p, _ = (int(v) for v in line.split())
        assert hash_x != hash("x")  # the two processes salt str hashes differently
        p, f = pickle.loads(blob)
        assert hash(p) != hash_p
        here = {up(1, 2, 3): "p", bp({(1, 0): 1, (0, 1): 2}): "f"}
        assert here[p] == "p" and here[f] == "f"


# ---------------------------------------------------------------------------
# exact scalars: an int exactly when integral, else a Fraction


def _exact_scalar(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _assert_exact(*values):
    """Every scalar, coefficient and unit in values is in exact form;
    values may nest polynomials, tuples and lists."""
    for v in values:
        if isinstance(v, UPoly):
            _assert_exact(*v.coeffs)
        elif isinstance(v, BPoly):
            _assert_exact(*(c for _, c in v.terms))
        elif isinstance(v, DeltaElement):
            _assert_exact(v.unit, *(f for f, _ in v.factors))
        elif isinstance(v, (tuple, list)):
            _assert_exact(*v)
        else:
            assert _exact_scalar(v), repr(v)


@settings(max_examples=60, deadline=None)
@given(
    mixed_upolys(max_deg=3),
    mixed_upolys(max_deg=3),
    mixed_bpolys(2, 4),
    mixed_bpolys(2, 4),
    any_coeffs,
    st.integers(1, 3),
)
def test_results_are_exact_scalars(p, q, f, g, c, e):
    """Ring operations, normalization, evaluation and every bridged call
    return ints for integral scalars, Fractions for the others, and never
    a float."""
    _assert_exact(p + q, p - q, p * q, -p, p.scale(c), p**e, p.monic(), p.eval(c))
    _assert_exact(f + g, f - g, f * g, -f, f.scale(c), f**e, f.eval_y(c))
    if p.degree() >= 1:
        _assert_exact(primitive_int_upoly(p), factor_q(p))
    if not f.is_zero():
        _assert_exact(primitive_int_bpoly(f), factor_b(f))
    if not f.is_zero() and not g.is_zero():
        if f.deg_x() >= 1 or g.deg_x() >= 1:
            _assert_exact(resultant_x(f, g))
        # negative exponents reach the unit through inverse powers
        a = DeltaElement.from_factors(c or 1, [(f, e), (g, -e)])
        _assert_exact(a)


def _primitive_by_fractions(coeffs):
    """The Fraction route the integer one replaced, kept as the oracle:
    the unit takes the sign of the last coefficient, which the caller
    makes the leading one, and divides every coefficient."""
    cs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in cs))
    g = math.gcd(*((c * den).numerator for c in cs))
    unit = Fraction(g if cs[-1] > 0 else -g, den)
    return unit, [c / unit for c in cs]


def _graded_lex_last(f):
    """f's terms with the graded-lex leading term moved last."""
    lead = max(f.terms, key=lambda t: (t[0][0] + t[0][1], t[0][0]))
    return [t for t in f.terms if t is not lead] + [lead]


@settings(max_examples=80, deadline=None)
@given(mixed_upolys(), mixed_bpolys())
def test_primitive_matches_fraction_route(p, f):
    if not p.is_zero():
        unit, q = primitive_int_upoly(p)
        old_unit, old = _primitive_by_fractions(p.coeffs)
        assert unit == old_unit and q == UPoly.make(p.var, old)
        _assert_exact(unit, q)
        assert primitive_int_upoly(q) == (1, q) and primitive_int_upoly(q)[1] is q
    if not f.is_zero():
        unit, q = primitive_int_bpoly(f)
        terms = _graded_lex_last(f)
        old_unit, old = _primitive_by_fractions([c for _, c in terms])
        assert unit == old_unit and q == BPoly.make({k: v for (k, _), v in zip(terms, old)})
        _assert_exact(unit, q)
        assert primitive_int_bpoly(q) == (1, q) and primitive_int_bpoly(q)[1] is q


# ---------------------------------------------------------------------------
# normalization


class TestPrimitive:
    def test_upoly(self):
        unit, q = primitive_int_upoly(up(Fraction(1, 2), Fraction(-3, 4)))
        assert unit * Fraction(1) != 0
        assert q == up(-2, 3)
        # reconstruct
        assert [unit * c for c in q.coeffs] == list(up(Fraction(1, 2), Fraction(-3, 4)).coeffs)

    def test_bpoly_sign(self):
        unit, q = primitive_int_bpoly(-2 * (X - Y))
        # graded-lex leading term must be positive; x beats y at equal total degree
        assert q == X - Y
        assert unit == -2


# ---------------------------------------------------------------------------
# gcd, resultants, square-free


def _sympy_content_is_constant(f):
    """Whether sympy's gcd over QQ of f's coefficients in x is constant."""
    rows = [f.coeff_of_x(i) for i in range(f.deg_x() + 1)]
    cs = [sympy.Poly(sym_u(c.with_var("x")), SX, domain=QQ) for c in rows if not c.is_zero()]
    return functools.reduce(lambda u, v: u.gcd(v), cs).degree() == 0


class TestGcd:
    @settings(max_examples=60, deadline=None)
    @given(
        mixed_bpolys(),
        st.one_of(mixed_bpolys(2, 3), mixed_upolys(max_deg=2).map(lambda p: BPoly.from_upoly(p.with_var("y")))),
        st.sampled_from((1, 2)),
        st.sampled_from((0, 1, 3)),
    )
    @example(2 * X * Y + 2 * X, BPoly.const(1), 1, 0)
    @example(X * Y, Y + BPoly.const(1), 1, 0)
    @example(X + Y, Y**2 + BPoly.const(1), 2, 3)
    @example(X * Y + BPoly.const(1), X**2 + BPoly.const(2), 1, 0)
    def test_y_content_is_constant_matches_sympy(self, a, h, k, m):
        """y_content_is_constant reads as sympy's gcd over QQ of the
        coefficients in x, also when f has a factor h in y alone or in x
        alone, or only one coefficient.  The factor m*x + 1 leaves the
        content as it is; m = 3 puts 3 into the top row's leading
        coefficient, so the modular test skips p = 3."""
        f = a * h**k * (m * X + BPoly.const(1))
        if f.is_zero():
            return
        assert y_content_is_constant(f) is _sympy_content_is_constant(f)


# y_content_is_constant on fixed examples: a constant row; rows coprime
# mod 3; rows y^2 + 1 and y^2 + 4, equal mod 3 but coprime over Q and
# mod 5; a top row 105*y + 1, whose lc 3, 5 and 7 divide, sharing the
# root 9 with y + 2 mod 11 but not mod 13; rows y and y + 105, and y^4
# and y^4 + 105, equal mod 3, 5 and 7, so that the primitive PRS finds
# them coprime; and (x + 1)(y^2 + 1) and (x + 1)(y^4 + 1), whose contents
# y^2 + 1 and y^4 + 1 it finds
CONTENT_EXAMPLES = {
    "constant-row": (X**2 * Y + X + Y**2, True),
    "coprime-mod-3": (X * Y**2 + X * Y + Y + BPoly.const(2), True),
    "equal-rows-mod-3": (X * Y**2 + Y**2 + X + BPoly.const(4), True),
    "lc-105": (105 * X * Y + X + Y + BPoly.const(2), True),
    "rows-equal-mod-3-5-7": (X * Y + Y + BPoly.const(105), True),
    "quartic-rows-equal-mod-3-5-7": (X * Y**4 + Y**4 + BPoly.const(105), True),
    "content-y^2+1": (X * Y**2 + X + Y**2 + BPoly.const(1), False),
    "content-y^4+1": (X * Y**4 + X + Y**4 + BPoly.const(1), False),
}


@pytest.mark.parametrize("name", CONTENT_EXAMPLES)
def test_y_content_example(monkeypatch, name):
    """Each example reads as sympy's content does, and no example loads a
    bridged name."""
    f, constant = CONTENT_EXAMPLES[name]
    assert _sympy_content_is_constant(f) is constant
    for n in exact._BRIDGED:
        monkeypatch.setattr(exact, n, None)
    assert y_content_is_constant(f) is constant
    assert all(getattr(exact, n) is None for n in exact._BRIDGED)


# pairs of curves through a common component, at x-degrees (1, 1),
# (2, 3) and (4, 2): every resultant of such a pair is 0
SHARED_COMPONENT = {
    "1-1": (X * Y - BPoly.const(1), (X * Y - BPoly.const(1)) * (Y + BPoly.const(2))),
    "2-3": ((X - Y) * (X + Y**2), (X - Y) * (X**2 + Y + BPoly.const(1)).scale(Fraction(1, 2))),
    "4-2": ((X**2 + Y) * (X**2 - Y**3 + BPoly.const(1)), (X**2 + Y) * (Y - BPoly.const(3))),
}


class TestBridge:
    def setup_method(self):
        # the conversions read the bridged ZZ, which the fallback loads
        exact._load_bridge()

    def test_dense_layout(self):
        # x is the main variable; rows and coefficients run from the top degree
        assert _to_dmp(X**2 * Y - 3 * Y + BPoly.const(1)) == [[1, 0], [], [-3, 1]]
        assert _to_dmp(BPoly.zero()) == [[]]

    @settings(max_examples=80)
    @given(bpoly_strategy(coeffs=small_ints))
    def test_bpoly_round_trip(self, f):
        assert _from_dmp(_to_dmp(f)) == f

    def test_a_name_set_before_the_first_load_wins(self):
        """The bridge loads on the first fallback and fills only the names
        still unset: Wang replaced before that load is the one that runs,
        and a load fills every unset name with sympy's own object.  In a
        fresh interpreter, so that no earlier fallback has loaded it."""
        child = (
            "from doublefield import cli, exact\n"
            "names = ('ZZ', 'dmp_factor_list')\n"
            "print(all(getattr(exact, n) is None for n in names))\n"
            "class Refused(Exception):\n"
            "    pass\n"
            "def refuse(*args):\n"
            "    raise Refused\n"
            "exact.dmp_factor_list = refuse\n"
            "try:\n"
            "    cli.main(['divisor', '(x^3 + x^2*y^2 + x*y + y^3)/(x*y)'])\n"
            "except Refused:\n"
            "    print('refused')\n"
            "print(exact.dmp_factor_list is refuse)\n"
            "exact.dmp_factor_list = None\n"
            "exact._load_bridge()\n"
            "from sympy.polys import domains, factortools\n"
            "own = (domains.ZZ, factortools.dmp_factor_list)\n"
            "print([getattr(exact, n) is f for n, f in zip(names, own)])\n"
        )
        src = str(Path(exact.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, check=True).stdout
        assert out.splitlines() == ["True", "refused", "True", str([True] * 2)]


class TestBridgedAlgebra:
    """Each bridged call against an exact identity or sympy's expression
    layer as an oracle."""

    @settings(max_examples=60, deadline=None)
    @given(mixed_bpolys(max_deg=5), mixed_bpolys(max_deg=5))
    # y-degree 0, as the oracle's log|Res| of two places reads it: PRS
    # chains of one, two and four steps
    @example(X**2 + BPoly.const(1), X - BPoly.const(2))
    @example(X**3 - BPoly.const(2), X**2 + X + BPoly.const(Fraction(1, 3)))
    @example(X**5 - X + BPoly.const(1), X**4 + BPoly.const(7))
    def test_resultant_x_matches_sympy(self, f, g):
        # x-degrees up to 5: PRS chains of up to five steps
        if f.deg_x() < 1 or g.deg_x() < 1:
            return
        # the documented order: Res(g, f) in sympy's argument convention
        r = sympy.resultant(sym_b(g), sym_b(f), SX)
        assert resultant_x(f, g) == upoly_of_expr(r, "y")

    @pytest.mark.parametrize("a1, a2", [(a1, a2) for a1 in range(1, 7) for a2 in range(1, 7)])
    def test_resultant_x_grid_matches_sympy(self, a1, a2):
        """Every pair of x-degrees in {1..6}^2, so every sign and PRS
        chains of up to five steps, at y-degrees 0..3, with x-leading
        coefficients that vanish at y = 0 and rational units; then three
        pairs with coefficients near multiples of 10^30 and x-rows of
        y-degree 0, whose packed digits run to hundreds of bits."""
        rng = random.Random(100 * a1 + a2)
        cases = [(b1, b2, False) for b1 in range(4) for b2 in range(4)]
        for b1, b2, big in cases + [(0, 2, True), (2, 1, True), (3, 3, True)]:
            f = _grid_form(rng, a1, b1, lc_at_zero=b1 > 0 and (b1 + b2) % 2 == 0, big=big)
            g = _grid_form(rng, a2, b2, lc_at_zero=b2 > 0 and (b1 + b2) % 2 == 1, big=big)
            if (b1 + b2) % 3 == 0:
                f = f.scale(Fraction(-2, 3))
            r = sympy.resultant(sym_b(g), sym_b(f), SX)
            assert resultant_x(f, g) == upoly_of_expr(r, "y"), (f, g)

    @pytest.mark.parametrize(
        "p, q",
        [
            ((1, 0, 0, 0), (0, 0, 0, 1)),  # y^3 - 1: a borrow through two zero digits
            ((0, 0, 7), (-3, 0, 0, 0, -1, 0, 2)),  # 2y^6 - y^4 - 7y^2 - 3
            ((5, -(2**40)), (0, 2**40 - 1, -1, 0, 0, -(10**20))),  # digits near the base's width
        ],
    )
    def test_resultant_x_reads_back_negative_and_zero_digits(self, p, q):
        """Res_x(x - p(y), x - q(y)) = q - p, whose interior coefficients
        are zero and negative, so the signed read-back borrows from the
        digit above; then times a cubic factor, against sympy."""
        f = X - BPoly.from_upoly(UPoly.make("y", p))
        g = X - BPoly.from_upoly(UPoly.make("y", q))
        assert resultant_x(f, g) == UPoly.make("y", q) - UPoly.make("y", p)
        f = f * (X**2 - Y**3 + BPoly.const(1))
        assert resultant_x(f, g) == upoly_of_expr(sympy.resultant(sym_b(g), sym_b(f), SX), "y")

    @settings(max_examples=80, deadline=None)
    @given(mixed_bpolys(max_deg=5, max_terms=10), mixed_bpolys(max_deg=5, max_terms=10))
    @example(X**3 - BPoly.const(1), X - Y**3)
    def test_resultant_x_coefficients_lie_below_half_the_base(self, f, g):
        """Every coefficient of Res_x(F, G), for primitive forms F and G,
        is below 2^(k - 1) in absolute value for the k of
        ``resultant_x``: the Hadamard bound its read-back relies on."""
        if f.deg_x() < 1 or g.deg_x() < 1:
            return
        F, G = primitive_int_bpoly(f)[1], primitive_int_bpoly(g)[1]
        k = _kronecker_bits(F, G)
        assert all(abs(c) < 2 ** (k - 1) for c in resultant_x(F, G).coeffs)

    @pytest.mark.parametrize("a1, a2, k", [(2, 1, 2), (1, 3, 2), (3, 2, 2), (2, 2, 2), (2, 1, 3)])
    def test_resultant_x_with_degree_gaps_matches_sympy(self, a1, a2, k):
        """Forms in x^k, whose PRS remainders drop k degrees a step, so
        that h is updated with delta = k and the chain ends on a divisor
        of degree k, where the last division by a power of h runs."""
        rng = random.Random(100 * a1 + 10 * a2 + k)
        for b1, b2 in ((1, 2), (2, 1), (2, 2)):
            f, g = (
                BPoly.make({(i * k, j): v for (i, j), v in _grid_form(rng, a, b, lc_at_zero=False).terms})
                for a, b in ((a1, b1), (a2, b2))
            )
            r = sympy.resultant(sym_b(g), sym_b(f), SX)
            assert resultant_x(f, g) == upoly_of_expr(r, "y"), (f, g)

    @pytest.mark.parametrize("name", SHARED_COMPONENT)
    def test_resultant_x_vanishes_on_a_shared_component(self, name):
        f, g = SHARED_COMPONENT[name]
        assert sympy.resultant(sym_b(g), sym_b(f), SX) == 0
        assert resultant_x(f, g).is_zero() and resultant_x(g, f).is_zero()

    @pytest.mark.parametrize("a1, a2", [(4, 2), (5, 3), (1, 6), (2, 3)])
    def test_resultant_x_loads_no_bridged_name(self, monkeypatch, a1, a2):
        """Resultants read as sympy's with every bridged name unset, and
        none of them is loaded."""
        rng = random.Random(10 * a1 + a2)
        f, g = _grid_form(rng, a1, 2, lc_at_zero=True), _grid_form(rng, a2, 3, lc_at_zero=False)
        r = sympy.resultant(sym_b(g), sym_b(f), SX)
        for n in exact._BRIDGED:
            monkeypatch.setattr(exact, n, None)
        assert resultant_x(f, g) == upoly_of_expr(r, "y")
        assert all(getattr(exact, n) is None for n in exact._BRIDGED)

    @settings(max_examples=40, deadline=None)
    @given(mixed_upolys(max_deg=3), mixed_upolys(max_deg=3))
    def test_factor_q_reconstructs(self, a, b):
        f = a * b * a
        if f.is_zero():
            return
        unit, fac = factor_q(f)
        prod = UPoly.const("x", unit)
        for p, m in fac:
            assert primitive_int_upoly(p) == (1, p)
            prod = prod * p**m
        assert prod == f

    @settings(max_examples=60, deadline=None)
    @given(mixed_upolys())
    def test_factor_q_matches_sympy(self, f):
        if f.is_zero():
            return
        assert factor_q(f) == _sympy_route_q(f)

    @settings(max_examples=30, deadline=None)
    @given(mixed_bpolys(2, 4), mixed_bpolys(2, 4))
    def test_factor_b_reconstructs(self, a, b):
        f = a * b * a
        if f.is_zero():
            return
        unit, fac = factor_b(f)
        prod = BPoly.const(unit)
        for p, m in fac:
            assert primitive_int_bpoly(p) == (1, p)
            prod = prod * p**m
        assert prod == f


def _sympy_route_q(f):
    """factor_q's oracle: sympy's factor_list over QQ, its monic factors
    put in primitive integer form and sorted."""
    s = SX if f.var == "x" else SY
    coeff, fac = sympy.Poly(sym_u(f), s, domain=QQ).factor_list()
    unit, out = Fraction(int(coeff.p), int(coeff.q)), []
    for P, m in fac:
        u, q = primitive_int_upoly(upoly_of_expr(P.as_expr(), f.var))
        unit *= u**m
        out.append((q, m))
    out.sort(key=lambda t: (t[0].degree(), t[0].coeffs))
    return unit, tuple(out)


# linear and quadratic inputs, which factor_q decides in integers: split
# products k*(d1*v - n1)*(d2*v - n2), and a*v^2 + b*v + c at random
nonzero_fracs = small_fracs.filter(lambda c: c != 0)
split_quadratics = st.builds(
    lambda v, d1, n1, d2, n2, k: UPoly.make(v, [n1 * n2, -(d1 * n2 + d2 * n1), d1 * d2]).scale(k),
    st.sampled_from("xy"),
    st.integers(1, 12),
    st.integers(-20, 20),
    st.integers(1, 12),
    st.integers(-20, 20),
    nonzero_fracs,
)
low_degree = st.one_of(
    split_quadratics,
    st.sampled_from("xy").flatmap(
        lambda v: upoly_strategy(v, max_deg=2, coeffs=any_coeffs).filter(lambda p: p.degree() > 0)
    ),
)


@settings(max_examples=200, deadline=None)
@given(low_degree)
@example(up(1, 4, 4))  # 4x^2 + 4x + 1 = (2x + 1)^2
@example(up(-1, -1, 6, var="y"))  # 6y^2 - y - 1 = (2y - 1)(3y + 1)
@example(up(0, -1, 2))  # 2x^2 - x: a zero root
@example(up(1, 0, 1))  # x^2 + 1: D < 0
@example(up(-2, 0, 1))  # x^2 - 2: D > 0, but no square
def test_low_degree_factor_q_matches_sympy(f):
    assert factor_q(f) == _sympy_route_q(f)


def _sympy_route(f):
    """factor_b's oracle: sympy's bivariate factorizer over QQ, reached
    through sympy's own Poly and not the bridge, with each factor put in
    primitive integer form and sorted."""
    coeff, fac = sympy.Poly(sym_b(f), SX, SY, domain=QQ).factor_list()
    unit, out = Fraction(int(coeff.p), int(coeff.q)), []
    for P, m in fac:
        u, q = primitive_int_bpoly(bpoly_of_poly(P))
        unit *= u**m
        out.append((q, m))
    out.sort(key=lambda t: t[0].terms)
    return unit, tuple(out)


# curves: positive degree in both variables, mostly irreducible
curves = mixed_bpolys(2, 5).filter(lambda f: f.deg_x() > 0 and f.deg_y() > 0)
nonconstant_upolys = st.sampled_from("xy").flatmap(
    lambda v: upoly_strategy(v, max_deg=2, coeffs=small_ints).filter(lambda p: p.degree() > 0)
)
# products in one variable, repeated factors included, which factor_b
# hands to factor_q
one_variable = st.sampled_from("xy").flatmap(
    lambda v: st.lists(
        upoly_strategy(v, max_deg=3, coeffs=any_coeffs).filter(lambda p: p.degree() > 0),
        min_size=1,
        max_size=3,
    ).map(lambda ps: math.prod(BPoly.from_upoly(p) for p in ps + ps[:1]))
)
factor_b_inputs = st.one_of(
    curves,
    st.lists(curves, min_size=2, max_size=3).map(math.prod),
    st.tuples(curves, nonconstant_upolys).map(lambda t: t[0] * BPoly.from_upoly(t[1])),
    one_variable,
)


@settings(max_examples=150, deadline=None)
@given(factor_b_inputs)
@example((Y - BPoly.const(1)) * (X + BPoly.const(1)))  # y-content, degree 1 in x
@example((X * Y + BPoly.const(1)) * (X + BPoly.const(1)))  # lc_x vanishes at y = 0
@example(X**2 + Y**2 - BPoly.const(2))  # prime, but x^2 - 1 at y = 1 and y = -1 splits
@example((X + Y) * (X * Y - BPoly.const(1)))  # reducible, of bidegree (2, 2)
def test_factor_b_matches_sympy_route(f):
    assert factor_b.__wrapped__(f) == _sympy_route(f)


# 2*x^2*y^3 + 4*x*y^2 + 3*x*y + 4*y^2 + 1, of bidegree (2, 3): a prime of
# the benchmark's cli-divisor corpus (seed 1) that splits at y = 1, which
# Wang's algorithm decided before the certificate read several points
CORPUS_PRIME_2_3 = bp({(2, 3): 2, (1, 2): 4, (1, 1): 3, (0, 2): 4, (0, 0): 1})
# factor_b on fixed reducible curves: x^2 - y^2, which its discriminant
# splits, and (x^2 + y)(x + y^2), of degrees 3 and 3, which every proof of
# primality must leave to Wang's algorithm
REDUCIBLE_CURVES = {"x^2-y^2": X**2 - Y**2, "(x^2+y)(x+y^2)": (X**2 + Y) * (X + Y**2)}


@pytest.mark.parametrize("name", REDUCIBLE_CURVES)
def test_reducible_curve_matches_sympy(name):
    f = REDUCIBLE_CURVES[name]
    assert factor_b(f) == _sympy_route(f)


nonzero_ints = st.integers(-9, 9).filter(bool)


@st.composite
def quadratic_curves(draw):
    """A curve of x-degree 2 and y-degree 1 to 6, or its transpose, with
    up to 9 integer terms, times a rational unit."""
    dy = draw(st.integers(1, 6))
    d = draw(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, dy)), st.integers(-9, 9), max_size=7))
    d[(2, draw(st.integers(0, dy)))] = draw(nonzero_ints)
    d[(draw(st.integers(0, 2)), dy)] = draw(nonzero_ints)
    f = BPoly.make(d).scale(draw(nonzero_fracs))
    return f.transpose() if draw(st.booleans()) else f


def _y_list(draw, max_deg):
    return draw(st.lists(st.integers(-5, 5), min_size=1, max_size=max_deg + 1).filter(any))


@st.composite
def products_linear_in_x(draw):
    """(a1*x + b1)(a2*x + b2) with a_i and b_i in Z[y] of degree up to 3,
    a square when the factors are equal (D = 0), and with y dividing
    a1 and a2 when the flag says so, so that the linear factors
    2a*x + b -+ s of the discriminant rule carry a content in y."""
    y_content = draw(st.booleans())
    factors = []
    for _ in range(2):
        a, b = _y_list(draw, 3), _y_list(draw, 3)
        if y_content:
            a = [0] + a
        factors.append(BPoly.make({**{(1, j): c for j, c in enumerate(a)}, **{(0, j): c for j, c in enumerate(b)}}))
    if draw(st.booleans()):
        factors[1] = factors[0]
    f = factors[0] * factors[1]
    return f.transpose() if draw(st.booleans()) else f


@settings(max_examples=150, deadline=None)
@given(st.one_of(quadratic_curves(), products_linear_in_x()))
@example(X * Y**2 - X**2 - 2 * X * Y + 2 * Y)  # prime, split at its first three points
@example((Y * X + BPoly.const(1)) * (Y * X + BPoly.const(2)))  # each 2a*x + b -+ s has content y
@example((X * Y**2 + Y + BPoly.const(3)) ** 2)  # D = 0
def test_factor_b_matches_sympy_route_at_smaller_degree_2(f):
    """factor_b on curves whose smaller degree is 2 is sympy's
    factorization, and the discriminant rule splits every reducible one
    with a constant content whose form g is not divisible by x."""
    assert factor_b.__wrapped__(f) == _sympy_route(f)
    q = primitive_int_bpoly(f)[1]
    g = q.transpose() if q.deg_y() < q.deg_x() else q
    if g.deg_x() == 2 and g.terms[0][0][0] == 0 and y_content_is_constant(g):
        assert (exact._split_quadratic(q) is None) is certify_irreducible_bivariate(q)


class TestFactorB:
    def test_bound_applies_to_either_variable(self):
        with pytest.raises(DegreeBound):
            factor_b(X**40 - Y**40)
        with pytest.raises(DegreeBound):
            factor_b(X - Y ** (DEFAULT_FACTOR_DEGREE_BOUND + 1))

    def test_degree_one_curves_need_no_factorization(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("factorizer called")

        monkeypatch.setattr(exact, "dmp_factor_list", refuse)
        monkeypatch.setattr(exact, "factor_q", refuse)
        one = BPoly.const(1)
        for f in (X - Y**2, X * Y**2 + Y + one, Y * X**3 + X + one, (X * Y + one).scale(Fraction(-2, 3))):
            u, q = primitive_int_bpoly(f)
            assert factor_b(f) == (u, ((q, 1),))

    def test_curves_split_at_some_points_need_no_wang(self, monkeypatch):
        """Primes whose value at some point splits: the factor degrees at
        the next points rule out every degree, so Wang never runs."""

        def refuse(*args):
            raise AssertionError("factorizer called")

        monkeypatch.setattr(exact, "dmp_factor_list", refuse)
        for f in (X**2 + Y**2 - BPoly.const(2), CORPUS_PRIME_2_3):
            u, q = primitive_int_bpoly(f)
            assert factor_b(f) == (u, ((q, 1),))

    def test_reducible_input_pays_at_most_the_stall_before_wang(self, monkeypatch):
        """On a reducible curve of both degrees at least 3 the candidate
        degrees can only stay as they are, so the certificate stops after
        PATTERN_STALL points and Wang runs once, after every certificate
        call."""
        factor_q_calls = []
        at_sympy_route = []

        def counting_factor_q(*args):
            factor_q_calls.append(args)
            return factor_q(*args)

        def recording_dmp_factor_list(*args):
            at_sympy_route.append(len(factor_q_calls))
            return dmp_factor_list(*args)

        monkeypatch.setattr(exact, "factor_q", counting_factor_q)
        monkeypatch.setattr(exact, "dmp_factor_list", recording_dmp_factor_list)
        for f, factors in (
            ((X**2 + Y) * (X + Y**2), [X**2 + Y, X + Y**2]),
            ((X - Y) * (X**2 + Y**3), [X - Y, X**2 + Y**3]),
        ):
            factor_q_calls.clear()
            at_sympy_route.clear()
            assert factor_b(f) == (1, tuple((q, 1) for q in factors))
            assert at_sympy_route == [len(factor_q_calls)]
            assert len(factor_q_calls) <= exact.PATTERN_STALL

    def test_quadratic_curves_split_without_wang(self, monkeypatch):
        """A reducible curve whose smaller degree is 2 splits by its
        discriminant, with no point read and no Wang: a square (D = 0),
        linear factors with a content in y to remove, the transpose of
        such a curve, and the curves that went to Wang before."""

        def refuse(*args):
            raise AssertionError("factorizer called")

        monkeypatch.setattr(exact, "dmp_factor_list", refuse)
        monkeypatch.setattr(exact, "factor_q", refuse)
        one = BPoly.const(1)
        for f in (
            X**2 - Y**2,
            (X - Y) * (X + Y**2),
            3 * (X * Y - Y**3 + one) ** 2,
            (X * Y + one) * (X * Y + 2 * one),
            (Y * X + one) * (Y**2 * X - Y - one) * -2,
            (Y - X**2) * (Y + X**3),
        ):
            unit, factors = factor_b(f)
            assert len(factors) == 2 or factors[0][1] == 2
            assert (unit, factors) == _sympy_route(f)

    def test_at_the_bound_still_factors(self):
        f = (X**DEFAULT_FACTOR_DEGREE_BOUND - Y) * BPoly.const(3)
        unit, fac = factor_b(f)
        assert (unit, fac) == (Fraction(3), ((X**DEFAULT_FACTOR_DEGREE_BOUND - Y, 1),))

    def test_difference_of_squares(self):
        unit, fac = factor_b(Y**2 - X**2)
        assert unit == -1
        assert fac == ((X - Y, 1), (X + Y, 1))


class TestResultant:
    def test_spec_examples(self):
        assert resultant_x(X - Y**2, X - Y) == up(0, 1, -1, var="y")  # y - y^2
        assert resultant_x(X**2 + BPoly.const(1), X - BPoly.const(2)) == up(5, var="y")
        assert resultant_x(X**2 - Y, BPoly.const(1)) == up(1, var="y")

    def test_vanishes_iff_common_factor(self):
        f = (X - Y) * (X + Y)
        g = (X - Y) * (X + BPoly.const(1))
        assert resultant_x(f, g).is_zero()

    def test_sign_swap(self):
        f, g = X**2 - Y, X - Y**2
        r1, r2 = resultant_x(f, g), resultant_x(g, f)
        sign = (-1) ** (f.deg_x() * g.deg_x())
        assert r1 == r2.scale(sign)

    def test_multiplicative(self):
        f, h, g = X - Y, X + Y**2, X**2 - Y - BPoly.const(3)
        assert resultant_x(f * h, g) == resultant_x(f, g) * resultant_x(h, g)


class TestFactorQ:
    def test_x4_minus_1(self):
        unit, fac = factor_q(up(-1, 0, 0, 0, 1))
        assert unit == 1
        assert fac == ((up(-1, 1), 1), (up(1, 1), 1), (up(1, 0, 1), 1))

    def test_irreducible_quadratic(self):
        unit, fac = factor_q(up(1, 0, 1))
        assert (unit, fac) == (Fraction(1), ((up(1, 0, 1), 1),))

    def test_unit(self):
        unit, fac = factor_q(up(-6, 6))
        assert unit == 6
        assert fac == ((up(-1, 1), 1),)

    def test_reconstruction(self):
        f = up(0, -4, 0, 1)  # x^3 - 4x
        unit, fac = factor_q(f)
        prod = UPoly.const("x", unit)
        for p, m in fac:
            prod = prod * p**m
        assert prod == f

    def test_degree_bound(self):
        with pytest.raises(DegreeBound):
            factor_q(up(*([0] * 30 + [1])))

    def test_low_degrees_need_no_factorizer(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("factorizer called")

        monkeypatch.setattr(exact, "_zassenhaus", refuse)
        monkeypatch.setattr(exact, "dmp_factor_list", refuse)
        assert factor_q(up(-6, 4)) == (2, ((up(-3, 2), 1),))
        assert factor_q(up(1, 4, 4)) == (1, ((up(1, 2), 2),))
        assert factor_q(up(-1, -1, 6, var="y")) == (1, ((up(-1, 2, var="y"), 1), (up(1, 3, var="y"), 1)))
        assert factor_q(up(0, -3, 6)) == (3, ((up(-1, 2), 1), (up(0, 1), 1)))
        assert factor_q(up(-2, 0, 1)) == (1, ((up(-2, 0, 1), 1),))
        # the certificate reads x^2 + x + 2 at y = 1, where D = -7
        q = X**2 * Y + X + Y**2 + BPoly.const(1)
        assert factor_b(q) == (1, ((q, 1),))


# factor_q's degree-pattern proof (exact._irreducibles) on fixed
# examples: the finish, the primes it must skip, and two reducible
# quartics on which a proof that skipped either check would err
SWINNERTON_DYER = up(576, 0, -960, 0, 352, 0, -40, 0, 1, var="y")
# (7y - 3)(15y^3 + 6y^2 + 5y + 4): 3, 5 and 7 divide lc = 105; read there
# regardless, q mod 3 has pattern [1, 1] and q mod 7 pattern [3], which
# leave no degree
LC_105 = up(-12, 13, 17, -3, 105, var="y")
# (y^2 - 6y + 4)(y^2 - 2y - 1): [2, 2] mod 3; not squarefree mod 5, where a
# distinct-degree factorization would read [1, 3] and leave no degree
SQUARE_MOD_5 = up(-4, -2, 15, -8, 1, var="y")
PATTERN_EXAMPLES = {
    "swinnerton-dyer": SWINNERTON_DYER,
    "eisenstein-at-3": up(3, 3, 0, 0, 1, var="y"),  # y^4 mod 3, not squarefree
    "lc-105": LC_105,
    "square-mod-5": SQUARE_MOD_5,
    "y^24-1": up(-1, *[0] * 23, 1, var="y"),
}


@pytest.mark.parametrize("name", PATTERN_EXAMPLES)
def test_pattern_example_matches_sympy(name):
    f = PATTERN_EXAMPLES[name]
    assert factor_q(f) == _dup_route_q(f)


def _sympy_pattern(cs, p):
    """The degrees of the factors of cs mod p by sympy's factorization over
    GF(p); None where p divides lc or the reduction has a square factor."""
    f = gf_from_int_poly(cs[::-1], p)
    if cs[-1] % p == 0 or not gf_sqf_p(gf_monic(f, p, ZZ)[1], p, ZZ):
        return None
    return sorted(len(g) - 1 for g in gf_factor_sqf(f, p, ZZ)[1])


@pytest.mark.parametrize("name", PATTERN_EXAMPLES)
def test_pattern_example_degrees_match_sympy(name):
    """The example's degree pattern at every prime of PATTERN_PRIMES is
    sympy's, None where the prime is unusable."""
    cs = list(PATTERN_EXAMPLES[name].coeffs)
    for p in exact.PATTERN_PRIMES:
        pattern = exact._degree_pattern(cs, p)
        assert (pattern if pattern is None else sorted(pattern)) == _sympy_pattern(cs, p)


@st.composite
def gf_pairs(draw):
    """(p, a, b): a prime of PATTERN_PRIMES and two reduced lists over
    GF(p), low degree first with no trailing zeros, of degree up to 6,
    both multiplied by a third at times, so that gcds of positive degree
    occur."""
    p = draw(st.sampled_from(exact.PATTERN_PRIMES))
    poly = st.lists(st.integers(0, p - 1), max_size=7).map(exact._trim)
    common, a, b = draw(poly), draw(poly), draw(poly)
    if draw(st.booleans()):
        a, b = (exact._trim([c % p for c in exact._mul(common, x)]) for x in (a, b))
    return p, a, b


class TestDegreePatterns:
    def _refuse_factorizer(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("factorizer called")

        monkeypatch.setattr(exact, "_zassenhaus", refuse)

    def test_swinnerton_dyer_takes_the_fallback(self, monkeypatch):
        """Irreducible, but it splits into factors of degree at most 2
        mod every prime, so no pattern proves it and the finish decides
        it."""
        calls = []
        finish = exact._zassenhaus

        def recording(*args):
            calls.append(args)
            return finish(*args)

        for p in exact.PATTERN_PRIMES:
            pattern = exact._degree_pattern(SWINNERTON_DYER.coeffs, p)
            assert pattern is None or max(pattern) <= 2
        monkeypatch.setattr(exact, "_zassenhaus", recording)
        assert factor_q(SWINNERTON_DYER) == (1, ((SWINNERTON_DYER, 1),))
        assert len(calls) == 1

    def test_unusable_primes_are_skipped(self, monkeypatch):
        f = PATTERN_EXAMPLES["eisenstein-at-3"]
        assert exact._degree_pattern(f.coeffs, 3) is None
        assert all(exact._degree_pattern(LC_105.coeffs, p) is None for p in (3, 5, 7))
        assert exact._degree_pattern(SQUARE_MOD_5.coeffs, 5) is None
        self._refuse_factorizer(monkeypatch)
        assert factor_q(f) == (1, ((f, 1),))

    def test_y24_minus_1_splits_into_cyclotomic_factors(self):
        _, fac = factor_q(PATTERN_EXAMPLES["y^24-1"])
        assert [(p.degree(), m) for p, m in fac] == [(d, 1) for d in (1, 1, 2, 2, 2, 4, 4, 8)]

    def test_powers_of_the_variable_are_split_off_first(self, monkeypatch):
        self._refuse_factorizer(monkeypatch)
        t, cubic = up(0, 1), up(1, 1, 0, 1)  # x^3 + x + 1 has no rational root
        assert factor_q(t**3 * cubic.scale(-2)) == (-2, ((t, 3), (cubic, 1)))
        assert factor_q(t**2 * up(-2, 0, 1)) == (1, ((t, 2), (up(-2, 0, 1), 1)))
        assert factor_q(t**4 * up(-1, 0, 1)) == (1, ((up(-1, 1), 1), (t, 4), (up(1, 1), 1)))
        assert factor_q(t**5) == (1, ((t, 5),))

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(-30, 30), min_size=4, max_size=25).filter(lambda cs: cs[-1] != 0),
        st.sampled_from(exact.PATTERN_PRIMES),
    )
    @example([1, 1, 0, 0, 1], 47)  # t^4 + t + 1 at a prime far above the degree
    @example([-6, 45043, 15015, -2, 15015], 17)  # lc 15015 = 3*5*7*11*13
    def test_pattern_equals_sympy_gf_factor_sqf(self, cs, p):
        """The kernel's degrees are those of sympy's factorization over
        GF(p); None exactly where p divides lc or the reduction has a
        square factor.  Degrees 3 to 24 at all fourteen primes, so the
        Frobenius rows t^(ip) also shift past the degree (p > n)."""
        pattern = exact._degree_pattern(cs, p)
        assert (pattern if pattern is None else sorted(pattern)) == _sympy_pattern(cs, p)

    @settings(max_examples=200, deadline=None)
    @given(gf_pairs())
    @example((7, [3, 0, 2], []))  # b empty, a not monic
    @example((5, [], [2, 4, 1]))  # a empty
    @example((3, [], []))
    @example((11, [4, 1, 3], [4, 1, 3]))  # a == b, not monic
    @example((13, [0, 0, 0, 5], [0, 7]))  # a power of t against t
    @example((7, [3, 0, 2], [4]))  # a nonzero constant divisor
    def test_gcd_equals_sympy_gf_gcd(self, case):
        """``_gcd_p`` is sympy's monic gcd over GF(p), and alters neither
        argument."""
        p, a, b = case
        a_before, b_before = list(a), list(b)
        got = exact._gcd_p(a, b, p)
        assert (a, b) == (a_before, b_before)
        assert got == gf_gcd(a[::-1], b[::-1], p, ZZ)[::-1]

    def test_gcd_of_a_list_with_itself(self):
        a = [4, 1, 3]
        assert exact._gcd_p(a, a, 11) == [5, 4, 1]
        assert a == [4, 1, 3]


def _irreducible_of_degree(draw, var, d):
    """An integer polynomial of degree d with a nonzero constant term,
    mostly irreducible."""
    cs = draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d)) + [draw(st.integers(1, 9))]
    cs[0] = cs[0] or 1
    return UPoly.make(var, cs)


@st.composite
def degree_3_to_24(draw):
    """Products of up to four factors of degree 1 to 8, all of one degree
    when ``equal`` is drawn, with a repeated factor and a power of the
    variable at times, and a rational unit: total degree 3 to 24."""
    var = draw(st.sampled_from("xy"))
    equal = draw(st.booleans())
    d = draw(st.integers(1, 8))
    factors = [
        _irreducible_of_degree(draw, var, d if equal else draw(st.integers(1, 8)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    if draw(st.booleans()):
        factors.append(factors[0])
    f = math.prod(factors[1:], start=factors[0]) * UPoly.make(var, [0] * draw(st.integers(0, 3)) + [1])
    assume(3 <= f.degree() <= 24)
    return f.scale(draw(nonzero_fracs))


@settings(max_examples=80, deadline=None)
@given(degree_3_to_24())
@example(SWINNERTON_DYER * up(-1, 0, 1, var="y"))
@example(up(1, 1, 0, 1) * up(2, -1, 0, 1))  # two cubics
def test_factor_q_matches_sympy_on_degrees_3_to_24(f):
    assert factor_q(f) == _sympy_route_q(f)


def _dup_route_q(f):
    """factor_q's oracle through sympy's dup_factor_list itself, on the
    primitive form of f, each factor put in primitive form and sorted."""
    unit, q = primitive_int_upoly(f)
    content, fac = dup_factor_list([ZZ(c) for c in reversed(q.coeffs)], ZZ)
    unit, out = unit * int(content), []
    for P, m in fac:
        u, g = primitive_int_upoly(UPoly.make(f.var, [int(c) for c in reversed(P)]))
        unit *= u**m
        out.append((g, m))
    out.sort(key=lambda t: (t[0].degree(), t[0].coeffs))
    return unit, tuple(out)


@st.composite
def irreducible_products(draw):
    """Products of one to four distinct irreducibles of degree 1 to 12,
    each proved irreducible by dup_factor_list, with multiplicities 1 to
    3 and a rational unit: total degree 3 to 24."""
    var = draw(st.sampled_from("xy"))
    factors = {}
    for _ in range(draw(st.integers(1, 4))):
        g = _irreducible_of_degree(draw, var, draw(st.integers(1, 12)))
        assume(_dup_route_q(g)[1] == ((primitive_int_upoly(g)[1], 1),))
        factors[g] = draw(st.integers(1, 3))
    f = math.prod((g**m for g, m in factors.items()), start=UPoly.const(var, 1))
    assume(3 <= f.degree() <= 24)
    return f.scale(draw(nonzero_fracs))


@settings(max_examples=60, deadline=None)
@given(irreducible_products())
@example(SWINNERTON_DYER)
@example(SWINNERTON_DYER * up(1, 0, 1, var="y") ** 2)
@example(up(1, 0, 1, var="y") ** 2 * up(3, 1, 0, 1, var="y"))  # no usable prime: a square
@example(up(1, 1, 0, 1, var="y") ** 3 * up(-1, 1, var="y") ** 2 * up(1, 2, var="y"))
def test_factor_q_matches_dup_factor_list(f):
    assert factor_q(f) == _dup_route_q(f)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=2, max_size=5).filter(lambda cs: cs[-1] > 0), min_size=1, max_size=3
    ),
    st.lists(st.integers(1, 3), min_size=3, max_size=3),
)
def test_gcd_and_squarefree_parts_match_sympy(factors, mults):
    """The gcd over Z of f and f' and Yun's parts of f are sympy's, on
    products of factors with multiplicities."""
    f = [1]
    for g, m in zip(factors, mults):
        for _ in range(m):
            f = exact._mul(f, g)
    f = exact._pp(f)
    df = [i * c for i, c in enumerate(f)][1:]
    want = dup_primitive(dup_gcd([ZZ(c) for c in reversed(f)], [ZZ(c) for c in reversed(df)], ZZ), ZZ)[1]
    assert exact._gcd_z(f, df) == [int(c) for c in reversed(want)]
    _, parts = dup_sqf_list([ZZ(c) for c in reversed(f)], ZZ)
    want = [(tuple(int(c) for c in reversed(dup_primitive(a, ZZ)[1])), i) for a, i in parts]
    assert exact._squarefree_parts(f) == want


# integer lists, low degree first, whose nonzero last entry 3, 5 and 7 often divide
_int_polys = st.tuples(
    st.lists(st.integers(-9, 9), max_size=4), st.integers(1, 9), st.sampled_from((1, 1, 3, 5, 7, 15, 105))
).map(lambda t: t[0] + [t[1] * t[2]])


@settings(max_examples=150, deadline=None)
@given(_int_polys, _int_polys, st.one_of(st.just([]), _int_polys), st.booleans())
@example([1, 3], [2, 1], [1, 1], True)  # shared 3y + 1, images coprime mod 3
@example([1], [4], [0, 0, 1], False)  # a constant operand
@example([1], [0, 1], [], False)  # b = 0
def test_gcd_z_matches_sympy(h, a, b, shared):
    """_gcd_z of independent operands, with and without a shared factor
    h and with leading coefficients that 3, 5 and 7 often divide, is
    sympy's gcd made primitive with a positive leading coefficient."""
    if shared:
        a, b = exact._mul(a, h), exact._mul(b, h)
    want = dup_primitive(dup_gcd([ZZ(c) for c in reversed(a)], [ZZ(c) for c in reversed(b)], ZZ), ZZ)[1]
    want = [int(c) for c in reversed(want)]
    assert exact._gcd_z(a, b) == (want if want[-1] > 0 else [-c for c in want])


def _zz(a):
    """An integer list, low degree first, as sympy's dense ZZ list."""
    return [ZZ(c) for c in reversed(a)]


# integer lists of degree 1 to n, low degree first
def _int_lists(n):
    return st.lists(st.integers(-9, 9), min_size=2, max_size=n + 1).filter(lambda cs: cs[-1] != 0)


@settings(max_examples=150, deadline=None)
@given(_int_lists(8), _int_lists(6), st.one_of(st.just([1]), _int_lists(3)))
@example([1, 0, 0, 0, 0, 0, 1], [3, 1], [1])  # degree gap 5
@example([2, 0, 0, 1], [-1, 0, 0, 0, 0, 0, 4], [1])  # degree gap 3, b longer
@example([1, 0, 0, 0, 1], [-2, 1], [1, 0, 1])  # degree gap 3 and a shared t^2 + 1
@example([-2, 1, 1], [3, 1], [1, 1, 0, 1])  # the chain ends on G of degree 3
def test_subresultant_prs_reads_gcd_and_resultant(a, b, h):
    """Both readings of one chain, with the modular accept of ``_gcd_z``
    out of the way: the primitive part of G is sympy's primitive gcd, and
    res is sympy's resultant with the longer operand first (a on a tie),
    also when a and b share the factor h and for degree gaps of 2 or
    more."""
    a, b = exact._mul(a, h), exact._mul(b, h)
    G, res = exact._subresultant_prs(a, b)
    want = dup_primitive(dup_gcd(_zz(a), _zz(b), ZZ), ZZ)[1]
    want = [int(c) for c in reversed(want)]
    assert exact._pp(G) == (want if want[-1] > 0 else [-c for c in want])
    A, B = (b, a) if len(b) > len(a) else (a, b)
    assert res == dup_resultant(_zz(A), _zz(B), ZZ)


@st.composite
def short_gcd_pairs(draw):
    """(a, b) with b of degree 0 to 2 and a of degree up to 10, sharing a
    factor h of degree up to 2 or none."""
    h = draw(st.one_of(st.just([1]), _int_lists(2)))
    cofactor = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4 - len(h)).filter(lambda cs: cs[-1] != 0))
    return exact._mul(draw(_int_lists(8)), h), exact._mul(cofactor, h)


# _gcd_z with its modular tries on every pair of nonconstant operands
_gcd_z_modular = _variant(exact._gcd_z, "if len(b) > 3:", "if len(b) > 1:")


@settings(max_examples=150, deadline=None)
@given(short_gcd_pairs())
@example(([1, 3], [2, 1]))  # coprime over Z, equal mod 5
@example(([-1, 0, 1], [1, 2, 1]))  # shared t + 1
@example(([0, 0, 0, 2], [0, 0, 4]))  # shared t^2, contents 2 and 4
def test_gcd_z_short_path_agrees_with_its_modular_route(pair):
    a, b = pair
    assert exact._gcd_z(a, b) == exact._gcd_z(b, a) == _gcd_z_modular(a, b)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-99, 99), max_size=6), st.lists(st.integers(-99, 99), max_size=9))
@example([], [-1, -2, -1])  # -(t + 1)^2: a negative leading coefficient
@example([], [0, 0, 0, 1])  # t^3: odd degree
@example([], [-4])  # a negative integer
@example([], [1, 0, 2, 0, 1])  # (t^2 + 1)^2
def test_sqrt_z_round_trips_and_refuses_non_squares(s, a):
    """_sqrt_z(s*s) is s with a positive leading coefficient, and on any
    a it returns a root exactly when sympy's factorization over Z shows a
    square: a positive square content and even multiplicities."""
    s = exact._trim(s)
    if s and s[-1] < 0:
        s = [-c for c in s]
    assert exact._sqrt_z(exact._mul(s, s)) == s
    a = exact._trim(a)
    root = exact._sqrt_z(a)
    if not a:
        assert root == []
        return
    content, fac = dup_factor_list(_zz(a), ZZ)
    square = content > 0 and math.isqrt(int(content)) ** 2 == content and all(m % 2 == 0 for _, m in fac)
    assert (root is not None) is square
    if root is not None:
        assert root[-1] > 0 and exact._mul(root, root) == a


def test_usable_prime_past_the_pattern_primes():
    """lc = 3*5*...*47: no pattern prime is usable, so the squarefree
    split proves f squarefree and the next prime, 53, decides it; a
    square has no usable prime, and the bounded search raises."""
    lc = math.prod(exact.PATTERN_PRIMES)
    f = up(1, 1, 0, lc, var="y")
    assert all(exact._degree_pattern(f.coeffs, p) is None for p in exact.PATTERN_PRIMES)
    assert exact._usable_prime(f.coeffs)[0] == 53
    assert factor_q(f) == _dup_route_q(f)
    g = up(1, 1, 0, lc, var="y") * up(1, 0, 0, lc, var="y")
    assert factor_q(g) == _dup_route_q(g)
    with pytest.raises(InconsistentResult):
        exact._usable_prime((up(1, 0, 1) ** 2).coeffs)


@st.composite
def linear_factors_times_cofactor(draw):
    """One to three factors b*t - a, with b up to 10^6 and |a| up to
    10^12, times a cofactor of degree 2 to 21 and a rational unit: the
    inputs whose rational roots factor_q lifts from their roots mod p.
    Roots divisible by 3, negative roots and b > 1 are drawn on purpose."""
    var = draw(st.sampled_from("xy"))
    f = _irreducible_of_degree(draw, var, draw(st.integers(2, 21)))
    for _ in range(draw(st.integers(1, 3))):
        b = draw(st.one_of(st.just(1), st.integers(2, 10**6)))
        a = draw(st.integers(-(10**12), 10**12).filter(lambda a: a != 0))
        if draw(st.booleans()):
            a = 3 * (a // 3) or 3
        f = f * UPoly.make(var, [-a, b])
    return f.scale(draw(nonzero_fracs))


@settings(max_examples=60, deadline=None)
@given(linear_factors_times_cofactor())
@example(up(-3 * 10**11, 1, var="y") * up(1, 1, 0, 1, var="y"))  # root 3*10^11, 0 mod 3
@example(up(10**12 - 1, 999983, var="y") * up(-2, 0, 1, var="y"))  # negative root, b prime
@example(up(-5, 6) * up(7, 6) * up(1, 0, 0, 0, 1))  # two roots with b = 6, times t^4 + 1
def test_factor_q_matches_sympy_on_linear_factors(f):
    assert factor_q(f) == _sympy_route_q(f)


class TestRationalRoots:
    """Inputs that factor_q decides by Hensel-lifted rational roots, with
    its Zassenhaus finish refused."""

    @pytest.fixture(autouse=True)
    def _refuse_factorizer(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("factorizer called")

        monkeypatch.setattr(exact, "_zassenhaus", refuse)

    def test_irreducible_cubic_without_zassenhaus(self):
        # t^3 + t + 3 has the pattern [1, 2] at 3, 5 and 7, which leaves
        # the candidates unchanged until the stall, so patterns alone
        # would send it to the Zassenhaus finish; the roots find none
        # at p = 3
        f = up(3, 1, 0, 1)
        assert [exact._degree_pattern(f.coeffs, p) for p in (3, 5, 7)] == [[1, 2]] * 3
        assert factor_q(f) == (1, ((f, 1),))

    def test_cubic_with_three_rational_roots(self):
        # (2t - 1)(3t + 5)(t - 7) = 6t^3 - 35t^2 - 54t + 35: every root is
        # lifted at the first usable prime, two with a denominator
        f = up(35, -54, -35, 6)
        assert factor_q(f) == (1, ((up(-7, 1), 1), (up(-1, 2), 1), (up(5, 3), 1)))

    def test_linear_times_irreducible_of_degree_12(self):
        # (3y + 1)(y^11 - y - 1): y^11 - y - 1 is irreducible (Selmer), and
        # the patterns leave factor degrees 1 and 11 only, so the root
        # -1/3 and an exact division decide the rest
        f = up(-1, -4, -3, *[0] * 8, 1, 3, var="y")
        ends = 2 | 1 << 11
        patterns = ((p, exact._degree_pattern(f.coeffs, p)) for p in exact.PATTERN_PRIMES)
        candidates, p, degrees = exact._degree_sets(12, patterns, ends)
        assert candidates and not candidates & ~ends
        assert exact._rational_roots(f.coeffs, p, degrees.count(1)) == ((-1, 3),)
        assert factor_q(f) == (1, ((up(1, 3, var="y"), 1), (up(-1, -1, *[0] * 9, 1, var="y"), 1)))


class TestCertifyIrreducible:
    def test_degree_one(self):
        assert certify_irreducible_bivariate(X - Y**2) is True

    def test_never_certifies_reducible(self):
        assert certify_irreducible_bivariate(X**2 - Y**2) is False

    def test_quadratic_decided_by_discriminant(self):
        # x*y^2 - x^2 - 2*x*y + 2*y splits at y = 1, -1 and 2, where the
        # degree-set rule stalled; its discriminant (y^2 - 2y)^2 + 8y is
        # no square.  (x*y + 1)^2 has D = 0
        q = X * Y**2 - X**2 - 2 * X * Y + 2 * Y
        assert certify_irreducible_bivariate(primitive_int_bpoly(q)[1]) is True
        assert certify_irreducible_bivariate((X * Y + BPoly.const(1)) ** 2) is False

    def test_specialization(self):
        assert certify_irreducible_bivariate(X**2 - Y) is True

    def test_reducible_content_free(self):
        f = (X**2 - Y) * (X**2 + Y)
        assert certify_irreducible_bivariate(f) is False

    def test_sparse_prime(self):
        # x^2 at y = 0, where x divides q(x, 0); x^2 - 2 at y = 1
        assert certify_irreducible_bivariate(X**2 - Y**3 - Y) is True


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(curves, nonconstant_upolys.map(BPoly.from_upoly)), min_size=1, max_size=3))
@example([X - Y**2, Y + BPoly.const(1)])  # degree 1 in x, but y + 1 divides it
@example([X * Y + BPoly.const(1), X + BPoly.const(1)])  # lc_x vanishes at y = 0
def test_certificate_is_sound(factors):
    """Never True on a product of nonconstant factors, and True only on
    what sympy's own factorizer finds irreducible."""
    q = primitive_int_bpoly(math.prod(factors))[1]
    certified = certify_irreducible_bivariate(q)
    if len(factors) > 1:
        assert not certified
    if certified:
        assert _sympy_route(q)[1] == ((q, 1),)


@settings(max_examples=100, deadline=None)
@given(mixed_bpolys(3).filter(lambda h: h.deg_x() > 0 or h.deg_y() > 0))
@example(X**2 - Y**3 - Y)  # a sparse prime: x divides q(x, 0), not q(x, 1)
@example(X**2 * Y + X * Y**2 + BPoly.const(1))  # x*h loops forever without the q(0, y) = 0 guard
def test_certificate_terminates_on_multiples_of_x_and_y(h):
    """Returns False on x*h and y*h for every nonconstant h, and is sound
    on h itself."""
    for m in (X, Y):
        assert certify_irreducible_bivariate(primitive_int_bpoly(m * h)[1]) is False
    q = primitive_int_bpoly(h)[1]
    if certify_irreducible_bivariate(q):
        assert _sympy_route(q)[1] == ((q, 1),)


class TestComplexRoots:
    def test_x2_plus_1(self):
        rs = complex_roots(up(1, 0, 1), eps=1e-10)
        vals = sorted(float(r.imag) for r in rs)
        assert abs(vals[0] + 1) < 1e-9 and abs(vals[1] - 1) < 1e-9
        assert all(abs(float(r.real)) < 1e-9 for r in rs)

    def test_rational_root(self):
        (r,) = complex_roots(up(Fraction(-3, 2), 1), eps=1e-10)
        assert abs(complex(r) - 1.5) < 1e-9

    def test_cbrt2_vs_bisection(self):
        # independent bisection oracle for the real root of x^3 - 2
        f = up(-2, 0, 0, 1)
        lo, hi = 1.0, 2.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if mid**3 - 2 < 0:
                lo = mid
            else:
                hi = mid
        rs = complex_roots(f, eps=1e-10)
        assert len(rs) == 3
        reals = [r for r in rs if abs(float(r.imag)) < 1e-8]
        assert len(reals) == 1
        assert abs(float(reals[0].real) - lo) < 1e-8

    def test_multiplicity(self):
        f = up(-1, 1) ** 3
        rs = complex_roots(f, eps=1e-10)
        assert len(rs) == 3
        assert all(abs(complex(r) - 1) < 1e-8 for r in rs)
        # distinct irreducibles at mixed multiplicities: (x - 1)^2 (x^2 + 1)(x^2 - 2)
        f = up(-1, 1) ** 2 * up(1, 0, 1) * up(-2, 0, 1)
        rs = complex_roots(f, eps=1e-10)
        assert len(rs) == 6
        for root, mult in ((1, 2), (1j, 1), (-1j, 1), (2**0.5, 1), (-(2**0.5), 1)):
            assert sum(abs(complex(r) - root) < 1e-8 for r in rs) == mult

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            complex_roots(up(1, 1), eps=0)

    def test_clustered_roots_get_disjoint_discs(self):
        # Mignotte-type x^8 - 2(10x - 1)^2: two real roots near 1/10 lie
        # about 1.4e-5 apart, so discs of radius 1e-6 can be disjoint and
        # discs of radius 1e-5 cannot; approximations that pass the
        # residual test at 1e-5 do not prove they hit different roots
        f = up(*[0] * 8, 1) - (up(-1, 10) ** 2).scale(2)
        eps = 1e-6
        rs = complex_roots(f, eps=eps)
        assert len(rs) == 8
        assert all(abs(a - b) > 2 * eps for i, a in enumerate(rs) for b in rs[i + 1 :])
        with pytest.raises(PrecisionFailure):
            complex_roots(f, eps=1e-5)

    def test_no_convergence_is_precision_failure(self, monkeypatch):
        calls = []

        def never_converges(*args, **kwargs):
            calls.append(args)
            raise mpmath.libmp.NoConvergence("no convergence")

        monkeypatch.setattr(mpmath, "polyroots", never_converges)
        with pytest.raises(PrecisionFailure):
            complex_roots(up(1, 0, 1))
        assert len(calls) == 5  # every step of the precision schedule

    def test_other_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("broken")

        monkeypatch.setattr(mpmath, "polyroots", broken)
        with pytest.raises(RuntimeError):
            complex_roots(up(1, 0, 1))
