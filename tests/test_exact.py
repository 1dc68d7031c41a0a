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
from sympy.polys.euclidtools import dup_gcd
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
    _from_dup,
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


def _grid_form(rng, a, b, lc_at_zero):
    """A form of x-degree a and y-degree b with integer coefficients in
    [-5, 5]; its x-leading coefficient has y-degree b and, when
    lc_at_zero (b >= 1), vanishes at y = 0."""
    d = {(i, j): rng.randint(-5, 5) for i in range(a) for j in range(b + 1)}
    for j in range(1 if lc_at_zero else 0, b):
        d[(a, j)] = rng.randint(-5, 5)
    d[(a, b)] = rng.choice((-3, -2, -1, 1, 2, 3))
    return BPoly.make(d)


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


# y_content_is_constant on fixed examples, with the answer and the route
# each must take (a prime names the modular test and the prime that
# decides it): a constant row; rows coprime mod 3; rows y^2 + 1 and
# y^2 + 4, equal mod 3 but coprime over Q and mod 5; a top row 105*y + 1,
# whose lc 3, 5 and 7 divide, sharing the root 9 with y + 2 mod 11 but
# not mod 13; rows y and y + 105, equal mod 3, 5 and 7, so that the
# resultant finds them coprime; and (x + 1)(y^2 + 1), whose content
# y^2 + 1 the resultant finds
CONTENT_EXAMPLES = {
    "constant-row": (X**2 * Y + X + Y**2, True, "row"),
    "coprime-mod-3": (X * Y**2 + X * Y + Y + BPoly.const(2), True, 3),
    "equal-rows-mod-3": (X * Y**2 + Y**2 + X + BPoly.const(4), True, 5),
    "lc-105": (105 * X * Y + X + Y + BPoly.const(2), True, 13),
    "rows-equal-mod-3-5-7": (X * Y + Y + BPoly.const(105), True, "resultant"),
    "content-y^2+1": (X * Y**2 + X + Y**2 + BPoly.const(1), False, "resultant"),
}


@pytest.mark.parametrize("name", CONTENT_EXAMPLES)
def test_y_content_example_route(monkeypatch, name):
    """Each example reads as sympy's content does, by its route: the
    resultant is taken only where the modular test fails, and no route
    loads a bridged name."""
    f, constant, route = CONTENT_EXAMPLES[name]
    assert _sympy_content_is_constant(f) is constant
    calls = {"mod p": [], "resultant": []}
    modular, resultant = exact._rows_coprime_mod_p, exact.resultant_x

    def coprime(rows):
        calls["mod p"].append(modular(rows))
        return calls["mod p"][-1]

    def res(*args):
        calls["resultant"].append(args)
        return resultant(*args)

    monkeypatch.setattr(exact, "_rows_coprime_mod_p", coprime)
    monkeypatch.setattr(exact, "resultant_x", res)
    for n in exact._BRIDGED:
        monkeypatch.setattr(exact, n, None)
    assert y_content_is_constant(f) is constant
    assert all(getattr(exact, n) is None for n in exact._BRIDGED)
    taken = "resultant" if calls["resultant"] else "mod p" if calls["mod p"] else "row"
    assert taken == ("mod p" if type(route) is int else route)
    assert calls["mod p"] == ([] if route == "row" else [type(route) is int])
    if type(route) is int:
        # the primes before route do not decide it, route does
        rows = exact._x_rows(primitive_int_bpoly(f)[1])
        k = exact.PATTERN_PRIMES.index(route)
        for primes, decided in ((exact.PATTERN_PRIMES[:k], False), (exact.PATTERN_PRIMES[: k + 1], True)):
            monkeypatch.setattr(exact, "PATTERN_PRIMES", primes)
            assert modular(rows) is decided


class TestBridge:
    def setup_method(self):
        # the conversions read the bridged ZZ, which the fallbacks load
        exact._load_bridge()

    def test_dense_layout(self):
        # x is the main variable; rows and coefficients run from the top degree
        assert _to_dmp(X**2 * Y - 3 * Y + BPoly.const(1)) == [[1, 0], [], [-3, 1]]
        assert _to_dmp(BPoly.zero()) == [[]]
        # a resultant comes back as a dup in y, from the top degree
        assert _from_dup([ZZ(2), ZZ(0), ZZ(1)], "y") == up(1, 0, 2, var="y")

    @settings(max_examples=80)
    @given(upoly_strategy(coeffs=small_ints), st.sampled_from(("x", "y")))
    def test_upoly_round_trip(self, f, var):
        f = f.with_var(var)
        assert _from_dup([ZZ(c) for c in reversed(f.coeffs)], var) == f

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
            "names = ('ZZ', 'dmp_resultant', 'dmp_factor_list')\n"
            "print(all(getattr(exact, n) is None for n in names))\n"
            "class Refused(Exception):\n"
            "    pass\n"
            "def refuse(*args):\n"
            "    raise Refused\n"
            "exact.dmp_factor_list = refuse\n"
            "try:\n"
            "    cli.main(['divisor', '(x^2-y^2)/(x*y)'])\n"
            "except Refused:\n"
            "    print('refused')\n"
            "print(exact.dmp_factor_list is refuse)\n"
            "exact.dmp_factor_list = None\n"
            "exact._load_bridge()\n"
            "from sympy.polys import domains, euclidtools, factortools\n"
            "own = (domains.ZZ, euclidtools.dmp_resultant, factortools.dmp_factor_list)\n"
            "print([getattr(exact, n) is f for n, f in zip(names, own)])\n"
        )
        src = str(Path(exact.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, check=True).stdout
        assert out.splitlines() == ["True", "refused", "True", str([True] * 3)]


class TestBridgedAlgebra:
    """Each bridged call against an exact identity or sympy's expression
    layer as an oracle."""

    @settings(max_examples=60, deadline=None)
    @given(mixed_bpolys(max_deg=5), mixed_bpolys(max_deg=5))
    # y-degree 0, as the oracle's log|Res| of two places reads it: the
    # substitution, the Bezout determinant and sympy's PRS
    @example(X**2 + BPoly.const(1), X - BPoly.const(2))
    @example(X**3 - BPoly.const(2), X**2 + X + BPoly.const(Fraction(1, 3)))
    @example(X**5 - X + BPoly.const(1), X**4 + BPoly.const(7))
    def test_resultant_x_matches_sympy(self, f, g):
        # x-degrees up to 5 reach the substitution, the Bezout
        # determinant and sympy's PRS
        if f.deg_x() < 1 or g.deg_x() < 1:
            return
        # the documented order: Res(g, f) in sympy's argument convention
        r = sympy.resultant(sym_b(g), sym_b(f), SX)
        assert resultant_x(f, g) == upoly_of_expr(r, "y")

    @pytest.mark.parametrize("a1, a2", [(a1, a2) for a1 in range(1, 6) for a2 in range(1, 6)])
    def test_resultant_x_grid_matches_sympy(self, a1, a2):
        """Every pair of x-degrees in {1..5}^2, so every route and sign,
        at y-degrees 0..3, with x-leading coefficients that vanish at
        y = 0 and rational units."""
        rng = random.Random(100 * a1 + a2)
        for b1 in range(4):
            for b2 in range(4):
                f = _grid_form(rng, a1, b1, lc_at_zero=b1 > 0 and (b1 + b2) % 2 == 0)
                g = _grid_form(rng, a2, b2, lc_at_zero=b2 > 0 and (b1 + b2) % 2 == 1)
                if (b1 + b2) % 3 == 0:
                    f = f.scale(Fraction(-2, 3))
                r = sympy.resultant(sym_b(g), sym_b(f), SX)
                assert resultant_x(f, g) == upoly_of_expr(r, "y"), (f, g)

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
# factor_b on fixed reducible curves, which every proof of primality must
# leave to Wang's algorithm
REDUCIBLE_CURVES = {"x^2-y^2": X**2 - Y**2}


@pytest.mark.parametrize("name", REDUCIBLE_CURVES)
def test_reducible_curve_matches_sympy(name):
    f = REDUCIBLE_CURVES[name]
    assert factor_b(f) == _sympy_route(f)


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
        """On a reducible curve the candidate degrees can only stay as they
        are, so the certificate stops after PATTERN_STALL points and Wang
        runs once, after every certificate call."""
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
            ((X - Y) * (X + Y**2), [X - Y, X + Y**2]),
            (X**2 - Y**2, [X - Y, X + Y]),
        ):
            factor_q_calls.clear()
            at_sympy_route.clear()
            assert factor_b(f) == (1, tuple((q, 1) for q in factors))
            assert at_sympy_route == [len(factor_q_calls)]
            assert len(factor_q_calls) <= exact.PATTERN_STALL

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
    """The primitive PRS gcd of f and f' and Yun's parts of f are sympy's,
    on products of factors with multiplicities."""
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
