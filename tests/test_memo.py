"""The memo policy: memoized functions return exactly what their uncached
bodies return, hand out lists no caller can use to alter a cached value,
and ``clear_caches`` empties every memo."""

from fractions import Fraction

import mpmath
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from doublefield import exact
from doublefield.arakelov import arakelov_from_divisor, intersect
from doublefield.divisors import Divisor, UnaryPlace
from doublefield.exact import (
    MEMO_SIZE,
    BPoly,
    UPoly,
    clear_caches,
    complex_roots,
    factor_b,
    factor_q,
)

MEMO_SETTINGS = settings(max_examples=25, deadline=None)

coefficients = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)


@st.composite
def upolys(draw, max_degree=4):
    var = draw(st.sampled_from("xy"))
    f = UPoly.make(var, draw(st.lists(coefficients, min_size=1, max_size=max_degree + 1)))
    assume(not f.is_zero())
    return f


@st.composite
def bpolys(draw):
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)), coefficients, min_size=1, max_size=5
        )
    )
    f = BPoly.make(terms)
    assume(not f.is_zero())
    return f


def _bits(z):
    """The exact binary value of an mpc, for bit-for-bit comparison."""
    return (z.real._mpf_, z.imag._mpf_)


@MEMO_SETTINGS
@given(upolys())
def test_factor_q_equals_uncached(f):
    expected = factor_q.__wrapped__(f)
    assert factor_q(f) == expected
    assert factor_q(f) == expected


@MEMO_SETTINGS
@given(bpolys())
def test_factor_b_equals_uncached(f):
    expected = factor_b.__wrapped__(f)
    assert factor_b(f) == expected
    assert factor_b(f) == expected


@MEMO_SETTINGS
@given(upolys(max_degree=3))
def test_complex_roots_equal_uncached(f):
    eps = mpmath.mpf(2) ** -40
    expected = [_bits(z) for z in complex_roots.__wrapped__(f, eps=eps, prec=80)]
    for _ in range(2):
        assert [_bits(z) for z in complex_roots(f, eps=eps, prec=80)] == expected
    assert complex_roots(f) == complex_roots.__wrapped__(f)


def test_returned_lists_cannot_alter_the_cache():
    f = UPoly.make("y", [-2, 0, 0, 1]) * UPoly.make("y", [1, 1])
    unit, fac = factor_q(f)
    expected = (unit, list(fac))
    fac.append((UPoly.make("y", [5, 1]), 1))
    fac[0] = (UPoly.make("y", [7, 1]), 3)
    assert factor_q(f) == expected

    g = BPoly.gen("x") ** 2 - BPoly.gen("y") ** 2
    unit, fac = factor_b(g)
    expected = (unit, list(fac))
    fac.clear()
    assert factor_b(g) == expected

    roots = complex_roots(f)
    expected = list(roots)
    roots.pop()
    roots[0] = mpmath.mpc(9)
    assert complex_roots(f) == expected


def test_equal_places_are_shared():
    p = UPoly.make("y", [-1, 0, 1])
    assert UnaryPlace.finite(p) is UnaryPlace.finite(UPoly.make("y", [-1, 0, 1]))
    assert UnaryPlace.infinity("x") is UnaryPlace.infinity("x")
    assert UnaryPlace.infinity("x") != UnaryPlace.infinity("y")


def test_clear_caches_empties_every_memo():
    q = UnaryPlace.finite(UPoly.make("y", [1, 0, 1]))
    intersect(
        arakelov_from_divisor(Divisor.of(q)),
        arakelov_from_divisor(Divisor.of(UnaryPlace.infinity("y"))),
    )
    factor_q(UPoly.make("x", [Fraction(1, 2), 0, 1]))
    factor_b(BPoly.gen("x") - BPoly.gen("y"))
    filled = [m.cache_info().currsize for m in exact._MEMOS]
    # factor_q, factor_b, y_content, complex_roots, _height, arch_lambda,
    # _hh, UnaryPlace.finite and .infinity
    assert len(filled) == 9 and all(n > 0 for n in filled)
    assert all(m.cache_info().maxsize == MEMO_SIZE for m in exact._MEMOS)
    clear_caches()
    assert all(m.cache_info().currsize == 0 for m in exact._MEMOS)
