"""The memo policy: memoized functions return exactly what their uncached
bodies return, return tuples that no caller can use to alter a cached
value, and ``clear_caches`` empties every memo.  ``factor_q`` is keyed
on the primitive form, so inputs equal up to a unit share one entry."""

from fractions import Fraction

import mpmath
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from doublefield import exact, suites
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


def _factor_q_uncached(f):
    """factor_q(f) from the uncached body of its memo, with f's unit put
    back."""
    if f.degree() == 0:
        return f.lc(), ()
    unit, q = exact.primitive_int_upoly(f)
    u, fac = exact._factor_primitive_q.__wrapped__(q)
    return exact._frac(unit * u), fac


@MEMO_SETTINGS
@given(upolys())
def test_factor_q_equals_uncached(f):
    expected = _factor_q_uncached(f)
    assert factor_q(f) == expected
    assert factor_q(f) == expected


@MEMO_SETTINGS
@given(upolys(), st.one_of(st.just(-1), coefficients.filter(bool)))
def test_factor_q_is_keyed_up_to_a_unit(f, c):
    """factor_q(c*f) == (c*u, fac) where factor_q(f) == (u, fac), whichever
    of the two is asked first, from an empty memo or a warm one."""
    u, fac = _factor_q_uncached(f)
    expected = {f: (u, fac), f.scale(c): (exact._frac(c * u), fac)}
    for first, second in ((f, f.scale(c)), (f.scale(c), f)):
        clear_caches()
        assert factor_q(first) == expected[first]
        assert factor_q(second) == expected[second]


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
    expected = [_bits(z) for z in complex_roots.__wrapped__(f, eps=eps)]
    for _ in range(2):
        assert [_bits(z) for z in complex_roots(f, eps=eps)] == expected
    assert complex_roots(f) == complex_roots.__wrapped__(f)


def test_memoized_results_are_tuples():
    """A cached value cannot be altered because its type does not allow
    it: every factor list, every factor pair and every root list is a
    tuple, on the first call and on a cached one."""
    f = UPoly.make("y", [-2, 0, 0, 1]) * UPoly.make("y", [1, 1])
    g = BPoly.gen("x") ** 2 - BPoly.gen("y") ** 2
    for _ in range(2):
        for result in (factor_q(f), factor_b(g)):
            unit, fac = result
            assert type(result) is tuple and type(fac) is tuple and len(fac) == 2
            assert all(type(pair) is tuple for pair in fac)
        assert type(complex_roots(f)) is tuple and len(complex_roots(f)) == 4


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
    # factor_q's (on the primitive form), factor_b, y_content, complex_roots,
    # _height, arch_lambda, _hh, UnaryPlace.finite and .infinity
    assert len(filled) == 9 and all(n > 0 for n in filled)
    assert all(m.cache_info().maxsize == MEMO_SIZE for m in exact._MEMOS)
    clear_caches()
    assert all(m.cache_info().currsize == 0 for m in exact._MEMOS)


def test_symmetry_passes_share_no_factorization(monkeypatch):
    """run_symmetry computes every pair(A, B) and then every pair(B, A),
    each pass from empty memos: the two factor the same fiber resultants
    up to sign, so each must miss the factor memo as often as the other.
    A memo kept across them would serve part of the second pass (229
    misses, then 206: the pass holds more distinct inputs than MEMO_SIZE)."""
    misses = []

    def count_and_clear():
        misses.append(exact._factor_primitive_q.cache_info().misses)
        clear_caches()

    clear_caches()
    monkeypatch.setattr(suites, "clear_caches", count_and_clear)
    assert suites.run_symmetry()["ok"]
    misses.append(exact._factor_primitive_q.cache_info().misses)
    # the primes' certification, the pass of pair(A, B), that of pair(B, A)
    assert len(misses) == 3 and misses[1] > 0
    assert misses[2] == misses[1]


def test_charts_passes_share_no_factorization(monkeypatch):
    """run_charts computes every sigma^* fiber_divisor(f, g) and then
    every fiber_divisor(phi^*f, phi^*g), each pass from empty memos.  The
    two passes often factor one polynomial up to a unit (136 of the
    second pass's 347 inputs are asked in the first), so a memo kept
    across them would serve the second pass from the first: each input
    of the second pass must miss the factor memo the first time it is
    asked, and without the clear between them there is no second pass."""
    cached = exact._factor_primitive_q
    passes = [[]]  # per stretch between clears, each input and whether the memo served it

    def recording(q):
        hits = cached.cache_info().hits
        out = cached(q)
        passes[-1].append((q, cached.cache_info().hits > hits))
        return out

    def clear_and_open_pass():
        clear_caches()
        passes.append([])

    monkeypatch.setattr(exact, "_factor_primitive_q", recording)
    monkeypatch.setattr(suites, "clear_caches", clear_and_open_pass)
    assert suites.run_charts()["ok"]
    # the primes' certification, then the two passes
    assert len(passes) == 3
    _, first, second = passes
    assert {q for q, _ in first} & {q for q, _ in second}
    seen = set()
    served = []
    for q, hit in second:
        if q not in seen and hit:
            served.append(q)
        seen.add(q)
    assert served == []
