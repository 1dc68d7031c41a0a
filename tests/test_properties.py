"""Properties of the pairing and the residue routes on generated binary
primes of bidegree at most (2, 2), beyond the fixed suite pools."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from doublefield.charts import fiber_divisor, find_shift, reverse_y
from doublefield.divisors import BinaryPlace, Divisor, UnaryPlace, degree_K
from doublefield.errors import NonGeneric, UncertifiedFactor
from doublefield.exact import BPoly, UPoly
from doublefield.pairing import SIDE_K, SIDE_KPRIME, pair
from doublefield.residues import correspondence, residue_mod_Kp_degree_one
from doublefield.suites import _two_chart_fiber_divisor

PROPERTY_SETTINGS = settings(max_examples=20, deadline=None)


@st.composite
def binary_primes(draw):
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            st.sampled_from((-3, -2, -1, 1, 2, 3)),
            min_size=2,
            max_size=5,
        )
    )
    f = BPoly.make(terms)
    assume(f.deg_x() >= 1 and f.deg_y() >= 1)
    # about a third of the draws are not certified irreducible; a shift
    # f + c of the same bidegree stands in for them, because discarding
    # them (two draws per example) tripped the filter_too_much health check
    for c in (0, 1, -1, 2):
        try:
            return BinaryPlace.make(f + BPoly.const(c))
        except UncertifiedFactor:
            pass
    assume(False)


@PROPERTY_SETTINGS
@given(binary_primes(), binary_primes())
def test_pair_symmetric_with_bezout_degree(m, n):
    assume(m != n)
    A, B = Divisor.of(m), Divisor.of(n)
    for side in (SIDE_K, SIDE_KPRIME):
        assert pair(A, B, side) == pair(B, A, side)
    bezout = m.degree_x() * n.degree_y() + m.degree_y() * n.degree_x()
    assert degree_K(pair(A, B, SIDE_KPRIME)) == bezout


@PROPERTY_SETTINGS
@given(binary_primes(), st.integers(-3, 3))
def test_correspondence_matches_chart_route(m, c):
    A = Divisor.of(m)
    p = UnaryPlace.finite(UPoly.make("y", [-c, 1]))
    try:
        via_factorization = correspondence(A, p)
    except NonGeneric:
        assume(False)
    assert via_factorization == residue_mod_Kp_degree_one(A, p)


def _rejected_before(c):
    """Candidates the search order 0, 1, -1, 2, -2, ... tries before c."""
    return 2 * c - 1 if c > 0 else -2 * c


@PROPERTY_SETTINGS
@given(binary_primes(), binary_primes())
def test_shift_search_rejects_at_most_the_limit(m, n):
    assume(m != n)
    for f, g in ((m.poly, n.poly), (reverse_y(m.poly), reverse_y(n.poly))):
        limit = f.deg_x() * g.deg_y() + f.deg_y() * g.deg_x() + f.deg_x() + g.deg_x()
        assert _rejected_before(find_shift(f, g)) <= limit


@PROPERTY_SETTINGS
@given(binary_primes(), binary_primes())
def test_fiber_divisor_matches_two_chart_route(m, n):
    assume(m != n)
    for f, g in ((m.poly, n.poly), (reverse_y(m.poly), reverse_y(n.poly))):
        assert fiber_divisor(f, g) == _two_chart_fiber_divisor(f, g, find_shift(f, g))


weights = st.sampled_from((-2, -1, 1, 2))


@PROPERTY_SETTINGS
@given(binary_primes(), binary_primes(), binary_primes(), weights, weights, weights, weights, weights)
def test_pair_bilinear(p, q, r, w1, w2, w3, w4, w5):
    assume(len({p, q, r}) == 3)
    # A1 and A2 share their support, so additivity also checks that
    # the coefficients multiply, in either argument
    A1 = Divisor.make({p: w1, q: w2})
    A2 = Divisor.make({p: w3, q: w4})
    B = Divisor.of(r, w5)
    for side in (SIDE_K, SIDE_KPRIME):
        assert pair(A1 + A2, B, side) == pair(A1, B, side) + pair(A2, B, side)
        assert pair(B, A1 + A2, side) == pair(B, A1, side) + pair(B, A2, side)
