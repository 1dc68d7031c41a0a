"""Properties of the pairing and the residue routes on generated binary
primes of bidegree at most (2, 2), beyond the fixed suite pools."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from doublefield.divisors import BinaryPlace, Divisor, UnaryPlace, degree_K
from doublefield.errors import NonGeneric, UncertifiedFactor
from doublefield.exact import BPoly, UPoly
from doublefield.pairing import SIDE_K, SIDE_KPRIME, pair
from doublefield.residues import correspondence, residue_mod_Kp_degree_one

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
