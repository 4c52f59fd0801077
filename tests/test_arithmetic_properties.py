"""Property tests of the sparse IsobaricPoly arithmetic (needs Hypothesis).

The same checks as ``test_arithmetic.py`` against the plain-dict references
in ``helpers``, on polynomials that Hypothesis draws and shrinks.  The run
is derandomized and keeps no example database, so it is reproducible.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from isobaric.polynomials import IsobaricPoly  # noqa: E402

from helpers import (  # noqa: E402
    assert_poly_is,
    brute_force_vectors,
    evaluate_reference,
    ref_add,
    ref_evaluate,
    ref_mul,
    ref_scale,
    ref_terms,
    ref_times_part,
)

PROPERTIES = settings(max_examples=150, deadline=None, derandomize=True, database=None)

rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-6, 6).map(Fraction),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
)


@st.composite
def polys(draw, n: int, k: int, max_terms: int = 8) -> IsobaricPoly:
    vectors = sorted(brute_force_vectors(n, k))
    pairs = draw(st.lists(st.tuples(st.sampled_from(vectors), rationals), max_size=max_terms))
    return IsobaricPoly(n, k, pairs)


@st.composite
def cases(draw):
    k = draw(st.integers(1, 5))
    n = draw(st.integers(0, 10))
    m = draw(st.integers(0, 10 - n))
    p = draw(polys(n, k))
    # q shares keys with p so that sums can cancel.
    flips = draw(st.lists(st.booleans(), min_size=len(p), max_size=len(p)))
    cancel = IsobaricPoly(n, k, [(a.multiplicities, -c) for (a, c), f in zip(p.sorted_terms(), flips) if f])
    q = draw(polys(n, k, 4)) + cancel
    r = draw(polys(m, k, 5))
    point = draw(st.lists(rationals, min_size=k, max_size=k))
    return p, q, r, point


@PROPERTIES
@given(cases(), rationals, st.integers(1, 7))
def test_arithmetic_properties(case, c, j):
    p, q, r, point = case
    n, k, m = p.n, p.k, r.n
    rp, rq, rr = ref_terms(p), ref_terms(q), ref_terms(r)
    assert_poly_is(p + q, n, k, ref_add(rp, rq))
    assert_poly_is(p - q, n, k, ref_add(rp, ref_scale(rq, -1)))
    assert_poly_is(-q, n, k, ref_scale(rq, -1))
    for scalar in (c, 0, 1, -1):
        assert_poly_is(p.scale(scalar), n, k, ref_scale(rp, scalar))
        assert_poly_is(scalar * p, n, k, ref_scale(rp, scalar))
    assert_poly_is(p.times_part(j), n + j, k, ref_times_part(rp, j, k))
    assert_poly_is(p * r, n + m, k, ref_mul(rp, rr))
    assert_poly_is((p + q) * (p - q), 2 * n, k, ref_mul(ref_add(rp, rq), ref_add(rp, ref_scale(rq, -1))))
    for poly in (p, q, p * r):
        assert poly.evaluate(point) == ref_evaluate(ref_terms(poly), point) == evaluate_reference(poly, point)
