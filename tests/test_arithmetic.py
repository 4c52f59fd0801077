"""The sparse IsobaricPoly arithmetic against plain-dict references.

``+``, ``-``, ``scale``, ``times_part`` and ``*`` build their results
without re-validating terms, and ``evaluate`` is one integer sum.  Each is
checked here on seeded random polynomials against the dict arithmetic and
the term-by-term evaluation in ``helpers``, and every result must look
exactly like a polynomial rebuilt through the validating constructor.
"""

import random
from fractions import Fraction

import pytest

from isobaric.polynomials import IsobaricPoly

from helpers import (
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

CASES = 320


def random_rational(rng: random.Random) -> Fraction:
    """Zero, small integers of both signs, or a fraction."""
    kind = rng.random()
    if kind < 0.15:
        return Fraction(0)
    if kind < 0.55:
        return Fraction(rng.randint(-6, 6))
    return Fraction(rng.randint(-40, 40), rng.randint(1, 12))


def random_poly(rng: random.Random, n: int, k: int, max_terms: int = 10) -> IsobaricPoly:
    """Up to ``max_terms`` random vectors of (n, k), some coefficients zero,
    some keys repeated, built through the public constructor."""
    vectors = sorted(brute_force_vectors(n, k))
    pairs = [(rng.choice(vectors), random_rational(rng)) for _ in range(rng.randint(0, max_terms))]
    return IsobaricPoly(n, k, pairs)


def partly_cancelling(rng: random.Random, p: IsobaricPoly) -> IsobaricPoly:
    """A polynomial of p's degree that cancels p on a random subset of its
    keys and adds fresh terms elsewhere."""
    terms = [(alpha.multiplicities, -c) for alpha, c in p.sorted_terms() if rng.random() < 0.6]
    return random_poly(rng, p.n, p.k, 4) + IsobaricPoly(p.n, p.k, terms)


def random_point(rng: random.Random, k: int) -> list[Fraction]:
    return [random_rational(rng) for _ in range(k)]


def test_arithmetic_matches_dict_reference():
    rng = random.Random(20260)
    for _ in range(CASES):
        k = rng.randint(1, 6)
        n = rng.randint(0, 14)
        p = random_poly(rng, n, k)
        q = partly_cancelling(rng, p) if rng.random() < 0.5 else random_poly(rng, n, k)
        rp, rq = ref_terms(p), ref_terms(q)

        assert_poly_is(p + q, n, k, ref_add(rp, rq))
        assert_poly_is(p - q, n, k, ref_add(rp, ref_scale(rq, -1)))
        assert_poly_is(p - p, n, k, {})
        assert_poly_is(-p, n, k, ref_scale(rp, -1))

        for c in (0, 1, -1, Fraction(0), Fraction(-1), random_rational(rng), rng.randint(-9, 9)):
            assert_poly_is(p.scale(c), n, k, ref_scale(rp, c))
            assert_poly_is(c * p, n, k, ref_scale(rp, c))
            assert_poly_is(p * c, n, k, ref_scale(rp, c))
        assert p.scale(1) is p

        j = rng.randint(1, k + 2)
        assert_poly_is(p.times_part(j), n + j, k, ref_times_part(rp, j, k))

        m = rng.randint(0, 14 - n)
        r = random_poly(rng, m, k, 6)
        assert_poly_is(p * r, n + m, k, ref_mul(rp, ref_terms(r)))
        assert_poly_is(r * p, n + m, k, ref_mul(ref_terms(r), rp))
        # (p + q)(p - q) = p^2 - q^2: the cross terms cancel.
        assert_poly_is((p + q) * (p - q), 2 * n, k, ref_mul(ref_add(rp, rq), ref_add(rp, ref_scale(rq, -1))))

        point = random_point(rng, k)
        for poly in (p, q, p + q, p * r, IsobaricPoly.zero(n, k)):
            expected = ref_evaluate(ref_terms(poly), point)
            assert poly.evaluate(point) == expected == evaluate_reference(poly, point)
            assert poly.evaluate([str(v) for v in point] + ["7"]) == expected


def test_evaluate_edge_values():
    p = IsobaricPoly(4, 2, [((4, 0), Fraction(1, 3)), ((2, 1), -2), ((0, 2), Fraction(5, 7))])
    for point in ([0, 0], [0, Fraction(-1, 2)], [Fraction(3, 4), 0], [Fraction(-2, 9), Fraction(5, 6)]):
        assert p.evaluate(point) == evaluate_reference(p, point)
    assert IsobaricPoly.zero(-2, 3).evaluate([1, 2, 3]) == 0
    assert IsobaricPoly.constant(Fraction(-5, 3), 2).evaluate([Fraction(1, 7), 0]) == Fraction(-5, 3)
    with pytest.raises(ValueError):
        p.evaluate([1])
