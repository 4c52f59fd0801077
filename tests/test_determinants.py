"""``dense_det`` by memoised minors against independent determinants.

The oracles live in ``helpers``: Laplace expansion (what ``dense_det`` used
to be, over either entry ring), the signed permutation sum, and Gaussian
elimination over Fraction for sizes the other two cannot reach.
"""

from __future__ import annotations

import random
from fractions import Fraction

from isobaric.companion import CorePolynomial, companion_matrix, dense_det, different_matrix
from isobaric.polynomials import IsobaricPoly

from helpers import gauss_det, laplace_det, naive_det

VALUES = [Fraction(x) for x in ("1", "-1", "2", "-3", "5", "1/2", "-2/3", "7/4", "-9/5", "11/3")]


def _random_matrix(rng: random.Random, k: int, shape: str) -> list[list[Fraction]]:
    """A k-by-k matrix of one of several shapes, singular ones included."""
    zero_share = 0.5 if shape == "sparse" else 0.1
    rows = [
        [Fraction(0) if rng.random() < zero_share else rng.choice(VALUES) for _ in range(k)]
        for _ in range(k)
    ]
    if k >= 2 and shape == "zero_row":
        rows[rng.randrange(k)] = [Fraction(0)] * k
    elif k >= 2 and shape == "repeated_row":
        i, j = rng.sample(range(k), 2)
        rows[i] = list(rows[j])
    elif k >= 2 and shape == "dependent_row":
        i, j = rng.sample(range(k), 2)
        c = rng.choice(VALUES)
        rows[i] = [c * x for x in rows[j]]
    elif k >= 3 and shape == "combination_row":
        i, j, m = rng.sample(range(k), 3)
        a, b = rng.choice(VALUES), rng.choice(VALUES)
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[m])]
    elif shape == "zero_column":
        c = rng.randrange(k)
        for row in rows:
            row[c] = Fraction(0)
    return rows


SHAPES = ("dense", "sparse", "zero_row", "repeated_row", "dependent_row", "combination_row", "zero_column")


def test_numeric_matches_laplace_permutations_and_elimination():
    rng = random.Random(20140301)
    singular = 0
    for case in range(252):
        k = case % 6 + 1
        rows = _random_matrix(rng, k, SHAPES[case // 6 % len(SHAPES)])
        got = dense_det(rows)
        assert type(got) is Fraction
        assert got == laplace_det(rows) == naive_det(rows) == gauss_det(rows), rows
        singular += got == 0
    # The shapes above make a good share of the cases singular.
    assert singular >= 60


def test_numeric_up_to_k11_matches_elimination():
    rng = random.Random(20140302)
    for k in range(7, 12):
        for shape in SHAPES:
            rows = _random_matrix(rng, k, shape)
            assert dense_det(rows) == gauss_det(rows), (k, shape)
    core = CorePolynomial.numeric(range(1, 12))
    mat = different_matrix(core)
    assert dense_det(mat) == gauss_det(mat)


def test_generic_different_and_companion_matrices_match_laplace():
    for k in range(1, 6):
        core = CorePolynomial.generic(k)
        for mat in (different_matrix(core), companion_matrix(core)):
            got = dense_det(mat)
            want = laplace_det(mat)
            assert got == want and got.n == want.n
    # det A = (-1)^(k-1) t_k for the companion matrix.
    for k in range(1, 6):
        t_k = IsobaricPoly.variable(k, k)
        assert dense_det(companion_matrix(CorePolynomial.generic(k))) == (t_k if k % 2 else -t_k)


def test_generic_matrices_with_zero_cells_match_laplace():
    # Graded entries, row i col j of degree i + j, with some cells zero.
    rng = random.Random(20140303)
    k_vars = 3
    for case in range(30):
        size = case % 4 + 1
        rows = []
        for i in range(size):
            row = []
            for j in range(size):
                d = i + j + 1
                if rng.random() < 0.3:
                    row.append(IsobaricPoly.zero(d, k_vars))
                else:
                    terms = [
                        (alpha, rng.choice(VALUES))
                        for alpha in ((d, 0, 0), (d - 2, 1, 0), (d - 3, 0, 1))
                        if min(alpha) >= 0 and rng.random() < 0.7
                    ]
                    row.append(IsobaricPoly(d, k_vars, terms))
            rows.append(row)
        got = dense_det(rows)
        want = laplace_det(rows)
        assert got == want and got.n == want.n, rows


def test_all_zero_expansion_returns_the_zero_laplace_gives():
    # Numeric: Fraction(0), whether every product is zero or the minors cancel.
    for rows in (
        [[Fraction(0)]],
        [[Fraction(0)] * 3 for _ in range(3)],
        [[Fraction(1), Fraction(2)], [Fraction(1), Fraction(2)]],
        [[Fraction(x) for x in row] for row in ((1, 2, 3), (2, 4, 6), (5, 0, 1))],
    ):
        got = dense_det(rows)
        assert type(got) is Fraction and got == 0 == laplace_det(rows)
    # Generic: the zero polynomial whose degree tag is the diagonal's sum.
    t1, t2 = IsobaricPoly.variable(1, 2), IsobaricPoly.variable(2, 2)
    zero = IsobaricPoly.zero
    for rows, degree in (
        ([[zero(5, 2)]], 5),
        ([[zero(1, 2), zero(2, 2)], [zero(2, 2), zero(3, 2)]], 4),
        ([[t1, t2], [t1, t2]], 3),
        ([[t1, zero(2, 2)], [zero(1, 2), zero(2, 2)]], 3),
    ):
        got = dense_det(rows)
        assert got.is_zero and got.n == degree and got.k == 2
        assert got == laplace_det(rows)
