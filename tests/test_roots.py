from fractions import Fraction
from math import factorial

import pytest

from isobaric.hessenberg import Cell
from isobaric.partitions import ExponentVector
from isobaric.polynomials import IsobaricPoly, PolySequence, WeightVector, convolve, gfp
from isobaric.roots import (
    DegenerateQError,
    gfp_root_closed,
    gfp_root_matrix,
    gfp_root_sequence,
    gfp_root_stirling_matrix,
    stirling1_expand,
    stirling_B,
    wip_root,
    wip_root_coeff,
)

from helpers import OmegaPolynomial, total_derivative

Q_GRID = (Fraction(1, 2), Fraction(-1), Fraction(2, 3), Fraction(3), Fraction(-5, 2))


# -- Stirling operators ----------------------------------------------------


def test_stirling_B_frozen_values():
    assert stirling_B(2, 3) == 60  # 3*4*5
    assert stirling_B(-2, Fraction(1, 2)) == Fraction(3, 8)  # (1/2)(-1/2)(-3/2)
    assert stirling_B(0, Fraction(7, 3)) == Fraction(7, 3)
    assert stirling_B(0, -4) == -4
    assert stirling_B(3, 1) == 24
    assert stirling_B(-3, -1) == 24  # (-1)(-2)(-3)(-4)


def test_stirling_B_index_counts():
    # j >= 0 multiplies j+1 ascending factors, -j the matching descending ones.
    q = Fraction(5, 7)
    for j in range(0, 6):
        asc = Fraction(1)
        desc = Fraction(1)
        for i in range(j + 1):
            asc *= q + i
            desc *= q - i
        assert stirling_B(j, q) == asc
        assert stirling_B(-j, q) == desc


def test_stirling1_expand_m3():
    assert stirling1_expand(3) == [2, 3, 1]
    assert stirling1_expand(1) == [1]
    assert stirling1_expand(2) == [1, 1]


def test_stirling1_triangle_recurrence():
    # c(m+1, i) = m c(m, i) + c(m, i-1), the unsigned first-kind triangle.
    prev = stirling1_expand(1)
    for m in range(1, 8):
        cur = stirling1_expand(m + 1)
        for i in range(1, m + 2):
            want = m * (prev[i - 1] if i <= m else 0) + (prev[i - 2] if i >= 2 else 0)
            assert cur[i - 1] == want
        prev = cur


def test_stirling1_row_sums():
    for m in range(1, 9):
        assert sum(stirling1_expand(m)) == factorial(m)


def test_stirling1_reconstructs_rising_product():
    for m in range(1, 8):
        coeffs = stirling1_expand(m)
        for q in Q_GRID:
            assert sum(c * q**i for i, c in enumerate(coeffs, start=1)) == stirling_B(m - 1, q)


# -- closed root polynomials -----------------------------------------------


FROZEN_ROOT_COEFFS = {
    # alpha (padded as needed): coefficient as a function of q
    (1,): lambda q: q,
    (2,): lambda q: q * (q + 1) / 2,
    (0, 1): lambda q: q,
    (3,): lambda q: q * (q + 1) * (q + 2) / 6,
    (1, 1): lambda q: q * (q + 1),
    (0, 0, 1): lambda q: q,
    (4,): lambda q: q * (q + 1) * (q + 2) * (q + 3) / 24,
    (2, 1): lambda q: q * (q + 1) * (q + 2) / 2,
    (0, 2): lambda q: q * (q + 1) / 2,
    (1, 0, 1): lambda q: q * (q + 1),
    (0, 0, 0, 1): lambda q: q,
    (5,): lambda q: q * (q + 1) * (q + 2) * (q + 3) * (q + 4) / 120,
    (3, 1): lambda q: q * (q + 1) * (q + 2) * (q + 3) / 6,
    (1, 2): lambda q: q * (q + 1) * (q + 2) / 2,
    (2, 0, 1): lambda q: q * (q + 1) * (q + 2) / 2,
    (0, 1, 1): lambda q: q * (q + 1),
    (1, 0, 0, 1): lambda q: q * (q + 1),
    (0, 0, 0, 0, 1): lambda q: q,
}


@pytest.mark.parametrize("q", Q_GRID)
def test_root_closed_printed_degrees_0_to_5(q):
    for n in range(0, 6):
        p = gfp_root_closed(q, 5, n)
        if n == 0:
            assert p == IsobaricPoly.constant(1, 5)
            continue
        seen = set()
        for alpha, coeff in p.sorted_terms():
            key = alpha.multiplicities
            while key and key[-1] == 0:
                key = key[:-1]
            assert key in FROZEN_ROOT_COEFFS, f"unexpected term {alpha}"
            assert coeff == FROZEN_ROOT_COEFFS[key](q)
            seen.add(key)
        # nothing the frozen table expects at this degree may be missing
        expected = {k for k in FROZEN_ROOT_COEFFS if sum(j * a for j, a in enumerate(k, start=1)) == n}
        nonzero = {k for k in expected if FROZEN_ROOT_COEFFS[k](q) != 0}
        assert seen == nonzero


def test_root_closed_specializations():
    for n in range(0, 8):
        assert gfp_root_closed(1, 3, n) == gfp(3, n)
    for n in range(1, 8):
        assert gfp_root_closed(0, 3, n).is_zero
    assert gfp_root_closed(0, 3, 0) == IsobaricPoly.constant(1, 3)


def test_root_closed_respects_part_bound():
    p = gfp_root_closed(Fraction(1, 2), 2, 3)
    assert all(alpha.count(3) == 0 for alpha, _ in p.sorted_terms())


# -- matrix routes ---------------------------------------------------------


def make(coeff, t):
    from isobaric.hessenberg import Cell

    return Cell.make(coeff, t)


@pytest.mark.parametrize("q", Q_GRID)
def test_root_matrix_cells_n3(q):
    m = gfp_root_matrix(q, 3, 3, -1)
    assert m.rows[0] == (make(q, 1),)
    assert m.rows[1] == (make(q, 2), make((q + 1) / 2, 1))
    assert m.rows[2] == (make(q, 3), make((2 * q + 1) / 3, 2), make((q + 2) / 3, 1))
    assert m.superdiagonal == -1
    assert gfp_root_matrix(q, 3, 3, +1).superdiagonal == 1


@pytest.mark.parametrize("q", Q_GRID)
def test_root_matrix_cells_row4(q):
    m = gfp_root_matrix(q, 4, 4, -1)
    assert m.rows[3] == (
        make(q, 4),
        make((3 * q + 1) / 4, 3),
        make((2 * q + 2) / 4, 2),
        make((q + 3) / 4, 1),
    )


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("k", [2, 3])
def test_matrix_routes_agree_with_closed(q, k):
    for n in range(1, 7):
        target = gfp_root_closed(q, k, n)
        assert gfp_root_matrix(q, k, n, -1).value() == target
        assert gfp_root_matrix(q, k, n, +1).value() == target


@pytest.mark.parametrize("k", [2, 3])
def test_stirling_matrix_agrees_outside_degenerate_set(k):
    for q in Q_GRID:
        for n in range(1, 7):
            if q.denominator == 1 and -(n - 2) <= q <= 0:
                continue
            assert gfp_root_stirling_matrix(q, k, n).value() == gfp_root_closed(q, k, n)


def test_stirling_matrix_degenerate_rejection():
    with pytest.raises(DegenerateQError):
        gfp_root_stirling_matrix(0, 2, 2)
    with pytest.raises(DegenerateQError):
        gfp_root_stirling_matrix(-1, 2, 3)
    with pytest.raises(DegenerateQError):
        gfp_root_stirling_matrix(-3, 2, 5)
    # boundary cases that stay defined
    assert gfp_root_stirling_matrix(-1, 2, 2).value() == gfp_root_closed(-1, 2, 2)
    assert gfp_root_stirling_matrix(0, 2, 1).value() == gfp_root_closed(0, 2, 1)
    assert gfp_root_stirling_matrix(Fraction(-5, 2), 2, 6).value() == gfp_root_closed(Fraction(-5, 2), 2, 6)
    assert isinstance(DegenerateQError("x"), ValueError)


def test_stirling_matrix_cells_are_the_per_cell_B_ratios():
    # The matrix tables B_m(q) once per call; every cell must still be the
    # literal ratio formula with stirling_B called per cell.
    qs = [Fraction(a, b) for a in range(-9, 10) for b in (1, 2, 3, 7)]
    for q in qs:
        for n in range(1, 9):
            for k in (1, 3, 8):
                if q.denominator == 1 and -(n - 2) <= q <= 0:
                    with pytest.raises(DegenerateQError):
                        gfp_root_stirling_matrix(q, k, n)
                    continue
                m = gfp_root_stirling_matrix(q, k, n)
                for i in range(1, n + 1):
                    for c in range(1, i + 1):
                        j = i - c + 1
                        if j > k:
                            expected = Cell.make(0)
                        elif j == i:
                            expected = Cell.make(stirling_B(0, q), i)
                        else:
                            ratio = stirling_B(i - j, q) / stirling_B(i - j - 1, q)
                            expected = Cell.make(Fraction(j * ratio - (i - j) * (j - 1), i), j)
                        assert m.cell(i, c) == expected


# -- group laws (module-level spot checks; the full grid is in acceptance) --


def test_half_power_squares_to_family():
    seq = gfp_root_sequence(Fraction(1, 2), 2)
    for n in range(0, 7):
        assert convolve(seq, seq, n) == gfp(2, n)


def test_inverse_power_degree_terms():
    # F^-1 has degree-n term -t_n for n <= k and nothing for n > k.
    k = 3
    inv = gfp_root_sequence(-1, k)
    for n in range(1, k + 1):
        assert inv(n) == IsobaricPoly.variable(n, k).scale(-1)
    for n in range(k + 1, 7):
        assert inv(n).is_zero
    # and it really is the convolution inverse of the family
    for n in range(1, 7):
        assert convolve(gfp_root_sequence(1, k), inv, n).is_zero


# -- omega polynomials and weighted roots ----------------------------------


def test_omega_polynomial_d1_frozen():
    p = OmegaPolynomial.monomial((3, 2))
    d1 = p.d1()
    assert d1.terms() == {(2, 2): Fraction(3), (3, 1): Fraction(2)}
    d2 = total_derivative(p, 2)
    assert d2.terms() == {
        (1, 2): Fraction(6),
        (2, 1): Fraction(12),
        (3,): Fraction(2),
    }
    assert total_derivative(p, 0) == p


def test_omega_polynomial_evaluate_and_normalize():
    p = OmegaPolynomial([((2, 0), 3), ((0, 1), 1)])
    assert p == OmegaPolynomial([((2,), 3), ((0, 1), 1)])
    assert p.evaluate(lambda j: Fraction(j)) == 3 * 1 + 2


def test_wip_root_coeff_frozen_lambdas():
    cases = {
        (2,): lambda q, w: q * w(1) + q * (q - 1) / 2 * w(1) ** 2,
        (1, 1): lambda q, w: q * (w(1) + w(2)) + q * (q - 1) * w(1) * w(2),
        (3,): lambda q, w: q * w(1) + q * (q - 1) * w(1) ** 2 + q * (q - 1) * (q - 2) / 6 * w(1) ** 3,
        (0, 0, 1): lambda q, w: q * w(3),
    }
    weight_sets = [(1, 1, 1), (1, 2, 3), (7, -2, 5), (0, 2, 1)]
    for wvals in weight_sets:
        w = WeightVector.from_values(wvals)
        for q in Q_GRID:
            for key, fn in cases.items():
                alpha = ExponentVector(key + (0,) * (3 - len(key)))
                assert wip_root_coeff(w, alpha, q) == fn(q, w)


def test_wip_root_coeff_denominator_reading():
    # alpha = (2,2) divides by 2! * 2! = 4, not (2*2)! = 24; at all-ones
    # weights the coefficient must be the rising factorial over 4.
    ones = WeightVector.ones()
    alpha = ExponentVector((2, 2))
    for q in Q_GRID:
        got = wip_root_coeff(ones, alpha, q)
        assert got == stirling_B(3, q) / 4
        if q == Fraction(1, 2):
            assert got != stirling_B(3, q) / 24


def test_wip_root_all_ones_collapses():
    ones = WeightVector.ones()
    for q in Q_GRID:
        for n in range(0, 7):
            assert wip_root(ones, 2, n, q) == gfp_root_closed(q, 2, n)


def test_wip_root_q1_is_base_family():
    from isobaric.polynomials import wip_closed

    for wvals in [(1, 2, 3), (7, -2, 5), (0, 2, 1)]:
        w = WeightVector.from_values(wvals)
        for n in range(1, 6):
            assert wip_root(w, 3, n, 1) == wip_closed(w, 3, n)
        assert wip_root(w, 3, 0, 1) == IsobaricPoly.constant(1, 3)


def test_wip_root_group_law_custom_weights():
    w = WeightVector.from_values((3, 1, 4))
    pairs = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(2), Fraction(-1)), (Fraction(1, 3), Fraction(2, 3))]
    for a, b in pairs:
        A = PolySequence(lambda n, a=a: wip_root(w, 3, n, a))
        B = PolySequence(lambda n, b=b: wip_root(w, 3, n, b))
        for n in range(0, 5):
            assert convolve(A, B, n) == wip_root(w, 3, n, a + b)
