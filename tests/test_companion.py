from fractions import Fraction

import pytest

from isobaric.companion import (
    CompanionWindow,
    CorePolynomial,
    SingularCoreError,
    companion_matrix,
    companion_window,
    dense_det,
    different_matrix,
    different_window,
    glp_from_gfp,
    schur_hook,
)
from isobaric.polynomials import IsobaricPoly, gfp, glp

from helpers import mat_pow, naive_det


# -- cores -----------------------------------------------------------------


def test_core_constructors():
    c = CorePolynomial.numeric((1, Fraction(1, 2)))
    assert c.k == 2 and c.is_numeric
    assert c.t(1) == 1 and c.t(2) == Fraction(1, 2)
    g = CorePolynomial.generic(3)
    assert g.k == 3 and not g.is_numeric
    with pytest.raises(ValueError):
        g.t(1)
    with pytest.raises(ValueError):
        CorePolynomial(2, (1,))
    with pytest.raises(ValueError):
        CorePolynomial.generic(0)
    with pytest.raises(ValueError):
        c.t(3)


def test_core_value_semantics():
    c = CorePolynomial.numeric((1, Fraction(1, 2)))
    assert c == CorePolynomial(2, (Fraction(1), Fraction(1, 2)))
    assert hash(c) == hash(CorePolynomial(2, (1, Fraction(1, 2))))
    assert c != CorePolynomial.generic(2) and c != (1, Fraction(1, 2))
    with pytest.raises(AttributeError):
        c.k = 3
    with pytest.raises(AttributeError):
        c.coefficients = None
    assert repr(c) == "CorePolynomial(k=2, coefficients=(Fraction(1, 1), Fraction(1, 2)))"
    assert repr(CorePolynomial.generic(3)) == "CorePolynomial(k=3, coefficients=None)"


# -- companion matrix ------------------------------------------------------


def test_companion_matrix_generic_k2():
    a = companion_matrix(CorePolynomial.generic(2))
    zero1 = IsobaricPoly.zero(1, 2)
    one = IsobaricPoly.constant(1, 2)
    t1 = IsobaricPoly.variable(1, 2)
    t2 = IsobaricPoly.variable(2, 2)
    assert a == [[zero1, one], [t2, t1]]


def test_companion_matrix_numeric_fibonacci():
    a = companion_matrix(CorePolynomial.numeric((1, 1)))
    assert a == [[0, 1], [1, 1]]


def test_companion_matrix_k1():
    assert companion_matrix(CorePolynomial.numeric((5,))) == [[5]]


def test_companion_matrix_superdiagonal_structure():
    core = CorePolynomial.numeric((2, -1, 3))
    a = companion_matrix(core)
    for i in range(2):
        for j in range(3):
            assert a[i][j] == (1 if j == i + 1 else 0)
    assert a[2] == [3, -1, 2]  # (t3, t2, t1)


# -- windows: numeric ------------------------------------------------------


FIB = CorePolynomial.numeric((1, 1))


def test_fibonacci_rightmost_column():
    w = companion_window(FIB, -2, 6)
    assert [w.rightmost(n) for n in range(7)] == [1, 1, 2, 3, 5, 8, 13]


def test_identity_seed_rows():
    w = companion_window(FIB, -1, 0)
    assert w.row(-1) == (1, 0)
    assert w.row(0) == (0, 1)


def test_backward_rows_fibonacci():
    w = companion_window(FIB, -4, 0)
    assert w.row(-2) == (-1, 1)
    assert w.row(-3) == (2, -1)


@pytest.mark.parametrize(
    "core",
    [
        CorePolynomial.numeric((1, 1)),
        CorePolynomial.numeric((2, -1, 3)),
        CorePolynomial.numeric((Fraction(1, 2), Fraction(-2, 3))),
        CorePolynomial.numeric((4,)),
    ],
)
def test_blocks_are_matrix_powers(core):
    k = core.k
    a = [[Fraction(x) for x in row] for row in companion_matrix(core)]
    w = companion_window(core, -2 - k + 1, 5)
    for m in range(-2, 6):
        assert w.block(m) == mat_pow(a, m)


def test_block_zero_is_identity():
    w = companion_window(FIB, -1, 1)
    assert w.block(0) == [[1, 0], [0, 1]]


def test_block_traces_are_lucas_values():
    core = CorePolynomial.numeric((2, -1, 3))
    w = companion_window(core, -2, 6)
    for m in range(0, 7):
        assert w.block_trace(m) == glp(3, m).evaluate(core.coefficients)


def test_window_range_guards():
    w = companion_window(FIB, 0, 3)
    with pytest.raises(IndexError):
        w.row(4)
    with pytest.raises(IndexError):
        w.row(-1)
    with pytest.raises(IndexError):
        w.entry(1, 3)
    with pytest.raises(IndexError):
        w.block(0)  # needs row -1
    assert w.block(3) == mat_pow([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]], 3)
    with pytest.raises(ValueError):
        companion_window(FIB, 2, 1)


def test_singular_core_backward_rejected():
    core = CorePolynomial.numeric((1, 0))
    # rows down to 1-k = -1 need no inversion even with t2 = 0
    w = companion_window(core, -1, 2)
    assert w.row(-1) == (1, 0)
    with pytest.raises(SingularCoreError):
        companion_window(core, -2, 2)


# -- windows: symbolic -----------------------------------------------------


def test_symbolic_rightmost_is_gfp():
    for k in (1, 2, 3):
        w = companion_window(CorePolynomial.generic(k), 1 - k, 6)
        for n in range(0, 7):
            assert w.rightmost(n) == gfp(k, n)


def test_symbolic_entries_degrees():
    k = 3
    w = companion_window(CorePolynomial.generic(k), 1 - k, 4)
    for n in range(1 - k, 5):
        for j in range(1, k + 1):
            assert w.entry(n, j).n == n + k - j


def test_symbolic_column_recursion():
    # every column obeys the same k-term recursion as the family
    k = 3
    w = companion_window(CorePolynomial.generic(k), 1 - k, 6)
    for n in range(1, 7):
        for j in range(1, k + 1):
            acc = IsobaricPoly.zero(n + k - j, k)
            for i in range(1, k + 1):
                acc = acc + w.entry(n - i, j).times_part(i)
            assert acc == w.entry(n, j)


def test_symbolic_block_trace_is_glp():
    k = 2
    w = companion_window(CorePolynomial.generic(k), -1, 6)
    for m in range(0, 7):
        assert w.block_trace(m) == glp(k, m)


def test_symbolic_below_floor_rejected():
    with pytest.raises(ValueError):
        companion_window(CorePolynomial.generic(2), -2, 3)
    # exactly at the floor is fine
    companion_window(CorePolynomial.generic(2), -1, 0)


# -- Schur hooks -----------------------------------------------------------


def test_schur_hook_frozen_values():
    g2 = CorePolynomial.generic(2)
    s21 = schur_hook(g2, 2, 1)
    expect = IsobaricPoly(3, 2, [((1, 1), -1)])  # -t1 t2
    assert s21 == expect
    assert schur_hook(g2, 3, 0) == gfp(2, 3)


def test_schur_hook_single_row_and_column():
    g3 = CorePolynomial.generic(3)
    for n in range(0, 6):
        assert schur_hook(g3, n, 0) == gfp(3, n)
    # single column hooks are the elementary functions e_{r+1} = (-1)^r t_{r+1}
    for r in range(0, 3):
        expect = IsobaricPoly.variable(r + 1, 3).scale((-1) ** r)
        assert schur_hook(g3, 1, r) == expect


def test_schur_hook_product_identity():
    # h_a e_b = S_(a+1, 1^(b-1)) + S_(a, 1^b), with the second term vanishing
    # once the hook would have more than k rows.
    k = 3
    g = CorePolynomial.generic(k)
    for a in range(1, 6):
        for b in range(1, k + 1):
            e_b = IsobaricPoly.variable(b, k).scale((-1) ** (b - 1))
            lhs = gfp(k, a) * e_b
            rhs = schur_hook(g, a + 1, b - 1)
            if b <= k - 1:
                rhs = rhs + schur_hook(g, a, b)
            assert lhs == rhs


def test_schur_hook_arm_bounds():
    with pytest.raises(ValueError):
        schur_hook(CorePolynomial.generic(2), 3, 2)
    with pytest.raises(ValueError):
        schur_hook(CorePolynomial.generic(2), 3, -1)


def test_schur_hook_numeric_negative_row():
    got = schur_hook(FIB, -2, 0)
    assert got == Fraction(1)  # window row -2 is (-1, 1); rightmost entry
    assert schur_hook(FIB, -2, 1) == Fraction(1)  # -(leftmost entry)


# -- different matrix ------------------------------------------------------


def test_different_matrix_k2_symbolic():
    d = different_matrix(CorePolynomial.generic(2))
    t1 = IsobaricPoly.variable(1, 2)
    t2 = IsobaricPoly.variable(2, 2)
    two = IsobaricPoly.constant(2, 2)
    assert d == [[t1.scale(-1), two], [t2.scale(2), t1]]


def test_different_det_k2_sign():
    # det D = -(t1^2 + 4 t2): the magnitude is the discriminant, the sign is
    # opposite; both facts are pinned here.
    d = different_matrix(CorePolynomial.generic(2))
    det = dense_det(d)
    disc = IsobaricPoly(2, 2, [((2, 0), 1), ((0, 1), 4)])
    assert det == disc.scale(-1)
    assert det.n == 2  # isobaric of degree k(k-1)


def test_different_det_degree_k3():
    det = dense_det(different_matrix(CorePolynomial.generic(3)))
    assert det.n == 6  # k(k-1) = 6


def test_different_rightmost_is_glp():
    for k in (1, 2, 3):
        w = different_window(CorePolynomial.generic(k), 0, 5)
        for n in range(0, 6):
            assert w.rightmost(n) == glp(k, n)


def test_different_rightmost_lucas_numbers():
    w = different_window(FIB, 0, 4)
    assert [w.rightmost(n) for n in range(5)] == [2, 1, 3, 4, 7]


def test_different_backward_numeric():
    w = different_window(FIB, -2, 2)
    # backward rows keep satisfying the forward recursion
    for n in range(-1, 3):
        row_prev = w.row(n - 1) if n - 1 >= -2 else None
        if row_prev is not None:
            t1, t2 = Fraction(1), Fraction(1)
            assert w.row(n)[0] == row_prev[1] * t2
            assert w.row(n)[1] == row_prev[0] + row_prev[1] * t1
    with pytest.raises(ValueError):
        different_window(CorePolynomial.generic(2), -1, 2)


def test_dense_det_against_naive():
    rows = [
        [Fraction(2), Fraction(-1), Fraction(3)],
        [Fraction(0), Fraction(5), Fraction(1, 2)],
        [Fraction(7), Fraction(1), Fraction(-4)],
    ]
    assert dense_det(rows) == naive_det(rows)
    with pytest.raises(ValueError):
        dense_det([[Fraction(1), Fraction(2)]])


# -- Newton bridge ---------------------------------------------------------


def test_glp_from_gfp_symbolic():
    for k in (1, 2, 3, 4):
        got = glp_from_gfp(CorePolynomial.generic(k), 8)
        for n in range(1, 9):
            assert got[n - 1] == glp(k, n)


def test_glp_from_gfp_numeric():
    core = CorePolynomial.numeric((2, -1, 3))
    got = glp_from_gfp(core, 7)
    for n in range(1, 8):
        assert got[n - 1] == glp(3, n).evaluate(core.coefficients)


def test_glp_from_gfp_lucas_numbers():
    assert glp_from_gfp(FIB, 5) == [1, 3, 4, 7, 11]
