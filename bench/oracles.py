"""Independent routes the benchmark checks the library against.

Nothing here calls into ``isobaric``: every value is recomputed from the
definitions with plain ``Fraction`` arithmetic (numeric recurrences, Gaussian
elimination, repeated squaring), so agreement with the library is evidence
and not a tautology.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = list[list[Fraction]]


def partition_count(n: int, k: int) -> int:
    """p_k(n): partitions of n with parts at most k, by the O(n*k) coin DP."""
    if n < 0:
        return 0
    counts = [1] + [0] * n
    for part in range(1, k + 1):
        for m in range(part, n + 1):
            counts[m] += counts[m - part]
    return counts[n]


def weighted_values(weights: Sequence[Fraction], ts: Sequence[Fraction], n_max: int) -> list[Fraction]:
    """P_0..P_{n_max} of the weighted family at numeric t, P_0 reported as 0.

    The generating function of the degree >= 1 part is v(x) / (1 - u(x)) with
    u = sum t_j x^j and v = sum w_j t_j x^j, so
    P_n = w_n t_n [n <= k] + sum_{j=1..min(n-1, k)} t_j P_{n-j}.
    ``weights`` holds w_1..w_k.
    """
    k = len(ts)
    vals = [Fraction(0)]
    for n in range(1, n_max + 1):
        acc = weights[n - 1] * ts[n - 1] if n <= k else Fraction(0)
        for j in range(1, min(n - 1, k) + 1):
            acc += ts[j - 1] * vals[n - j]
        vals.append(acc)
    return vals


def power_series_power(series: Sequence[Fraction], q: Fraction, n_max: int) -> list[Fraction]:
    """Coefficients 0..n_max of S(x)^q for S(0) = 1, by the J.C.P. Miller
    recurrence n g_n = sum_{j=1..n} (q j - (n - j)) s_j g_{n-j}."""
    if series[0] != 1:
        raise ValueError("series must start with 1")
    g = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for j in range(1, min(n, len(series) - 1) + 1):
            if series[j]:
                acc += (q * j - (n - j)) * series[j] * g[n - j]
        g.append(acc / n)
    return g


def fibonacci_series(ts: Sequence[Fraction], n_max: int) -> list[Fraction]:
    """1 / (1 - u(x)) up to degree n_max: the Fibonacci-side values."""
    return [Fraction(1)] + weighted_values([Fraction(1)] * len(ts), ts, n_max)[1:]


def lucas_values(ts: Sequence[Fraction], n_max: int) -> list[Fraction]:
    """Power sums G_0..G_{n_max} of the core roots (G_0 = k), by Newton."""
    k = len(ts)
    return [Fraction(k)] + weighted_values([Fraction(j) for j in range(1, k + 1)], ts, n_max)[1:]


def cauchy_power(values: Sequence[Fraction], m: int) -> list[Fraction]:
    """m-fold Cauchy self-product of a value list, truncated to its length."""
    out = [Fraction(1)] + [Fraction(0)] * (len(values) - 1)
    for _ in range(m):
        out = [sum((out[i] * values[n - i] for i in range(n + 1)), Fraction(0)) for n in range(len(values))]
    return out


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination with row swaps."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        p = a[col][col]
        result *= p
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / p
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return sign * result


def hessenberg_det(lower: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of the lower Hessenberg matrix with rows ``lower`` (row i
    holds columns 1..i) and superdiagonal -1, in O(n^2).

    Transposed, the matrix is upper Hessenberg, so each elimination step
    touches only the next row.
    """
    n = len(lower)
    # Column c of the lower Hessenberg matrix becomes row c of the transpose:
    # entries at columns c-1 (the superdiagonal -1, when c >= 1) and c..n-1.
    rows = []
    for c in range(n):
        row = [Fraction(0)] * n
        if c >= 1:
            row[c - 1] = Fraction(-1)
        for i in range(c, n):
            row[i] = Fraction(lower[i][c])
        rows.append(row)
    sign = 1
    result = Fraction(1)
    for col in range(n):
        if rows[col][col] == 0 and col + 1 < n and rows[col + 1][col] != 0:
            rows[col], rows[col + 1] = rows[col + 1], rows[col]
            sign = -sign
        p = rows[col][col]
        if p == 0:
            return Fraction(0)
        result *= p
        if col + 1 < n and rows[col + 1][col] != 0:
            f = rows[col + 1][col] / p
            rows[col + 1] = [x - f * y for x, y in zip(rows[col + 1], rows[col])]
    return sign * result


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    k = len(a)
    return [[sum((a[i][l] * b[l][j] for l in range(k)), Fraction(0)) for j in range(k)] for i in range(k)]


def mat_inv(a: Matrix) -> Matrix:
    """Gauss-Jordan inverse; raises ZeroDivisionError when singular."""
    k = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(a)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


def mat_pow(a: Matrix, m: int) -> Matrix:
    """a^m for any integer m, by repeated squaring."""
    if m < 0:
        return mat_pow(mat_inv(a), -m)
    k = len(a)
    out = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    base = a
    while m:
        if m & 1:
            out = mat_mul(out, base)
        m >>= 1
        if m:
            base = mat_mul(base, base)
    return out


def companion(ts: Sequence[Fraction]) -> Matrix:
    """Companion matrix of x^k - t1 x^(k-1) - ... - tk: identity
    superdiagonal, last row (tk, ..., t1)."""
    k = len(ts)
    a = [[Fraction(int(j == i + 1)) for j in range(k)] for i in range(k)]
    a[k - 1] = [Fraction(ts[k - 1 - j]) for j in range(k)]
    return a


def different_seed(ts: Sequence[Fraction]) -> list[Fraction]:
    """Core derivative in the ascending basis: (-1 t_{k-1}, ..., -(k-1) t_1, k)."""
    k = len(ts)
    return [-j * Fraction(ts[k - j - 1]) for j in range(1, k)] + [Fraction(k)]


def row_times(row: Sequence[Fraction], a: Matrix) -> list[Fraction]:
    k = len(row)
    return [sum((row[l] * a[l][j] for l in range(k)), Fraction(0)) for j in range(k)]
