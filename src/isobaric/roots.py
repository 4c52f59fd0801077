"""Convolution roots of the Fibonacci-side family, for any rational exponent.

The q-th convolution power of the generalized Fibonacci sequence has an exact
closed form: the coefficient of t^alpha in degree n is the rising factorial
q(q+1)...(q+|alpha|-1) divided by the product of the multiplicity factorials.
Three matrix routes recover the same polynomial (determinant, permanent, and
a variant whose cells are ratios of the factorial operators), and a weighted
generalization handles arbitrary weight vectors through total derivatives in
the weights, read off one univariate product per coefficient.

Everything is exact; q may be any Fraction, so "square root of the Fibonacci
sequence" is literal: the q = 1/2 power convolved with itself returns the
original sequence.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .hessenberg import Cell, HessenbergMatrix
from .partitions import ExponentVector, exponent_vectors
from .polynomials import IsobaricPoly, PolySequence, RationalLike, _Factorials, _integer_weights

__all__ = [
    "DegenerateQError",
    "stirling_B",
    "stirling1_expand",
    "gfp_root_closed",
    "gfp_root_matrix",
    "gfp_root_stirling_matrix",
    "gfp_root_sequence",
    "wip_root_coeff",
    "wip_root",
]


class DegenerateQError(ValueError):
    """The Stirling-ratio matrix divides by B_{m}(q) factors; it is undefined
    when q is one of the integers 0, -1, ..., -(n-2), where some denominator
    vanishes.  The other three routes stay valid there."""


def stirling_B(j: int, q: RationalLike) -> Fraction:
    """Factorial operator value B_j(q).

    B_j(q) = q(q+1)...(q+j) for j >= 0 (j+1 ascending factors starting at q)
    and B_{-j}(q) = q(q-1)...(q-j) for the negative index (descending).
    B_0(q) = q either way.
    """
    q = Fraction(q)
    out = Fraction(1)
    if j >= 0:
        for i in range(j + 1):
            out *= q + i
    else:
        for i in range(-j + 1):
            out *= q - i
    return out


def stirling1_expand(m: int) -> list[int]:
    """Coefficients [c(m,1), ..., c(m,m)] of q(q+1)...(q+m-1) = sum c(m,i) q^i.

    These are the unsigned Stirling numbers of the first kind; expanding the
    rising factorial product directly keeps them exact.
    """
    if m < 1:
        raise ValueError("need m >= 1 factors")
    poly = [0, 1]
    for i in range(1, m):
        nxt = [0] * (len(poly) + 1)
        for p, c in enumerate(poly):
            nxt[p] += c * i
            nxt[p + 1] += c
        poly = nxt
    return poly[1:]


def gfp_root_closed(q: RationalLike, k: int, n: int) -> IsobaricPoly:
    """Degree-n term of the q-th convolution power of the Fibonacci family.

    Coefficient of t^alpha: B_{|alpha|-1}(q) / prod(alpha_i!).  Degree 0 is
    the constant 1 (the convolution identity), q = 1 returns the plain
    polynomial, q = 0 the identity sequence.  The integer numerators
    b^m B_{m-1}(q) of q = p/b are tabled once per call, for the part
    counts m that occur.
    """
    q = Fraction(q)
    if n < 0:
        raise ValueError("degree must be >= 0")
    if k < 1:
        raise ValueError("part bound k must be >= 1")
    if n == 0:
        return IsobaricPoly.constant(1, k)
    # rising[m] = b^m B_{m-1}(q) = p (p + b) ... (p + (m-1) b) for q = p/b,
    # kept only for the part counts m >= ceil(n / min(n, k)) that occur.
    p, b = q.numerator, q.denominator
    fewest = -(-n // min(n, k))
    rising = {}
    num = 1
    for m in range(1, n + 1):
        num *= p + (m - 1) * b
        if m >= fewest:
            rising[m] = num
    fact = _Factorials()
    terms = {}
    for alpha in exponent_vectors(n, k):
        parts = alpha.norm
        num = rising[parts]
        if num:
            denom = b**parts
            for a in alpha.multiplicities:
                if a > 1:
                    denom *= fact[a]
            terms[alpha] = Fraction(num, denom)
    return IsobaricPoly._trusted(n, k, terms)


def gfp_root_matrix(q: RationalLike, k: int, n: int, sign: int = -1) -> HessenbergMatrix:
    """Hessenberg representation of the degree-n root polynomial.

    Cell (i, i-j+1) holds (1/i)(j q + (i - j)) t_j for j = 1..i, zeroed past
    the part bound; column 1 is q t_i and the diagonal is (1/i)(q + i - 1) t_1.
    Superdiagonal -1 makes the determinant equal gfp_root_closed(q, k, n);
    +1 does the same through the permanent.
    """
    q = Fraction(q)
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    rows = []
    for i in range(1, n + 1):
        row = []
        for c in range(1, i + 1):
            j = i - c + 1
            if j > k:
                row.append(Cell.make(0))
            else:
                row.append(Cell.make(Fraction(j * q + (i - j), i), j))
        rows.append(row)
    return HessenbergMatrix(n, k, sign, rows, symbolic=True)


def _degenerate_q(q: Fraction, n: int) -> bool:
    return q.denominator == 1 and -(n - 2) <= q <= 0


def gfp_root_stirling_matrix(q: RationalLike, k: int, n: int) -> HessenbergMatrix:
    """Determinant-side root matrix with cells written through B-ratios.

    Row i holds s_j = (1/i)(j * B_{i-j}(q)/B_{i-j-1}(q) - (i-j)(j-1)) t_j at
    column i-j+1 for j < i, and s_i = B_0(q) t_i in column 1.  Since
    B_m(q)/B_{m-1}(q) = q + m wherever defined, the cells agree with
    :func:`gfp_root_matrix`; the ratios blow up exactly when q is an integer
    in 0, -1, ..., -(n-2), and that raises :class:`DegenerateQError`.  The
    values B_0(q), ..., B_{n-1}(q) are tabled once per call, each from the
    one before, and every cell divides two of them.
    """
    q = Fraction(q)
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    if _degenerate_q(q, n):
        raise DegenerateQError(
            f"B-ratio cells undefined at q={q} for size {n}: a denominator B_m(q) vanishes"
        )
    B = [q]
    for m in range(1, n):
        B.append(B[-1] * (q + m))
    rows = []
    for i in range(1, n + 1):
        row = []
        for c in range(1, i + 1):
            j = i - c + 1
            if j > k:
                row.append(Cell.make(0))
            elif j == i:
                row.append(Cell.make(B[0], i))
            else:
                ratio = B[i - j] / B[i - j - 1]
                row.append(Cell.make(Fraction(j * ratio - (i - j) * (j - 1), i), j))
        rows.append(row)
    return HessenbergMatrix(n, k, -1, rows, symbolic=True)


def gfp_root_sequence(q: RationalLike, k: int) -> PolySequence:
    """The whole q-th power as a lazy graded sequence (degree-0 term is 1)."""
    return PolySequence(lambda n: gfp_root_closed(q, k, n))


# -- weighted roots --------------------------------------------------------


class _WipRootTables:
    """Per-call constants of the weighted root formula at one (q, weights).

    With q = p/b, weights omega(j) = W_j / D and c = b * D, the coefficient
    of t^alpha (m = |alpha| parts) is N / (c^m prod(alpha_i!)), where

        N = sum_{r=0..m-1} (m-1)!/(m-1-r)! * F[m-1-r] * c^r * e_r,

    F[j] = b^(j+1) B_{-j}(q) = p (p - b) ... (p - j b), and e_r is the
    coefficient of u^r in prod_i (W_i + u)^alpha_i.  ``row[m][r]`` holds
    everything in the r-th summand but e_r, for part counts m = fewest..n.
    """

    __slots__ = ("weights", "c_pow", "fact", "row")

    def __init__(self, q: Fraction, scale: int, weights: Sequence[int], fewest: int, n: int) -> None:
        p, b = q.numerator, q.denominator
        falling = [p]
        for j in range(1, n):
            falling.append(falling[-1] * (p - j * b))
        c = b * scale
        self.c_pow = c_pow = [1]
        for _ in range(n):
            c_pow.append(c_pow[-1] * c)
        self.row = {}
        for m in range(fewest, n + 1):
            row, ratio = [], 1
            for r in range(m):
                row.append(ratio * falling[m - 1 - r] * c_pow[r])
                ratio *= m - 1 - r
            self.row[m] = row
        self.weights = weights
        self.fact = _Factorials()

    def coefficient(self, multiplicities: Sequence[int], m: int) -> Fraction:
        """Coefficient of t^alpha for the multiplicities of alpha, m = |alpha|."""
        fact = self.fact
        e = [1]
        denom = self.c_pow[m]
        for a, w in zip(multiplicities, self.weights):
            if a:
                if a > 1:
                    denom *= fact[a]
                for _ in range(a):
                    e = [w * x + y for x, y in zip(e + [0], [0] + e)]
        return Fraction(sum(g * x for g, x in zip(self.row[m], e)), denom)


def wip_root_coeff(omega: Callable[[int], Fraction], alpha: ExponentVector, q: RationalLike) -> Fraction:
    """Coefficient of t^alpha in the q-th power of the weighted family.

    With m = |alpha| and w^alpha the weight monomial w1^a1 ... wk^ak,

        (1 / prod(alpha_i!)) * sum_{j=0..m-1} C(m-1, j) B_{-j}(q) D^(m-1-j)(w^alpha)

    evaluated at the given weights, where D is the total derivative and
    B_{-j} the descending factorial operator.  The divisor is the product of
    the factorials of the multiplicities, not the factorial of their product.

    The derivatives come from the product identity

        D^r(w^alpha)(omega) = r! * [s^r] prod_i (omega_i + s)^alpha_i,

    Taylor's formula for w^alpha along the all-ones direction, so one
    univariate integer polynomial per alpha replaces m iterated derivatives.
    Only the weights of the parts present in alpha are read.
    """
    q = Fraction(q)
    m = alpha.norm
    if m < 1:
        raise ValueError("coefficient formula needs at least one part")
    present = [Fraction(omega(j)) if a else Fraction(0) for j, a in enumerate(alpha, start=1)]
    scale, weights = _integer_weights(present)
    return _WipRootTables(q, scale, weights, m, m).coefficient(alpha.multiplicities, m)


def wip_root(omega: Callable[[int], Fraction], k: int, n: int, q: RationalLike) -> IsobaricPoly:
    """Degree-n term of the q-th convolution power of the weighted family.

    The underlying degree-0 term is 1 (convolution convention).  With all
    weights equal to 1 this collapses to :func:`gfp_root_closed`.  Each
    coefficient is the one :func:`wip_root_coeff` gives; the weights
    omega(1..min(n, k)), the falling factorials b^(j+1) B_{-j}(q) and the
    other per-call constants are tabled once for all alpha.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if k < 1:
        raise ValueError("part bound k must be >= 1")
    if n == 0:
        return IsobaricPoly.constant(1, k)
    slots = min(n, k)
    scale, weights = _integer_weights([Fraction(omega(j)) for j in range(1, slots + 1)])
    tables = _WipRootTables(Fraction(q), scale, weights, -(-n // slots), n)
    terms = {}
    for alpha in exponent_vectors(n, k):
        coeff = tables.coefficient(alpha.multiplicities, alpha.norm)
        if coeff:
            terms[alpha] = coeff
    return IsobaricPoly._trusted(n, k, terms)
