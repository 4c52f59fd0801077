"""Companion matrix orbits: the doubly infinite row scheme and its windows.

A core polynomial x^k - t1 x^(k-1) - ... - tk has a k-by-k companion matrix
A with identity superdiagonal and last row (tk, ..., t1).  Iterating the row
map r -> r A from the identity rows produces a doubly infinite array whose
row n has the degree-n Fibonacci-side polynomial in its rightmost column and
signed hook Schur polynomials elsewhere; the k-by-k block of consecutive rows
ending at row m is exactly A^m, so block traces give the Lucas-side power
sums.  Seeding the same orbit with one manufactured row instead yields the
"different matrix", whose rightmost column reads the Lucas column directly.

Rows above the seeds need nothing; rows below them exist numerically whenever
tk is invertible (tk != 0) and are refused symbolically, since they would
need rational functions in the t's.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .polynomials import IsobaricPoly, RationalLike

__all__ = [
    "SingularCoreError",
    "CorePolynomial",
    "OrbitWindow",
    "CompanionWindow",
    "DifferentWindow",
    "companion_matrix",
    "companion_window",
    "different_matrix",
    "different_window",
    "schur_hook",
    "glp_from_gfp",
    "dense_det",
]

Entry = Union[Fraction, IsobaricPoly]


class SingularCoreError(ValueError):
    """Backward orbit steps divide by tk; a core with tk = 0 has no rows
    below the seed rows."""


class CorePolynomial:
    """The recursion core x^k - t1 x^(k-1) - ... - tk.

    ``coefficients`` holds exact values (t1, ..., tk) for a numeric core, or
    None for the generic symbolic core in k indeterminates.

    The core fixes the entry ring of everything computed from it: Fractions
    for a numeric core, ``IsobaricPoly`` for the generic one.  ``constant``
    and ``times_t`` are the only ring-dependent operations; the orbit and
    Newton code is written once on them and plain ``+``, ``-``, ``*``.
    """

    def __init__(self, k: int, coefficients: Sequence[RationalLike] | None = None) -> None:
        if k < 1:
            raise ValueError("core degree k must be >= 1")
        if coefficients is not None:
            coefficients = tuple(Fraction(c) for c in coefficients)
            if len(coefficients) != k:
                raise ValueError(f"expected {k} coefficients, got {len(coefficients)}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "coefficients", coefficients)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.k, self.coefficients) == (other.k, other.coefficients)

    def __hash__(self) -> int:
        return hash((self.k, self.coefficients))

    def __repr__(self) -> str:
        return f"CorePolynomial(k={self.k!r}, coefficients={self.coefficients!r})"

    @classmethod
    def generic(cls, k: int) -> "CorePolynomial":
        return cls(k, None)

    @classmethod
    def numeric(cls, values: Sequence[RationalLike]) -> "CorePolynomial":
        vals = tuple(Fraction(v) for v in values)
        if not vals:
            raise ValueError("need at least one coefficient")
        return cls(len(vals), vals)

    @property
    def is_numeric(self) -> bool:
        return self.coefficients is not None

    def t(self, j: int) -> Fraction:
        if not self.is_numeric:
            raise ValueError("generic core has no numeric coefficients")
        if not 1 <= j <= self.k:
            raise ValueError(f"coefficient index {j} outside 1..{self.k}")
        return self.coefficients[j - 1]

    def constant(self, c: RationalLike, degree: int) -> Entry:
        """The constant c as an entry of isobaric degree ``degree``; numeric
        cores ignore the degree, and generic ones allow nonzero c at 0 only."""
        if self.is_numeric:
            return Fraction(c)
        return IsobaricPoly(degree, self.k, [((0,) * self.k, c)])

    def times_t(self, x: Entry, j: int) -> Entry:
        """x * t_j, 1 <= j <= k: a product for a numeric core, a shift of the
        exponent vectors (``times_part``) for the generic one."""
        if self.is_numeric:
            return x * self.t(j)
        return x.times_part(j)


# -- the orbit -------------------------------------------------------------


def _forward_step(core: CorePolynomial, prev: tuple[Entry, ...]) -> tuple[Entry, ...]:
    """One application of the row map r -> r A."""
    k = core.k
    pk = prev[k - 1]
    out = [core.times_t(pk, k)]
    for j in range(2, k + 1):
        out.append(core.times_t(pk, k - j + 1) + prev[j - 2])
    return tuple(out)


def _backward_step(core: CorePolynomial, nxt: tuple[Entry, ...]) -> tuple[Entry, ...]:
    """Invert the row map; numeric cores with tk != 0 only."""
    k = core.k
    tk = core.t(k)
    prev: list[Entry] = [Fraction(0)] * k
    prev[k - 1] = nxt[0] / tk
    for j in range(2, k + 1):
        prev[j - 2] = nxt[j - 1] - prev[k - 1] * core.t(k - j + 1)
    return tuple(prev)


def _seed_rows_companion(core: CorePolynomial) -> dict[int, tuple[Entry, ...]]:
    """Identity rows: window row j - k is the j-th standard basis row."""
    k = core.k
    # Entry (n, j) is isobaric of degree n + k - j; the 1 sits where that
    # degree is zero.
    return {
        n: tuple(core.constant(int(j == n + k), n + k - j) for j in range(1, k + 1))
        for n in range(1 - k, 1)
    }


def _seed_row_different(core: CorePolynomial) -> tuple[Entry, ...]:
    """Row 0 of the different orbit.

    The derivative of the core, k x^(k-1) - (k-1) t1 x^(k-2) - ... - t_{k-1},
    read in the ascending basis (1, x, ..., x^(k-1)), gives the row
    (-1*t_{k-1}, -2*t_{k-2}, ..., -(k-1)*t_1, k).  The integer factors are
    what make the orbit's rightmost column the Lucas-side sequence; dropping
    them only goes unnoticed at k <= 2.
    """
    k = core.k
    cells = [core.times_t(core.constant(-j, 0), k - j) for j in range(1, k)]
    return (*cells, core.constant(k, 0))


def _fill(
    core: CorePolynomial,
    rows: dict[int, tuple[Entry, ...]],
    n_lo: int,
    n_hi: int,
) -> dict[int, tuple[Entry, ...]]:
    if n_lo > n_hi:
        raise ValueError(f"empty window: {n_lo}..{n_hi}")
    top = max(rows)
    bottom = min(rows)
    while top < n_hi:
        rows[top + 1] = _forward_step(core, rows[top])
        top += 1
    if n_lo < bottom:
        if not core.is_numeric:
            raise ValueError(
                f"symbolic rows below {bottom} would need rational functions in the core coefficients"
            )
        if core.t(core.k) == 0:
            raise SingularCoreError(f"tk = 0: no rows below {bottom}")
        while bottom > n_lo:
            rows[bottom - 1] = _backward_step(core, rows[bottom])
            bottom -= 1
    return {n: rows[n] for n in range(n_lo, n_hi + 1)}


class OrbitWindow:
    """A finite range of rows n_lo..n_hi of one row orbit."""

    __slots__ = ("core", "n_lo", "n_hi", "_rows")

    def __init__(self, core: CorePolynomial, n_lo: int, n_hi: int, rows: dict[int, tuple[Entry, ...]]):
        self.core = core
        self.n_lo = n_lo
        self.n_hi = n_hi
        self._rows = rows

    @property
    def k(self) -> int:
        return self.core.k

    def row(self, n: int) -> tuple[Entry, ...]:
        if not self.n_lo <= n <= self.n_hi:
            raise IndexError(f"row {n} outside window {self.n_lo}..{self.n_hi}")
        return self._rows[n]

    def entry(self, n: int, j: int) -> Entry:
        """1-based column j of row n."""
        if not 1 <= j <= self.k:
            raise IndexError(f"column {j} outside 1..{self.k}")
        return self.row(n)[j - 1]

    def rightmost(self, n: int) -> Entry:
        return self.row(n)[self.k - 1]

    def __repr__(self) -> str:
        kind = "numeric" if self.core.is_numeric else "symbolic"
        return f"{type(self).__name__}(k={self.k}, rows {self.n_lo}..{self.n_hi}, {kind})"


class CompanionWindow(OrbitWindow):
    """Orbit seeded by the identity rows; rightmost column is the Fibonacci
    side, and consecutive row blocks are powers of the companion matrix."""

    def block(self, m: int) -> list[list[Entry]]:
        """The k-by-k block of rows m-k+1..m, which equals A^m.

        Index 0 gives the identity block; negative m reach the inverse
        powers when the window extends that far down.
        """
        if not (self.n_lo <= m - self.k + 1 and m <= self.n_hi):
            raise IndexError(f"block {m} needs rows {m - self.k + 1}..{m} inside {self.n_lo}..{self.n_hi}")
        return [list(self.row(m - self.k + 1 + i)) for i in range(self.k)]

    def block_trace(self, m: int) -> Entry:
        """Trace of block(m): the degree-m Lucas-side value."""
        b = self.block(m)
        acc = b[0][0]
        for i in range(1, self.k):
            acc = acc + b[i][i]
        return acc


class DifferentWindow(OrbitWindow):
    """Orbit seeded by the manufactured derivative row; rightmost column is
    the Lucas side."""


def companion_window(core: CorePolynomial, n_lo: int, n_hi: int) -> CompanionWindow:
    rows = _fill(core, _seed_rows_companion(core), n_lo, n_hi)
    return CompanionWindow(core, n_lo, n_hi, rows)


def different_window(core: CorePolynomial, n_lo: int, n_hi: int) -> DifferentWindow:
    rows = _fill(core, {0: _seed_row_different(core)}, n_lo, n_hi)
    return DifferentWindow(core, n_lo, n_hi, rows)


def companion_matrix(core: CorePolynomial) -> list[list[Entry]]:
    """The k-by-k companion matrix A: identity superdiagonal, last row
    (tk, ..., t1).  Equals the window block at index 1."""
    return companion_window(core, 2 - core.k, 1).block(1)


def different_matrix(core: CorePolynomial) -> list[list[Entry]]:
    """The k-by-k different matrix D: the manufactured row and its first
    k-1 orbit images.

    Its determinant is the core discriminant up to sign; the computed value
    is reported as-is and does carry a sign that differs from the
    discriminant in general (at k = 2 the determinant is -(t1^2 + 4 t2)
    while the discriminant is t1^2 + 4 t2).
    """
    w = different_window(core, 0, core.k - 1)
    return [list(w.row(i)) for i in range(core.k)]


def schur_hook(core: CorePolynomial, n: int, r: int) -> Entry:
    """Hook Schur polynomial S_(n, 1^r) of the core roots, 0 <= r <= k-1.

    Read off the companion window: column k - r of row n carries it up to
    the sign (-1)^r.  r = 0 gives the complete homogeneous (Fibonacci-side)
    value, r = k-1 relates to the elementary one.
    """
    k = core.k
    if not 0 <= r <= k - 1:
        raise ValueError(f"hook arm {r} outside 0..{k - 1}")
    w = companion_window(core, min(n, 1 - k), max(n, 0))
    e = w.entry(n, k - r)
    return -e if r % 2 else e


def glp_from_gfp(core: CorePolynomial, N: int) -> list[Entry]:
    """Lucas-side values G_1..G_N from Fibonacci-side ones via the Newton
    identity n F_n = sum_{i=1..n} G_i F_{n-i}, rearranged to solve for G_n.

    F_0..F_N are read off the rightmost column of the companion window, so a
    numeric core costs O(N k) steps for them plus O(N^2) for the identity,
    with no polynomial built.  Numeric cores give Fractions, the generic core
    gives polynomials; either way the arithmetic is exact and division-free.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    w = companion_window(core, 0, N)
    F = [w.rightmost(n) for n in range(N + 1)]
    out: list[Entry] = []
    for n in range(1, N + 1):
        g = n * F[n]
        for i in range(1, n):
            g = g - out[i - 1] * F[n - i]
        out.append(g)
    return out


def dense_det(rows: Sequence[Sequence[Entry]]) -> Entry:
    """Determinant of a square matrix by expansion over memoised minors.

    Row by row, ``minors`` maps each column subset S (a bitmask, |S| = r)
    to the determinant of rows 0..r-1 on the columns of S; adding row r at
    a column j outside S contributes (-1)^#{s in S : s > j} * a[r][j] *
    minors[S] to the minor on S + {j}.  For a k-by-k matrix that is at most
    k * 2^(k-1) entry products, against ~e * k! for Laplace expansion, and
    no division, so the one code serves both entry rings: Fractions, or
    isobaric polynomials of matching k.  Zero entries and minors that
    cancel are skipped; when nothing survives, the result is the zero of
    the diagonal's product (its degree tag, for polynomials), as Laplace
    expansion gives.  Laplace expansion stays as the tests' oracle
    (``laplace_det`` in ``tests/helpers.py``).
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if n == 0:
        raise ValueError("empty matrix")
    minors = {1 << j: a for j, a in enumerate(rows[0]) if a}
    for r in range(1, n):
        # (bit of j, mask of the columns above j, a[r][j], -a[r][j])
        cells = [(1 << j, -2 << j, a, -a) for j, a in enumerate(rows[r]) if a]
        grown: dict[int, Entry] = {}
        for s, d in minors.items():
            for bit, above, a, neg in cells:
                if s & bit:
                    continue
                term = (neg if (s & above).bit_count() & 1 else a) * d
                key = s | bit
                old = grown.get(key)
                grown[key] = term if old is None else old + term
        minors = {s: d for s, d in grown.items() if d}
    if minors:
        return minors[(1 << n) - 1]
    zero = rows[0][0] * 0
    for i in range(1, n):
        zero = zero * (rows[i][i] * 0)
    return zero
