"""Lower Hessenberg matrices whose permanent and determinant give the family.

The degree-n weighted polynomial has two n-by-n matrix representations built
from the same lower triangle: rows 1..n-1 carry plain core coefficients
(cell (i, j) holds t_{i-j+1}) and the last row carries the weighted ones
(cell (n, j) holds omega(n-j+1) * t_{n-j+1}), with t_m = 0 past the part
bound.  With superdiagonal +1 the permanent equals the polynomial; with
superdiagonal -1 the determinant does.  Both are evaluated by one cofactor
sweep down the rows, never by brute force.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .polynomials import IsobaricPoly, RationalLike, wip_closed

__all__ = [
    "Cell",
    "HessenbergMatrix",
    "build_plus",
    "build_minus",
    "hessenberg_value",
    "rep_check",
]


class Cell(NamedTuple):
    """One lower-triangle entry: an exact coefficient times an optional t_m.

    ``t`` is None for a pure constant (including zero).  Numeric matrices use
    only constant cells.
    """

    coeff: Fraction
    t: Optional[int] = None

    @staticmethod
    def make(coeff: RationalLike, t: Optional[int] = None) -> "Cell":
        c = Fraction(coeff)
        if c == 0:
            return Cell(Fraction(0), None)
        if t is not None and t < 1:
            raise ValueError("part indices start at 1")
        return Cell(c, t)


class HessenbergMatrix:
    """Lower Hessenberg matrix with a constant +1 or -1 superdiagonal.

    Only the lower triangle is stored (row i holds columns 1..i); the
    superdiagonal sign is a single attribute and everything above it is zero.
    """

    __slots__ = ("n", "k", "superdiagonal", "rows", "symbolic")

    def __init__(
        self,
        n: int,
        k: int,
        superdiagonal: int,
        rows: Sequence[Sequence[Cell]],
        symbolic: bool | None = None,
    ) -> None:
        if n < 1:
            raise ValueError("matrix size must be >= 1")
        if k < 1:
            raise ValueError("part bound k must be >= 1")
        if superdiagonal not in (1, -1):
            raise ValueError("superdiagonal must be +1 or -1")
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        stored: list[tuple[Cell, ...]] = []
        for i, row in enumerate(rows, start=1):
            if len(row) != i:
                raise ValueError(f"row {i} must hold {i} cells, got {len(row)}")
            stored.append(tuple(Cell.make(c.coeff, c.t) if isinstance(c, Cell) else Cell.make(*c) for c in row))
        self.n = n
        self.k = k
        self.superdiagonal = superdiagonal
        self.rows = stored
        if symbolic is None:
            # Inferred for hand-built matrices; builders pass it explicitly
            # because an all-zero symbolic matrix has no t cells left.
            symbolic = any(c.t is not None for row in stored for c in row)
        self.symbolic = symbolic

    def cell(self, i: int, j: int) -> Cell:
        """Entry at 1-based (row, column), superdiagonal and zeros included."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"({i}, {j}) outside a {self.n}x{self.n} matrix")
        if j <= i:
            return self.rows[i - 1][j - 1]
        if j == i + 1:
            return Cell(Fraction(self.superdiagonal), None)
        return Cell(Fraction(0), None)

    @property
    def is_numeric(self) -> bool:
        return not self.symbolic

    def value(self) -> Union[Fraction, IsobaricPoly]:
        return hessenberg_value(self)

    def to_json_dict(self) -> dict:
        cells = []
        for i in range(1, self.n + 1):
            row = []
            for j in range(1, self.n + 1):
                c = self.cell(i, j)
                row.append({"coeff": str(c.coeff), "t": c.t})
            cells.append(row)
        return {"n": self.n, "super": self.superdiagonal, "cells": cells}

    def text_grid(self) -> str:
        """Aligned plain-text rendering of the full square matrix."""
        labels = [[_cell_str(self.cell(i, j)) for j in range(1, self.n + 1)] for i in range(1, self.n + 1)]
        widths = [max(len(labels[i][j]) for i in range(self.n)) for j in range(self.n)]
        lines = []
        for row in labels:
            lines.append("  ".join(s.rjust(w) for s, w in zip(row, widths)))
        return "\n".join(lines)

    def __repr__(self) -> str:
        kind = "numeric" if self.is_numeric else "symbolic"
        return f"HessenbergMatrix(n={self.n}, super={self.superdiagonal:+d}, {kind})"


def _cell_str(cell: Cell) -> str:
    if cell.coeff == 0:
        return "0"
    if cell.t is None:
        return str(cell.coeff)
    if cell.coeff == 1:
        return f"t{cell.t}"
    if cell.coeff == -1:
        return f"-t{cell.t}"
    return f"{cell.coeff} t{cell.t}"


def _build(omega: Callable[[int], Fraction], k: int, n: int, sign: int) -> HessenbergMatrix:
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    if k < 1:
        raise ValueError("part bound k must be >= 1")
    rows: list[list[Cell]] = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, i + 1):
            m = i - j + 1
            if m > k:
                row.append(Cell.make(0))
            elif i < n:
                row.append(Cell.make(1, m))
            else:
                row.append(Cell.make(omega(m), m))
        rows.append(row)
    return HessenbergMatrix(n, k, sign, rows, symbolic=True)


def build_plus(omega: Callable[[int], Fraction], k: int, n: int) -> HessenbergMatrix:
    """Permanent-side representation: superdiagonal +1."""
    return _build(omega, k, n, +1)


def build_minus(omega: Callable[[int], Fraction], k: int, n: int) -> HessenbergMatrix:
    """Determinant-side representation: superdiagonal -1."""
    return _build(omega, k, n, -1)


def hessenberg_value(matrix: HessenbergMatrix) -> Union[Fraction, IsobaricPoly]:
    """Permanent (superdiagonal +1) or determinant (superdiagonal -1).

    Both come from one cofactor expansion down the rows: with M_0 = 1 and
    m_{i,j} the lower-triangle entries,

        M_i = sum_{j=1..i} m_{i, i-j+1} * M_{i-j}.

    No sign factor appears.  On the determinant side each cofactor sign
    (-1)^(j-1) is cancelled by the product of j-1 superdiagonal -1 entries it
    clears, and on the permanent side the +1 entries contribute nothing, so
    the same plain recursion serves both.  Runs in O(n^2) cell operations.

    A numeric matrix yields a Fraction; a symbolic one yields the isobaric
    polynomial of degree n (each row is one degree step).  One sweep serves
    both entry rings; only its unit and zeros depend on the ring.  A t cell
    multiplies by t_m through ``times_part`` and zero cells are skipped.
    """
    n, k = matrix.n, matrix.k
    if matrix.is_numeric:
        minors: list[Union[Fraction, IsobaricPoly]] = [Fraction(1)]
        zeros = [Fraction(0)] * (n + 1)
    else:
        if any(c.coeff and c.t is None for row in matrix.rows for c in row):
            raise ValueError("constant nonzero cell below the superdiagonal breaks the grading")
        minors = [IsobaricPoly.constant(1, k)]
        zeros = [IsobaricPoly.zero(i, k) for i in range(n + 1)]
    for i in range(1, n + 1):
        acc = zeros[i]
        # Cell (i, c + 1) multiplies M_c.
        for cell, minor in zip(matrix.rows[i - 1], minors):
            if cell.coeff:
                if cell.t is not None:
                    minor = minor.times_part(cell.t)
                acc = acc + cell.coeff * minor
        minors.append(acc)
    return minors[n]


def rep_check(omega: Callable[[int], Fraction], k: int, n: int) -> bool:
    """True when permanent, determinant and closed sum agree at (omega, k, n)."""
    target = wip_closed(omega, k, n)
    return (
        hessenberg_value(build_plus(omega, k, n)) == target
        and hessenberg_value(build_minus(omega, k, n)) == target
    )
