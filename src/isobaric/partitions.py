"""Partitions with bounded part size, encoded multiplicatively.

A monomial t1^a1 * t2^a2 * ... * tk^ak is isobaric of degree n when
sum(j * aj) = n.  The exponent vector (a1, ..., ak) is then a partition of n
whose parts are at most k, written by multiplicity: aj counts the parts equal
to j.  Everything downstream (polynomial families, matrices, Dirichlet roots)
is indexed by these vectors, so this module fixes the encoding and the
enumeration order once.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Iterable, Iterator, Optional

__all__ = ["ExponentVector", "exponent_vectors", "vector_count", "multinomial", "weight_dot"]

_set = object.__setattr__


class ExponentVector:
    """Multiplicity vector (a1, ..., ak) of a partition with parts <= k.

    Immutable and hashable, so it can key sparse polynomial terms.  The
    derived quantities ``degree`` (sum(j * aj), the n this vector
    partitions) and ``norm`` (|alpha|, the number of parts) are set at
    construction.
    """

    __slots__ = ("multiplicities", "degree", "norm")

    def __init__(self, multiplicities: tuple[int, ...]) -> None:
        if not isinstance(multiplicities, tuple):
            multiplicities = tuple(multiplicities)
        if not multiplicities:
            raise ValueError("exponent vector needs at least one slot (k >= 1)")
        for a in multiplicities:
            if not isinstance(a, int) or a < 0:
                raise ValueError(f"multiplicities must be nonnegative integers, got {a!r}")
        _set(self, "multiplicities", multiplicities)
        _set(self, "degree", sum(j * a for j, a in enumerate(multiplicities, start=1)))
        _set(self, "norm", sum(multiplicities))

    @classmethod
    def _trusted(cls, multiplicities: tuple[int, ...], degree: int, norm: int) -> "ExponentVector":
        """Skip validation: for the enumerator, whose tuples are nonnegative
        ints of known degree and norm by construction."""
        self = object.__new__(cls)
        _set(self, "multiplicities", multiplicities)
        _set(self, "degree", degree)
        _set(self, "norm", norm)
        return self

    def __reduce__(self):
        # The default slot-state restore for copy and pickle would go through
        # the assignment guard below.
        return ExponentVector, (self.multiplicities,)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.multiplicities == other.multiplicities

    def __hash__(self) -> int:
        return hash((self.multiplicities,))

    @property
    def k(self) -> int:
        return len(self.multiplicities)

    def count(self, j: int) -> int:
        """Multiplicity of part j, zero beyond the stored bound."""
        if j < 1:
            raise ValueError("part indices start at 1")
        if j > len(self.multiplicities):
            return 0
        return self.multiplicities[j - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.multiplicities)

    def __len__(self) -> int:
        return len(self.multiplicities)

    def __repr__(self) -> str:
        return f"ExponentVector{self.multiplicities!r}"


def _count_rows(n: int, parts: Iterable[int], cap: Optional[int]) -> Iterator[list[int]]:
    """The partition-count table, one row per part taken in the given order.

    After part j the row holds, for r = 0..n, the number of ways to write r
    as a sum of the parts taken so far (each any number of times), saturated
    at ``cap`` when one is given.  The same list is updated in place and
    yielded after every part.
    """
    row = [1] + [0] * n
    for j in parts:
        for r in range(j, n + 1):
            v = row[r] + row[r - j]
            row[r] = v if cap is None or v < cap else cap
        yield row


def vector_count(n: int, k: int, cap: Optional[int] = None) -> int:
    """p_k(n), the number of vectors ``exponent_vectors(n, k)`` returns.

    With ``cap`` the count saturates there, and the check stays cheap for
    any n: O(n * min(n, k)) table steps at most, and none when k <= 3 (closed
    forms n//2 + 1 and round((n+3)^2 / 12)) or when parts 1..3 alone already
    reach the cap.
    """
    if k < 1:
        raise ValueError("part bound k must be >= 1")
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    m = min(n, k)
    # Exact for parts 1..m with m <= 3; for more parts, a lower bound.
    small = 1 if m <= 1 else n // 2 + 1 if m == 2 else (n * n + 6 * n + 12) // 12
    if m <= 3 or (cap is not None and small >= cap):
        return small if cap is None else min(small, cap)
    for row in _count_rows(n, range(1, m + 1), cap):
        if cap is not None and row[n] >= cap:
            return cap
    return row[n]


def exponent_vectors(n: int, k: int) -> tuple[ExponentVector, ...]:
    """All partitions of n with parts at most k, as exponent vectors.

    Returned in descending lexicographic order of (a1, ..., ak), e.g. for
    n = k = 3: (3,0,0), (1,1,0), (0,0,1).  The order is what the polynomial
    printer and JSON writer rely on, so it is part of the contract.

    Only parts 1..m = min(n, k) can occur.  The recursion visits only the
    part sizes a vector uses: at (next part j, remainder r) it tries each
    part p = j..m and, for p, each multiplicity a from r // p down to 1
    whose remainder r - a*p is a sum of parts p+1..m, by a reachability
    table built from the partition-count rows of parts m..2.  Slots j..p-1
    stay zero.  Descending lex follows: at each node a_j > 0 precedes
    a_j = 0, larger a_j precedes smaller, and a vector is emitted once its
    remainder reaches 0.  The largest part m takes the whole remainder or
    nothing, so it needs no table row.  Every node visited leads to a
    vector, so each vector costs one Python frame per distinct part below
    its largest one, plus one k-slot tuple copy of the reused slot list.
    """
    if k < 1:
        raise ValueError("part bound k must be >= 1")
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    m = min(n, k)
    slots = [0] * k
    if m == 0:
        return (ExponentVector._trusted(tuple(slots), 0, 0),)
    # reach[j][r] != 0 iff r is a sum of parts j..m; part j - 1 reads it.
    reach = [[]] * (m + 1)
    parts = range(m, 1, -1)
    for j, row in zip(parts, _count_rows(n, parts, 1)):
        reach[j] = row[:]
    out: list[ExponentVector] = []
    emit = out.append
    trusted = ExponentVector._trusted

    def fill(j: int, r: int, norm: int) -> None:
        # A part p > r // 2 other than r itself would leave a remainder
        # in 1..p, which no larger part fills.
        half = r // 2 + 1
        for p in range(j, half if half < m else m):
            nxt = reach[p + 1]
            # Smallest remainder first is largest a_p first.
            rest = r % p
            if not rest:
                slots[p - 1] = a = r // p
                emit(trusted(tuple(slots), n, norm + a))
                rest = p
            for rest in range(rest, r - p + 1, p):
                if nxt[rest]:
                    slots[p - 1] = a = (r - rest) // p
                    fill(p + 1, rest, norm + a)
            slots[p - 1] = 0
        # Then the single part r, or else the largest part m filling r.
        p = r if r < m else m
        if not r % p:
            slots[p - 1] = a = r // p
            emit(trusted(tuple(slots), n, norm + a))
            slots[p - 1] = 0

    fill(1, n, 0)
    return tuple(out)


def multinomial(alpha: ExponentVector) -> int:
    """Multinomial coefficient |alpha|! / (a1! * ... * ak!), an exact integer."""
    num = factorial(alpha.norm)
    for a in alpha.multiplicities:
        num //= factorial(a)
    return num


def weight_dot(alpha: ExponentVector, omega: Callable[[int], Fraction]) -> Fraction:
    """Weighted part count sum(aj * omega(j)) as an exact rational."""
    total = Fraction(0)
    for j, a in enumerate(alpha.multiplicities, start=1):
        if a:
            total += a * Fraction(omega(j))
    return total
