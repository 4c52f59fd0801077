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
from functools import cached_property
from math import factorial
from typing import Callable, Iterator

__all__ = ["ExponentVector", "exponent_vectors", "multinomial", "weight_dot"]


class ExponentVector:
    """Multiplicity vector (a1, ..., ak) of a partition with parts <= k.

    Immutable and hashable, so it can key sparse polynomial terms.  The
    derived quantities ``degree`` and ``norm`` are cached on first access.
    """

    def __init__(self, multiplicities: tuple[int, ...]) -> None:
        if not isinstance(multiplicities, tuple):
            multiplicities = tuple(multiplicities)
        if not multiplicities:
            raise ValueError("exponent vector needs at least one slot (k >= 1)")
        for a in multiplicities:
            if not isinstance(a, int) or a < 0:
                raise ValueError(f"multiplicities must be nonnegative integers, got {a!r}")
        object.__setattr__(self, "multiplicities", multiplicities)

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

    @cached_property
    def degree(self) -> int:
        """Weighted degree sum(j * aj); the n this vector partitions."""
        return sum(j * a for j, a in enumerate(self.multiplicities, start=1))

    @cached_property
    def norm(self) -> int:
        """|alpha| = total number of parts."""
        return sum(self.multiplicities)

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


def exponent_vectors(n: int, k: int) -> tuple[ExponentVector, ...]:
    """All partitions of n with parts at most k, as exponent vectors.

    Returned in descending lexicographic order of (a1, ..., ak), e.g. for
    n = k = 3: (3,0,0), (1,1,0), (0,0,1).  The order is what the polynomial
    printer and JSON writer rely on, so it is part of the contract.
    """
    if k < 1:
        raise ValueError("part bound k must be >= 1")
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    out: list[ExponentVector] = []

    def fill(j: int, remaining: int, acc: list[int]) -> None:
        if j == k:
            if remaining % k == 0:
                out.append(ExponentVector(tuple(acc) + (remaining // k,)))
            return
        # Larger a_j first keeps the overall order descending lexicographic.
        for a in range(remaining // j, -1, -1):
            fill(j + 1, remaining - j * a, acc + [a])

    fill(1, n, [])
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
