"""Independent oracles shared by the test modules.

Everything here is deliberately naive: brute-force enumeration, O(n!)
determinants and permanents, Gauss-Jordan inversion, iterated total
derivatives.  None of it reuses the library's own recursions, so agreement
is evidence rather than tautology.  ``partition_count`` and ``mat_pow`` are
the oracles ``iso verify`` runs, kept once in ``isobaric.verify`` and
re-exported here.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import comb, factorial
from typing import TYPE_CHECKING, Callable, Mapping, Sequence, Union

from isobaric.verify import mat_pow, partition_count  # noqa: F401

if TYPE_CHECKING:
    from isobaric.partitions import ExponentVector

RationalLike = Union[Fraction, int, str]

# Frozen integer weight vector used wherever a "random but fixed" weight
# sequence is called for.  Chosen once (includes a negative entry) and kept
# stable so expected values never drift.
FROZEN_WEIGHTS = (7, -2, 5, 3)


def brute_force_vectors(n: int, k: int) -> set[tuple[int, ...]]:
    """All (a1..ak) with sum(j aj) = n, by bounded cartesian product over
    (a2..ak); a1 takes whatever is left."""
    parts = range(2, k + 1)
    ranges = [range(n // j + 1) for j in parts]
    out = set()
    for tail in itertools.product(*ranges):
        rest = n - sum(map(operator.mul, tail, parts))
        if rest >= 0:
            out.add((rest,) + tail)
    return out


def perm_parity(perm: tuple[int, ...]) -> int:
    """+1 for even permutations, -1 for odd, by counting inversions."""
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


def naive_det(rows: list[list[Fraction]]) -> Fraction:
    """Signed permutation sum; O(n!) on purpose."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        prod = Fraction(perm_parity(perm))
        for i in range(n):
            prod *= rows[i][perm[i]]
            if prod == 0:
                break
        total += prod
    return total


def naive_perm(rows: list[list[Fraction]]) -> Fraction:
    """Unsigned permutation sum; O(n!) on purpose."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        prod = Fraction(1)
        for i in range(n):
            prod *= rows[i][perm[i]]
            if prod == 0:
                break
        total += prod
    return total


# -- weighted roots by iterated total derivatives ----------------------------


class OmegaPolynomial:
    """Exact polynomial in weight variables w1, w2, ... (sparse, integer keys).

    Keys are exponent tuples with trailing zeros stripped, so (3, 2) and
    (3, 2, 0) are the same monomial.  Only the little algebra needed by the
    total derivative lives here: addition of term maps, the derivative
    itself, and evaluation at a weight vector.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[tuple, RationalLike], Sequence[tuple]] = ()) -> None:
        merged: dict[tuple[int, ...], Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, c in items:
            c = Fraction(c)
            if c == 0:
                continue
            key = tuple(exps)
            while key and key[-1] == 0:
                key = key[:-1]
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {key}")
            merged[key] = merged.get(key, Fraction(0)) + c
        self._terms = {e: c for e, c in merged.items() if c != 0}

    @classmethod
    def monomial(cls, exponents: Sequence[int], coeff: RationalLike = 1) -> "OmegaPolynomial":
        return cls([(tuple(exponents), coeff)])

    def d1(self) -> "OmegaPolynomial":
        """Total derivative: sum over variables of e_i * (monomial with the
        i-th exponent lowered by one)."""
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self._terms.items():
            for i, e in enumerate(exps):
                if e:
                    lowered = exps[:i] + (e - 1,) + exps[i + 1 :]
                    while lowered and lowered[-1] == 0:
                        lowered = lowered[:-1]
                    out[lowered] = out.get(lowered, Fraction(0)) + c * e
        return OmegaPolynomial(out)

    def evaluate(self, omega: Callable[[int], Fraction]) -> Fraction:
        total = Fraction(0)
        for exps, c in self._terms.items():
            prod = c
            for i, e in enumerate(exps, start=1):
                if e:
                    prod *= Fraction(omega(i)) ** e
            total += prod
        return total

    def terms(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OmegaPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "OmegaPolynomial(0)"
        bits = []
        for exps, c in sorted(self._terms.items(), reverse=True):
            mono = " ".join(f"w{i}^{e}" if e > 1 else f"w{i}" for i, e in enumerate(exps, start=1) if e)
            bits.append(f"{c} {mono}".strip())
        return "OmegaPolynomial(" + " + ".join(bits) + ")"


def total_derivative(p: OmegaPolynomial, j: int) -> OmegaPolynomial:
    """j-th iterate of the total derivative (j = 0 returns p unchanged)."""
    if j < 0:
        raise ValueError("derivative order must be >= 0")
    out = p
    for _ in range(j):
        out = out.d1()
    return out


def falling_factorial(q: Fraction, j: int) -> Fraction:
    """B_{-j}(q) = q (q - 1) ... (q - j), written out."""
    out = Fraction(1)
    for i in range(j + 1):
        out *= q - i
    return out


def wip_root_coeff_iterated(
    omega: Callable[[int], Fraction], alpha: ExponentVector, q: RationalLike
) -> Fraction:
    """The weighted root coefficient by m iterated total derivatives: the
    oracle for ``roots.wip_root_coeff`` and ``roots.wip_root``.

    With m = |alpha| and w^alpha the weight monomial w1^a1 ... wk^ak,

        (1 / prod(alpha_i!)) * sum_{j=0..m-1} C(m-1, j) B_{-j}(q) D^(m-1-j)(w^alpha)

    evaluated at the given weights, where D is the total derivative and
    B_{-j} the descending factorial operator.  The divisor is the product of
    the factorials of the multiplicities, not the factorial of their product.
    """
    q = Fraction(q)
    m = alpha.norm
    if m < 1:
        raise ValueError("coefficient formula needs at least one part")
    denom = 1
    for a in alpha.multiplicities:
        denom *= factorial(a)
    values = []
    cur = OmegaPolynomial.monomial(alpha.multiplicities)
    for _ in range(m):
        values.append(cur.evaluate(omega))
        cur = cur.d1()
    total = Fraction(0)
    for j in range(m):
        total += comb(m - 1, j) * falling_factorial(q, j) * values[m - 1 - j]
    return total / denom
