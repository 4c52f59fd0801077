"""Independent oracles shared by the test modules.

Everything here is deliberately naive: brute-force enumeration, O(n!)
determinants (permutation sum and Laplace expansion) and permanents,
Gaussian elimination, Gauss-Jordan inversion, iterated total
derivatives, term-by-term evaluation.  None of it reuses the library's own
recursions, so agreement is evidence rather than tautology.  Two are the
library's earlier routes, kept as oracles for the faster ones:
``laplace_det`` and ``slot_exponent_vectors`` (which shares only the
partition-count table).
``partition_count`` and ``mat_pow`` are the oracles ``iso verify`` runs,
kept once in ``isobaric.verify`` and re-exported here.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Mapping, Sequence, Union

from isobaric.partitions import ExponentVector, _count_rows
from isobaric.polynomials import IsobaricPoly
from isobaric.verify import mat_pow, partition_count  # noqa: F401

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


def slot_exponent_vectors(n: int, k: int) -> tuple[ExponentVector, ...]:
    """``exponent_vectors`` by one recursion frame per slot 1..min(n, k):
    what the library computed before it recursed over used parts only, kept
    as its oracle.  Same reachability table, so the same pruning, but every
    vector pays for every slot."""
    m = min(n, k)
    pad = (0,) * (k - m)
    if m == 0:
        return (ExponentVector._trusted(pad, 0, 0),)
    # reach[j][r] != 0 iff r is a sum of parts j..m; slot j - 1 reads it.
    reach = [[]] * (m + 1)
    parts = range(m, 1, -1)
    for j, row in zip(parts, _count_rows(n, parts, 1)):
        reach[j] = row[:]
    out: list[ExponentVector] = []
    acc: list[int] = []

    def fill(j: int, remaining: int, parts: int) -> None:
        if j == m:
            a = remaining // m
            out.append(ExponentVector._trusted(tuple(acc) + (a,) + pad, n, parts + a))
            return
        nxt = reach[j + 1]
        # Smallest remainder first is largest a_j first: descending lexicographic.
        for r in range(remaining % j, remaining + 1, j):
            if nxt[r]:
                a = (remaining - r) // j
                acc.append(a)
                fill(j + 1, r, parts + a)
                acc.pop()

    fill(1, n, 0)
    return tuple(out)


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


def laplace_det(rows: Sequence[Sequence]):
    """Laplace expansion along the first row, over any entry ring with
    ``+``, ``-`` and ``*`` (Fractions or isobaric polynomials); ~e·n!
    products.  What ``companion.dense_det`` computed before its memoised
    minors, kept as their oracle."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        minor = [[r[c] for c in range(n) if c != j] for r in rows[1:]]
        term = rows[0][j] * laplace_det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def gauss_det(rows: Sequence[Sequence[RationalLike]]) -> Fraction:
    """Gaussian elimination over Fraction with row swaps; O(n^3), for sizes
    the permutation sum cannot reach."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


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


def evaluate_reference(poly: IsobaricPoly, values: Sequence[RationalLike]) -> Fraction:
    """``IsobaricPoly.evaluate`` written term by term over Fraction: each
    coefficient times its product of powers, summed one Fraction at a time.
    The oracle for the library's single integer sum."""
    vals = [Fraction(v) for v in values[: poly.k]]
    total = Fraction(0)
    for alpha, c in poly.sorted_terms():
        prod = c
        for v, a in zip(vals, alpha.multiplicities):
            if a:
                prod *= v**a
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


# -- sparse arithmetic on plain dicts ----------------------------------------

# A reference polynomial is a dict from multiplicity tuples to nonzero
# Fractions; degree and k travel beside it.  These are the oracles for the
# IsobaricPoly arithmetic, which builds its results without validation.


def ref_terms(poly: IsobaricPoly) -> dict[tuple[int, ...], Fraction]:
    return {alpha.multiplicities: c for alpha, c in poly.sorted_terms()}


def _nonzero(terms: dict[tuple[int, ...], Fraction]) -> dict[tuple[int, ...], Fraction]:
    return {key: c for key, c in terms.items() if c != 0}


def ref_add(a: Mapping[tuple, Fraction], b: Mapping[tuple, Fraction]) -> dict[tuple, Fraction]:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, Fraction(0)) + c
    return _nonzero(out)


def ref_scale(a: Mapping[tuple, Fraction], c: RationalLike) -> dict[tuple, Fraction]:
    return _nonzero({key: v * Fraction(c) for key, v in a.items()})


def ref_times_part(a: Mapping[tuple, Fraction], j: int, k: int) -> dict[tuple, Fraction]:
    if j > k:
        return {}
    return {key[: j - 1] + (key[j - 1] + 1,) + key[j:]: v for key, v in a.items()}


def ref_mul(a: Mapping[tuple, Fraction], b: Mapping[tuple, Fraction]) -> dict[tuple, Fraction]:
    out: dict[tuple, Fraction] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return _nonzero(out)


def ref_evaluate(a: Mapping[tuple, Fraction], values: Sequence[RationalLike]) -> Fraction:
    total = Fraction(0)
    for key, c in a.items():
        prod = c
        for v, e in zip(values, key):
            prod *= Fraction(v) ** e
        total += prod
    return total


def assert_poly_is(poly: IsobaricPoly, n: int, k: int, terms: Mapping[tuple, Fraction]) -> None:
    """``poly`` has degree n, k variables and exactly the reference ``terms``;
    every stored coefficient is nonzero, every key has the polynomial's
    degree and k, and equality and hash match a rebuild through the
    validating public constructor."""
    assert (poly.n, poly.k) == (n, k)
    assert ref_terms(poly) == terms
    stored = poly.sorted_terms()
    assert len(stored) == len(poly)
    for alpha, c in stored:
        assert isinstance(alpha, ExponentVector) and isinstance(c, Fraction)
        assert c != 0
        assert alpha.k == len(alpha.multiplicities) == k
        assert alpha.degree == sum(j * a for j, a in enumerate(alpha.multiplicities, 1)) == n
        assert alpha.norm == sum(alpha.multiplicities)
    rebuilt = IsobaricPoly(n, k, [(alpha.multiplicities, c) for alpha, c in stored])
    assert poly == rebuilt
    assert hash(poly) == hash(rebuilt)
