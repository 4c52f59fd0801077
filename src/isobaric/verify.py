"""Self-check suites behind the ``iso verify`` verb.

Each suite replays a family of identities with an independent cross-check
(recursive partition counts, matrix powers, reconvolution) and reports the
first counterexample it finds.  These run fast at the default bound and are
meant as a smoke harness, not a replacement for the test suite, which shares
the naive oracles defined here (``partition_count`` and ``mat_pow``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .companion import CorePolynomial, companion_window, glp_from_gfp
from .hessenberg import rep_check
from .multiplicative import (
    KNOWN_FUNCTIONS,
    LocalMF,
    dirichlet_convolve_local,
    known_function,
    local_power,
    recover_core,
    root_verify,
)
from .partitions import exponent_vectors, vector_count
from .polynomials import PolySequence, WeightVector, convolve, gfp, glp
from .roots import gfp_root_closed, gfp_root_matrix, gfp_root_stirling_matrix

__all__ = ["SUITES", "run_suite", "run_suites", "partition_count", "mat_pow"]

Result = tuple[bool, str]


def partition_count(n: int, k: int) -> int:
    """p(n, parts <= k) by the textbook two-way recursion."""
    if n == 0:
        return 1
    if k == 0 or n < 0:
        return 0
    return partition_count(n, k - 1) + partition_count(n - k, k)


def suite_partitions(max_n: int) -> Result:
    for n in range(0, max_n + 1):
        for k in range(1, max_n + 1):
            vecs = exponent_vectors(n, k)
            if any(a.degree != n for a in vecs):
                return False, f"degree drift at n={n}, k={k}"
            if len(vecs) != partition_count(n, k) or vector_count(n, k) != len(vecs):
                return False, f"count mismatch at n={n}, k={k}"
            keys = [a.multiplicities for a in vecs]
            if keys != sorted(keys, reverse=True):
                return False, f"order not descending at n={n}, k={k}"
            if k >= n >= 1:
                trimmed = [a.multiplicities[:n] for a in vecs]
                base = [a.multiplicities for a in exponent_vectors(n, n)]
                if trimmed != base:
                    return False, f"enumeration unstable at n={n}, k={k}"
    return True, ""


def suite_hessenberg(max_n: int) -> Result:
    weights = [WeightVector.ones(), WeightVector.naturals(), WeightVector.from_values((3, 1, 4, 1, 5))]
    for omega in weights:
        for k in (2, 3):
            for n in range(1, max_n + 1):
                if not rep_check(omega, k, n):
                    return False, f"representation broken at omega={omega.label}, k={k}, n={n}"
    return True, ""


def suite_roots(max_n: int) -> Result:
    qs = (Fraction(1, 2), Fraction(3), Fraction(-5, 2))
    for q in qs:
        for k in (2, 3):
            for n in range(1, max_n + 1):
                target = gfp_root_closed(q, k, n)
                if gfp_root_matrix(q, k, n, -1).value() != target:
                    return False, f"det route differs at q={q}, k={k}, n={n}"
                if gfp_root_matrix(q, k, n, +1).value() != target:
                    return False, f"perm route differs at q={q}, k={k}, n={n}"
                if gfp_root_stirling_matrix(q, k, n).value() != target:
                    return False, f"stirling route differs at q={q}, k={k}, n={n}"
    seq = PolySequence(lambda n: gfp_root_closed(Fraction(1, 2), 2, n))
    for n in range(0, max_n + 1):
        if convolve(seq, seq, n) != gfp(2, n):
            return False, f"square of half power differs at n={n}"
    return True, ""


def _mat_mul(a, b):
    k = len(a)
    return [[sum((a[i][l] * b[l][j] for l in range(k)), Fraction(0)) for j in range(k)] for i in range(k)]


def _mat_inv(a):
    """Gauss-Jordan with exact pivoting; raises on singular input."""
    k = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(a)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


def mat_pow(a, m: int):
    """a^m by repeated products; negative m inverts by Gauss-Jordan first."""
    k = len(a)
    if m < 0:
        return mat_pow(_mat_inv(a), -m)
    out = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for _ in range(m):
        out = _mat_mul(out, a)
    return out


def suite_companion(max_n: int) -> Result:
    core = CorePolynomial.numeric((1, 1))
    a = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]]
    w = companion_window(core, -2 - core.k + 1, max_n)
    for m in range(-2, max_n + 1):
        if w.block(m) != mat_pow(a, m):
            return False, f"block {m} is not the matrix power"
    for m in range(0, max_n + 1):
        if w.block_trace(m) != glp(2, m).evaluate((1, 1)):
            return False, f"trace of block {m} differs from the Lucas value"
    for n in range(0, max_n + 1):
        if w.rightmost(n) != gfp(2, n).evaluate((1, 1)):
            return False, f"rightmost entry at row {n} differs from the Fibonacci value"
    sym = companion_window(CorePolynomial.generic(2), -1, max_n)
    for n in range(0, max_n + 1):
        if sym.rightmost(n) != gfp(2, n):
            return False, f"symbolic rightmost at row {n} differs"
    got = glp_from_gfp(core, max_n)
    want = [glp(2, n).evaluate((1, 1)) for n in range(1, max_n + 1)]
    if got != want:
        return False, "Newton bridge differs from the closed Lucas values"
    return True, ""


def _local_powers_closed(fs: list[LocalMF], q: Fraction) -> list[LocalMF]:
    """q-th Dirichlet powers of functions sharing one truncation N, by
    evaluating the closed root polynomials (p(n) terms at degree n) at each
    recovered core: the oracle for the root-row recurrence in ``local_power``.
    The polynomials are built once per call and shared by all functions."""
    N = fs[0].truncation
    roots = [gfp_root_closed(q, N, n) for n in range(1, N + 1)]
    out = []
    for f in fs:
        ts = recover_core(f)
        out.append(LocalMF((Fraction(1), *(r.evaluate(ts) for r in roots)), f"{f.label}^{q}"))
    return out


def suite_mf(max_n: int) -> Result:
    N = max(max_n, 2)
    pairs = [(name, p) for name in KNOWN_FUNCTIONS for p in (2, 3)]
    stock = [known_function(name, p, N) for name, p in pairs]
    for q in (Fraction(1, 2), Fraction(-1), Fraction(7, 3), Fraction(0)):
        for (name, p), f, want in zip(pairs, stock, _local_powers_closed(stock, q)):
            if local_power(f, q) != want:
                return False, f"{name}^{q} at p={p} differs from the closed root polynomials"
    for name, p in (("zeta", 2), ("phi", 2), ("tau", 2)):
        f = known_function(name, p, N)
        for m in (2, 3):
            if not root_verify(f, m):
                return False, f"{name}^(1/{m}) reconvolution failed"
    eps = known_function("epsilon", 2, N)
    for name in KNOWN_FUNCTIONS:
        f = known_function(name, 2, N)
        if dirichlet_convolve_local(f, local_power(f, -1)) != eps:
            return False, f"{name} * {name}^-1 is not the unit"
    expected = (Fraction(1), Fraction(1, 2), Fraction(3, 8), Fraction(5, 16), Fraction(35, 128))
    zeta = known_function("zeta", 2, min(N, 4))
    half = local_power(zeta, Fraction(1, 2))
    if half.values != expected[: zeta.truncation + 1]:
        return False, "zeta^(1/2) values drifted"
    return True, ""


SUITES: dict[str, Callable[[int], Result]] = {
    "partitions": suite_partitions,
    "hessenberg": suite_hessenberg,
    "roots": suite_roots,
    "companion": suite_companion,
    "mf": suite_mf,
}


def run_suite(name: str, max_n: int) -> Result:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick one of {', '.join([*SUITES, 'all'])}")
    return SUITES[name](max_n)


def run_suites(name: str, max_n: int) -> list[tuple[str, bool, str]]:
    names = list(SUITES) if name == "all" else [name]
    out = []
    for nm in names:
        ok, detail = run_suite(nm, max_n)
        out.append((nm, ok, detail))
    return out
