"""Multiplicative arithmetic functions at one prime, and their Dirichlet roots.

A multiplicative function restricted to powers of a fixed prime p is just the
value list (f(1), f(p), f(p^2), ...), and Dirichlet convolution restricts to
the Cauchy product of those lists.  Writing the list as a Fibonacci-side
sequence of some recovered core turns fractional Dirichlet powers into the
root family at that core: the degree-n value of f^q is the q-th root
polynomial evaluated at the recovered core coefficients.  The values come
from the root matrix's row recurrence applied to numbers, O(N^2) exact steps
for N prime powers, never from the p(n)-term polynomials themselves.  All
values are exact rationals, so f^(1/m) convolved with itself m times returns
f on the nose.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .polynomials import RationalLike

__all__ = [
    "LocalMF",
    "dirichlet_convolve_local",
    "dirichlet_fold",
    "recover_core",
    "local_power",
    "known_function",
    "root_verify",
    "KNOWN_FUNCTIONS",
]


class LocalMF:
    """Values (v0, v1, ..., vN) of a multiplicative function at p^0..p^N.

    v0 = f(1) must be 1; that is what makes the function a unit for Dirichlet
    convolution purposes.  The label is cosmetic and ignored by comparisons.
    """

    def __init__(self, values: Sequence[RationalLike], label: str = "f") -> None:
        vals = tuple(Fraction(v) for v in values)
        if not vals:
            raise ValueError("need at least the value at 1")
        if vals[0] != 1:
            raise ValueError(f"f(1) must be 1, got {vals[0]}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash((self.values,))

    def __repr__(self) -> str:
        return f"LocalMF(values={self.values!r}, label={self.label!r})"

    @property
    def truncation(self) -> int:
        """N: the highest stored prime-power exponent."""
        return len(self.values) - 1

    def value(self, n: int) -> Fraction:
        """f(p^n) for 0 <= n <= N; IndexError for any other n."""
        if not 0 <= n < len(self.values):
            raise IndexError(f"exponent {n} outside 0..{len(self.values) - 1}")
        return self.values[n]

    def format_values(self) -> str:
        return ",".join(str(v) for v in self.values)

    @classmethod
    def parse(cls, text: str, label: str = "f") -> "LocalMF":
        return cls(tuple(Fraction(part.strip()) for part in text.split(",")), label)


def dirichlet_convolve_local(a: LocalMF, b: LocalMF) -> LocalMF:
    """(a * b)(p^n) = sum_{i=0..n} a(p^i) b(p^(n-i)), to the common truncation."""
    if a.truncation != b.truncation:
        raise ValueError(f"truncation mismatch: {a.truncation} vs {b.truncation}")
    vals = tuple(
        sum((a.value(i) * b.value(n - i) for i in range(n + 1)), Fraction(0))
        for n in range(a.truncation + 1)
    )
    return LocalMF(vals, f"{a.label}*{b.label}")


def dirichlet_fold(f: LocalMF, m: int) -> LocalMF:
    """f convolved with itself to m factors (m >= 1), by m - 1 plain Cauchy
    products: the reconvolution behind ``root_verify`` and ``iso mf-root
    --verify``, independent of the root machinery."""
    if m < 1:
        raise ValueError("fold count m must be >= 1")
    acc = f
    for _ in range(m - 1):
        acc = dirichlet_convolve_local(acc, f)
    return acc


def recover_core(f: LocalMF) -> tuple[Fraction, ...]:
    """Core coefficients (t1, ..., tN) whose Fibonacci-side values match f.

    Unwinds v_n = sum_{i=1..n} t_i v_{n-i}, so t_n = v_n - sum_{i<n} t_i v_{n-i}.
    Always solvable because v0 = 1; the core is exact and unique.
    """
    ts: list[Fraction] = []
    for n in range(1, f.truncation + 1):
        t = f.value(n)
        for i in range(1, n):
            t -= ts[i - 1] * f.value(n - i)
        ts.append(t)
    return tuple(ts)


def local_power(f: LocalMF, q: RationalLike) -> LocalMF:
    """The q-th Dirichlet power of f, by the root-row recurrence.

    With the core (t1, ..., tN) of f recovered, row n of the root matrix
    gives n g_n = sum_{j=1..n} (j q + n - j) t_j g_{n-j} from g_0 = 1, the
    value of the degree-n q-th root polynomial at the core.  That is O(N^2)
    exact steps, with the zero core coefficients skipped.  q = 1 reproduces
    f, q = -1 its Dirichlet inverse, q = 1/m an m-th root.
    """
    q = Fraction(q)
    N = f.truncation
    core = [(j, t) for j, t in enumerate(recover_core(f), start=1) if t]
    vals = [Fraction(1)]
    for n in range(1, N + 1):
        acc = Fraction(0)
        for j, t in core:
            if j > n:
                break
            acc += (j * q + n - j) * t * vals[n - j]
        vals.append(acc / n)
    return LocalMF(tuple(vals), f"{f.label}^{q}")


def _phi_values(p: int, N: int) -> tuple[Fraction, ...]:
    # phi(p^n) = p^n - p^(n-1) for n >= 1
    return (Fraction(1),) + tuple(Fraction(p**n - p ** (n - 1)) for n in range(1, N + 1))


def _sigma_values(p: int, N: int) -> tuple[Fraction, ...]:
    # sigma(p^n) = 1 + p + ... + p^n, as a running sum of the powers
    vals = []
    power = total = 1
    for _ in range(N + 1):
        vals.append(Fraction(total))
        power *= p
        total += power
    return tuple(vals)


KNOWN_FUNCTIONS = ("zeta", "epsilon", "mobius", "phi", "sigma", "tau", "id")


def known_function(name: str, p: int, N: int) -> LocalMF:
    """Classical fixtures at prime p, truncated at p^N.

    zeta (all ones), epsilon (Dirichlet unit), mobius, phi, sigma, tau
    (divisor count, n+1 at p^n), and id (p^n).  p enters only where the
    values depend on it, but is validated everywhere for uniformity.
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be an integer >= 2, got {p!r}")
    if N < 0:
        raise ValueError("truncation N must be >= 0")
    if name == "zeta":
        vals: tuple[Fraction, ...] = (Fraction(1),) * (N + 1)
    elif name == "epsilon":
        vals = (Fraction(1),) + (Fraction(0),) * N
    elif name == "mobius":
        vals = ((Fraction(1),) + (Fraction(-1),) + (Fraction(0),) * (N - 1)) if N >= 1 else (Fraction(1),)
    elif name == "phi":
        vals = _phi_values(p, N)
    elif name == "sigma":
        vals = _sigma_values(p, N)
    elif name == "tau":
        vals = tuple(Fraction(n + 1) for n in range(N + 1))
    elif name == "id":
        vals = tuple(Fraction(p**n) for n in range(N + 1))
    else:
        raise ValueError(f"unknown function {name!r}; pick one of {', '.join(KNOWN_FUNCTIONS)}")
    return LocalMF(vals, name)


def root_verify(f: LocalMF, m: int) -> bool:
    """Convolve the m-th root of f with itself m times and compare to f.

    The reconvolution is done with the plain Cauchy product
    (``dirichlet_fold``), independently of the recurrence that produced the
    root.
    """
    if m < 1:
        raise ValueError("root index m must be >= 1")
    return dirichlet_fold(local_power(f, Fraction(1, m)), m) == f
