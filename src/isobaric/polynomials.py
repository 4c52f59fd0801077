"""Sparse exact polynomials on the isobaric grading, and the classical families.

An isobaric polynomial of degree n in t1..tk is a rational linear combination
of monomials t^alpha with sum(j * alpha_j) = n.  The two classical columns are
the generalized Fibonacci polynomials (all weights 1; complete homogeneous
symmetric functions of the core roots) and the generalized Lucas polynomials
(weight j at part j; power sums).  Both are specializations of one weighted
family computed here from the closed partition sum and, independently, from
the k-term recursion.

All arithmetic is exact: coefficients are fractions.Fraction throughout and
no floating point enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import add
from typing import Callable, Iterable, Mapping, Sequence, Union

from .partitions import ExponentVector, exponent_vectors

__all__ = [
    "WeightVector",
    "IsobaricPoly",
    "wip_closed",
    "wip_recursive",
    "gfp",
    "glp",
    "PolySequence",
    "gfp_sequence",
    "glp_sequence",
    "wip_sequence",
    "convolve",
    "convolve_sequences",
]

RationalLike = Union[Fraction, int, str]


class WeightVector:
    """A weight sequence omega(1), omega(2), ... of exact rationals.

    Weights are read through ``__call__`` with 1-based indices.  Finite value
    lists are extended by repeating the final entry, matching the command
    line syntax ``--weights 1,1,2``.
    """

    __slots__ = ("_fn", "label")

    def __init__(self, fn: Callable[[int], Fraction], label: str = "custom"):
        self._fn = fn
        self.label = label

    def __call__(self, j: int) -> Fraction:
        if j < 1:
            raise ValueError("weight indices start at 1")
        return Fraction(self._fn(j))

    def __repr__(self) -> str:
        return f"WeightVector({self.label})"

    @classmethod
    def ones(cls) -> "WeightVector":
        """All weights 1: the Fibonacci side of the family."""
        return cls(lambda j: Fraction(1), "ones")

    @classmethod
    def naturals(cls) -> "WeightVector":
        """omega(j) = j: the Lucas side of the family (CLI name "id")."""
        return cls(lambda j: Fraction(j), "id")

    @classmethod
    def from_values(cls, values: Iterable[RationalLike], label: str | None = None) -> "WeightVector":
        vals = tuple(Fraction(v) for v in values)
        if not vals:
            raise ValueError("weight list must be nonempty")

        def fn(j: int) -> Fraction:
            return vals[j - 1] if j <= len(vals) else vals[-1]

        return cls(fn, label if label is not None else ",".join(str(v) for v in vals))


TermsInput = Union[
    Mapping[ExponentVector, RationalLike],
    Iterable[tuple[Union[ExponentVector, Sequence[int]], RationalLike]],
]


class IsobaricPoly:
    """One isobaric polynomial: fixed degree ``n``, variables t1..tk.

    Only nonzero coefficients are stored, keyed by exponent vector.  Every
    stored key must have the polynomial's k and degree; mixing degrees or
    variable counts in arithmetic raises rather than coercing.  A zero
    polynomial may carry any integer degree tag, including a negative one
    (the companion window's seed rows need that).

    The public constructor validates every term.  The arithmetic (``+``,
    ``-``, ``scale``, ``times_part``, ``*``) does not: degrees and part
    counts simply add, so it builds its results through :meth:`_trusted`
    and drops the keys whose coefficients cancel, which keeps equality and
    hashing the same as for a validated rebuild.
    """

    __slots__ = ("n", "k", "_terms")

    def __init__(self, n: int, k: int, terms: TermsInput = ()) -> None:
        if k < 1:
            raise ValueError("variable count k must be >= 1")
        merged: dict[ExponentVector, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for alpha, c in items:
            if not isinstance(alpha, ExponentVector):
                alpha = ExponentVector(tuple(alpha))
            c = Fraction(c)
            if c == 0:
                continue
            if alpha.k != k:
                raise ValueError(f"term {alpha!r} has {alpha.k} slots, polynomial has k={k}")
            if alpha.degree != n:
                raise ValueError(f"term {alpha!r} has degree {alpha.degree}, polynomial has degree {n}")
            merged[alpha] = merged.get(alpha, Fraction(0)) + c
        self.n = n
        self.k = k
        self._terms = {a: c for a, c in merged.items() if c != 0}

    @classmethod
    def _trusted(cls, n: int, k: int, terms: dict[ExponentVector, Fraction]) -> "IsobaricPoly":
        """Adopt ``terms`` without checks.  The caller guarantees that every
        key is an ``ExponentVector`` of this (n, k) and every value a nonzero
        Fraction: the closed-formula kernels, whose keys are enumerated, and
        the arithmetic below, whose keys are sums of valid keys."""
        self = cls.__new__(cls)
        self.n = n
        self.k = k
        self._terms = terms
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int, k: int) -> "IsobaricPoly":
        return cls(n, k)

    @classmethod
    def constant(cls, value: RationalLike, k: int) -> "IsobaricPoly":
        """Degree-0 polynomial with the given constant term."""
        return cls(0, k, [(ExponentVector((0,) * k), Fraction(value))])

    @classmethod
    def variable(cls, j: int, k: int) -> "IsobaricPoly":
        """The single variable t_j, a degree-j polynomial."""
        if not 1 <= j <= k:
            raise ValueError(f"variable index {j} outside 1..{k}")
        mult = tuple(1 if i == j else 0 for i in range(1, k + 1))
        return cls(j, k, [(ExponentVector(mult), 1)])

    # -- inspection --------------------------------------------------------

    def coefficient(self, alpha: Union[ExponentVector, Sequence[int]]) -> Fraction:
        if not isinstance(alpha, ExponentVector):
            alpha = ExponentVector(tuple(alpha))
        return self._terms.get(alpha, Fraction(0))

    def sorted_terms(self) -> list[tuple[ExponentVector, Fraction]]:
        """Terms in descending lexicographic order of the exponent vector."""
        return sorted(self._terms.items(), key=lambda it: it[0].multiplicities, reverse=True)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IsobaricPoly):
            return NotImplemented
        return self.n == other.n and self.k == other.k and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.n, self.k, frozenset(self._terms.items())))

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "IsobaricPoly") -> None:
        if self.k != other.k:
            raise ValueError(f"variable count mismatch: k={self.k} vs k={other.k}")
        if self.n != other.n:
            raise ValueError(f"degree mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "IsobaricPoly") -> "IsobaricPoly":
        if not isinstance(other, IsobaricPoly):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self._terms)
        for alpha, c in other._terms.items():
            s = terms.get(alpha)
            if s is None:
                terms[alpha] = c
            else:
                s += c
                if s:
                    terms[alpha] = s
                else:
                    del terms[alpha]
        return IsobaricPoly._trusted(self.n, self.k, terms)

    def __neg__(self) -> "IsobaricPoly":
        return self.scale(-1)

    def __sub__(self, other: "IsobaricPoly") -> "IsobaricPoly":
        if not isinstance(other, IsobaricPoly):
            return NotImplemented
        return self + (-other)

    def scale(self, c: RationalLike) -> "IsobaricPoly":
        c = Fraction(c)
        if c == 1:
            return self
        if c == -1:
            terms = {a: -v for a, v in self._terms.items()}
        elif c:
            terms = {a: v * c for a, v in self._terms.items()}
        else:
            terms = {}
        return IsobaricPoly._trusted(self.n, self.k, terms)

    def __rmul__(self, c: Union[int, Fraction]) -> "IsobaricPoly":
        """``c * p`` for an int or Fraction scalar, so polynomials and
        Fractions serve alike as matrix and orbit entries."""
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        return self.scale(c)

    def times_part(self, j: int) -> "IsobaricPoly":
        """Multiply by t_j, raising the degree by j.

        Beyond the part bound t_j is identically zero, so j > k yields the
        zero polynomial of degree n + j.
        """
        if j < 1:
            raise ValueError("part indices start at 1")
        n = self.n + j
        if j > self.k:
            return IsobaricPoly._trusted(n, self.k, {})
        i = j - 1
        trusted = ExponentVector._trusted
        terms = {}
        for alpha, c in self._terms.items():
            m = alpha.multiplicities
            terms[trusted(m[:i] + (m[i] + 1,) + m[j:], n, alpha.norm + 1)] = c
        return IsobaricPoly._trusted(n, self.k, terms)

    def __mul__(self, other: Union["IsobaricPoly", int, Fraction]) -> "IsobaricPoly":
        if not isinstance(other, IsobaricPoly):
            return self.__rmul__(other)
        if self.k != other.k:
            raise ValueError(f"variable count mismatch: k={self.k} vs k={other.k}")
        right = [(b.multiplicities, cb) for b, cb in other._terms.items()]
        acc: dict[tuple[int, ...], Fraction] = {}
        for a, ca in self._terms.items():
            ma = a.multiplicities
            for mb, cb in right:
                key = tuple(map(add, ma, mb))
                s = acc.get(key)
                acc[key] = ca * cb if s is None else s + ca * cb
        n = self.n + other.n
        trusted = ExponentVector._trusted
        terms = {trusted(key, n, sum(key)): c for key, c in acc.items() if c}
        return IsobaricPoly._trusted(n, self.k, terms)

    def evaluate(self, values: Sequence[RationalLike]) -> Fraction:
        """Substitute exact rationals for t1..tk.

        One integer sum: with t_j = A_j / D over the common denominator D of
        the values and L the common denominator of the coefficients, the
        term c * t^alpha contributes (c * L) * A^alpha * D^(top - |alpha|),
        where top is the largest |alpha|, and the result is that sum over
        L * D^top.  Powers of each A_j and of D are computed once each.
        """
        if len(values) < self.k:
            raise ValueError(f"need {self.k} values, got {len(values)}")
        if not self._terms:
            return Fraction(0)
        d, nums = _integer_weights([Fraction(v) for v in values[: self.k]])
        powers = [_Powers(a) for a in nums]
        d_powers = _Powers(d)
        denom = lcm(*(c.denominator for c in self._terms.values()))
        top = max(alpha.norm for alpha in self._terms)
        total = 0
        for alpha, c in self._terms.items():
            prod = c.numerator * (denom // c.denominator)
            for power, a in zip(powers, alpha.multiplicities):
                if a:
                    prod *= power[a]
            if prod:
                total += prod * d_powers[top - alpha.norm]
        return Fraction(total, denom * d_powers[top])

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for idx, (alpha, c) in enumerate(self.sorted_terms()):
            factors = []
            for j, a in enumerate(alpha.multiplicities, start=1):
                if a == 1:
                    factors.append(f"t{j}")
                elif a > 1:
                    factors.append(f"t{j}^{a}")
            mono = " ".join(factors)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag} {mono}"
            if idx == 0:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"IsobaricPoly(n={self.n}, k={self.k}, {str(self)})"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "terms": [
                {"alpha": list(alpha.multiplicities), "coeff": str(c)}
                for alpha, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "IsobaricPoly":
        terms = [(tuple(t["alpha"]), Fraction(t["coeff"])) for t in data["terms"]]
        return cls(int(data["n"]), int(data["k"]), terms)


# -- the weighted family ---------------------------------------------------


def _integer_weights(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """Weights (or any values) as (D, [W_1, W_2, ...]) with value j = W_j / D,
    where D is the least common denominator."""
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


class _Powers(dict):
    """e -> base**e, each computed on first use."""

    __slots__ = ("base",)

    def __init__(self, base: int) -> None:
        super().__init__()
        self.base = base

    def __missing__(self, e: int) -> int:
        self[e] = value = self.base**e
        return value


class _Factorials(dict):
    """i -> i!, each computed on first use: a per-call table holding only the
    values the call needs (one entry, not n, when a single part size fills
    degree n)."""

    def __missing__(self, i: int) -> int:
        self[i] = value = factorial(i)
        return value


def wip_closed(
    omega: Callable[[int], Fraction],
    k: int,
    n: int,
    degree_zero: RationalLike | None = None,
) -> IsobaricPoly:
    """Weighted isobaric polynomial of degree n in t1..tk, by the closed sum.

    For n >= 1 the coefficient of t^alpha is

        multinomial(alpha) * (sum_j alpha_j * omega(j)) / |alpha|.

    The weights omega(1..min(n, k)) are read once, as integers W_j over a
    common denominator D, and the multinomials come from one factorial
    table filled on demand, so each coefficient is the single fraction
    multinomial(alpha) * (sum_j alpha_j * W_j) / (|alpha| * D).

    Degree 0 is a convention, not a consequence of the sum: the default
    constant is omega(k), which is what the recursion seeds need (1 on the
    all-ones side, k on the natural-weights side), while convolution
    identities want the constant 1.  Pass ``degree_zero`` to override.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if k < 1:
        raise ValueError("part bound k must be >= 1")
    if n == 0:
        value = Fraction(degree_zero) if degree_zero is not None else Fraction(omega(k))
        return IsobaricPoly.constant(value, k)
    scale, weights = _integer_weights([Fraction(omega(j)) for j in range(1, min(n, k) + 1)])
    fact = _Factorials()
    terms = {}
    for alpha in exponent_vectors(n, k):
        parts = alpha.norm
        multinomial = fact[parts]
        dot = 0
        for a, w in zip(alpha.multiplicities, weights):
            if a:
                multinomial //= fact[a]
                dot += a * w
        if dot:
            terms[alpha] = Fraction(multinomial * dot, parts * scale)
    return IsobaricPoly._trusted(n, k, terms)


def wip_recursive(
    omega: Callable[[int], Fraction],
    k: int,
    n: int,
    degree_zero: RationalLike | None = None,
) -> IsobaricPoly:
    """Same polynomial as :func:`wip_closed`, by the k-term recursion.

    Degrees 0..k-1 are seeded from the closed sum; from degree k on,
    P(n) = sum_{j=1..k} t_j * P(n-j).  Kept separate so the two routes can
    check each other.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    seq = [wip_closed(omega, k, m, degree_zero) for m in range(min(n + 1, k))]
    for m in range(k, n + 1):
        acc = IsobaricPoly.zero(m, k)
        for j in range(1, k + 1):
            acc = acc + seq[m - j].times_part(j)
        seq.append(acc)
    return seq[n]


def gfp(k: int, n: int) -> IsobaricPoly:
    """Generalized Fibonacci polynomial: all weights 1, degree-0 constant 1."""
    return wip_closed(WeightVector.ones(), k, n, degree_zero=1)


def glp(k: int, n: int) -> IsobaricPoly:
    """Generalized Lucas polynomial: weight j at part j, degree-0 constant k."""
    return wip_closed(WeightVector.naturals(), k, n, degree_zero=k)


class PolySequence:
    """Lazy memoized map from degree to polynomial, one per graded family."""

    __slots__ = ("_fn", "_cache")

    def __init__(self, fn: Callable[[int], IsobaricPoly]):
        self._fn = fn
        self._cache: dict[int, IsobaricPoly] = {}

    def __call__(self, n: int) -> IsobaricPoly:
        if n not in self._cache:
            self._cache[n] = self._fn(n)
        return self._cache[n]


def gfp_sequence(k: int) -> PolySequence:
    return PolySequence(lambda n: gfp(k, n))


def glp_sequence(k: int) -> PolySequence:
    return PolySequence(lambda n: glp(k, n))


def wip_sequence(
    omega: Callable[[int], Fraction], k: int, degree_zero: RationalLike | None = None
) -> PolySequence:
    return PolySequence(lambda n: wip_closed(omega, k, n, degree_zero))


def convolve(a: PolySequence, b: PolySequence, n: int) -> IsobaricPoly:
    """Degree-n term of the convolution product of two graded sequences.

    (a * b)(n) = sum_{j=0..n} a(j) b(n-j); exponent vectors add, so the
    result is again isobaric of degree n.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    k = a(0).k
    if b(0).k != k:
        raise ValueError(f"variable count mismatch: k={k} vs k={b(0).k}")
    acc = IsobaricPoly.zero(n, k)
    for j in range(n + 1):
        acc = acc + a(j) * b(n - j)
    return acc


def convolve_sequences(a: PolySequence, b: PolySequence) -> PolySequence:
    return PolySequence(lambda n: convolve(a, b, n))
