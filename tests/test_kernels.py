"""The closed-formula kernels against their oracles, on seeded random inputs.

``wip_closed`` is checked against ``multinomial``/``weight_dot``,
``gfp_root_closed`` against ``stirling_B`` over the product of factorials,
and ``wip_root``/``wip_root_coeff`` against iterated total derivatives, each
over brute-force exponent vectors.  A sha256 over a fixed grid pins the
printed bytes of every kernel.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import factorial

from isobaric.partitions import ExponentVector, exponent_vectors, multinomial, weight_dot
from isobaric.polynomials import IsobaricPoly, WeightVector, gfp, glp, wip_closed
from isobaric.roots import gfp_root_closed, stirling_B, wip_root, wip_root_coeff

from helpers import brute_force_vectors, wip_root_coeff_iterated

WEIGHT_POOL = [Fraction(x) for x in ("0", "1", "-1", "2", "-3", "5", "1/2", "-2/3", "7/4", "-5/3")]
Q_POOL = [Fraction(x) for x in ("0", "-1", "-2", "-3", "1", "2", "5", "1/2", "-5/2", "7/3", "-2/3")]


def _random_weights(rng: random.Random) -> WeightVector:
    return WeightVector.from_values(rng.choice(WEIGHT_POOL) for _ in range(rng.randint(1, 5)))


def _random_q(rng: random.Random) -> Fraction:
    if rng.random() < 0.6:
        return rng.choice(Q_POOL)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def _oracle_poly(n: int, k: int, coeff) -> IsobaricPoly:
    """Terms in descending order, exact zeros dropped, from brute force."""
    terms = {}
    for key in sorted(brute_force_vectors(n, k), reverse=True):
        c = coeff(ExponentVector(key))
        if c != 0:
            terms[key] = c
    return IsobaricPoly(n, k, terms)


def _same(got: IsobaricPoly, want: IsobaricPoly) -> None:
    assert got == want
    assert got.to_json_dict() == want.to_json_dict() and str(got) == str(want)


def test_wip_closed_random_against_multinomial_oracle():
    rng = random.Random(20140101)
    for _ in range(100):
        w, k, n = _random_weights(rng), rng.randint(1, 7), rng.randint(1, 10)
        want = _oracle_poly(n, k, lambda a: multinomial(a) * weight_dot(a, w) / a.norm)
        _same(wip_closed(w, k, n), want)


def test_gfp_root_closed_random_against_stirling_oracle():
    rng = random.Random(20140102)
    for _ in range(100):
        q, k, n = _random_q(rng), rng.randint(1, 7), rng.randint(1, 10)

        def coeff(a):
            denom = 1
            for m in a.multiplicities:
                denom *= factorial(m)
            return stirling_B(a.norm - 1, q) / denom

        _same(gfp_root_closed(q, k, n), _oracle_poly(n, k, coeff))


def test_wip_root_random_against_iterated_derivatives():
    rng = random.Random(20140103)
    for _ in range(100):
        w, q, k, n = _random_weights(rng), _random_q(rng), rng.randint(1, 6), rng.randint(1, 7)
        want = _oracle_poly(n, k, lambda a: wip_root_coeff_iterated(w, a, q))
        _same(wip_root(w, k, n, q), want)
        alpha = rng.choice(exponent_vectors(n, k))
        assert wip_root_coeff(w, alpha, q) == wip_root_coeff_iterated(w, alpha, q)


def test_wip_root_coeff_reads_only_present_weights():
    def omega(j: int) -> Fraction:
        if j == 2:
            raise AssertionError("weight 2 read for a vector without part 2")
        return Fraction(j, 3)

    alpha, q = ExponentVector((2, 0, 1)), Fraction(1, 2)
    assert wip_root_coeff(omega, alpha, q) == wip_root_coeff_iterated(omega, alpha, q)


# -- frozen bytes ----------------------------------------------------------

PIN_WEIGHTS = ("3,1,4,1,5", "2,-1,0,7", "1/2,-2/3,5,0", "0")
PIN_QS = ("1/2", "-1", "2/3", "3", "-5/2", "0", "-3", "1", "2")

# sha256 of the grid below, computed with the per-alpha Fraction arithmetic
# these kernels replaced (multinomial/weight_dot, stirling_B per alpha,
# iterated total derivatives).
PINNED_SHA256 = "d5bebe919785ee5c37244075ccaf90f05444069d63abc8a498b59f98b2f223ba"


def _pinned_grid():
    weights = [WeightVector.ones(), WeightVector.naturals()]
    weights += [WeightVector.from_values(Fraction(x) for x in v.split(",")) for v in PIN_WEIGHTS]
    for n in range(0, 9):
        for k in range(1, 7):
            yield repr(exponent_vectors(n, k))
            yield gfp(k, n)
            yield glp(k, n)
            for w in weights:
                yield wip_closed(w, k, n)
            for q in PIN_QS:
                yield gfp_root_closed(Fraction(q), k, n)
                for w in weights:
                    yield wip_root(w, k, n, Fraction(q))


def test_closed_grid_bytes_pinned():
    h = hashlib.sha256()
    for item in _pinned_grid():
        if isinstance(item, IsobaricPoly):
            item = json.dumps(item.to_json_dict()) + "\n" + str(item)
        h.update(item.encode() + b"\n")
    assert h.hexdigest() == PINNED_SHA256
