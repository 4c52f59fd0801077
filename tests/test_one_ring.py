"""The orbit, Newton and Hessenberg code over one entry ring.

A numeric core or matrix computes with Fractions and a generic one with
isobaric polynomials, through the same code.  Numeric results must be the
generic ones evaluated at the core; the Newton bridge is checked against the
closed Lucas polynomials evaluated there, the route it used to take; and a
sha256 pins the printed bytes of every orbit, determinant and Hessenberg
output on a fixed grid.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from isobaric.companion import (
    CorePolynomial,
    companion_window,
    dense_det,
    different_matrix,
    different_window,
    glp_from_gfp,
    schur_hook,
)
from isobaric.hessenberg import Cell, HessenbergMatrix, build_minus, build_plus, hessenberg_value
from isobaric.polynomials import IsobaricPoly, WeightVector, gfp, glp

VALUE_POOL = [Fraction(x) for x in ("0", "1", "-1", "2", "-3", "1/2", "-2/3", "7/4", "5/3")]


def _random_core(rng: random.Random, k: int) -> tuple[Fraction, ...]:
    return tuple(rng.choice(VALUE_POOL) for _ in range(k))


# -- numeric rows are generic rows at the core --------------------------------


def test_numeric_orbit_rows_are_generic_rows_evaluated():
    rng = random.Random(20140201)
    for _ in range(40):
        k = rng.randint(1, 5)
        ts = _random_core(rng, k)
        hi = rng.randint(0, 12)
        for build, lo in ((companion_window, 1 - k), (different_window, 0)):
            generic = build(CorePolynomial.generic(k), lo, hi)
            numeric = build(CorePolynomial.numeric(ts), lo, hi)
            for n in range(lo, hi + 1):
                assert numeric.row(n) == tuple(e.evaluate(ts) for e in generic.row(n))
                assert all(type(e) is Fraction for e in numeric.row(n))


def test_numeric_newton_bridge_matches_closed_lucas_values():
    rng = random.Random(20140202)
    for _ in range(30):
        k = rng.randint(1, 5)
        ts = _random_core(rng, k)
        N = rng.randint(0, 12)
        got = glp_from_gfp(CorePolynomial.numeric(ts), N)
        assert got == [glp(k, n).evaluate(ts) for n in range(1, N + 1)]
        assert all(type(g) is Fraction for g in got)


def test_numeric_dense_det_and_hooks_are_generic_ones_evaluated():
    rng = random.Random(20140203)
    for _ in range(12):
        k = rng.randint(1, 4)
        ts = _random_core(rng, k)
        core, generic = CorePolynomial.numeric(ts), CorePolynomial.generic(k)
        assert dense_det(different_matrix(core)) == dense_det(different_matrix(generic)).evaluate(ts)
        n = rng.randint(0, 8)
        for r in range(k):
            assert schur_hook(core, n, r) == schur_hook(generic, n, r).evaluate(ts)


# -- the entry ring ----------------------------------------------------------


def test_core_constant_and_times_t():
    num, gen = CorePolynomial.numeric((2, Fraction(-1, 3))), CorePolynomial.generic(2)
    assert num.constant(5, 0) == Fraction(5) and type(num.constant(5, 0)) is Fraction
    assert num.constant(0, 3) == 0
    assert gen.constant(5, 0) == IsobaricPoly.constant(5, 2)
    assert gen.constant(0, -1) == IsobaricPoly.zero(-1, 2)
    with pytest.raises(ValueError):
        gen.constant(1, 2)
    assert num.times_t(Fraction(3), 2) == -1
    with pytest.raises(ValueError):
        num.times_t(Fraction(3), 0)
    x = IsobaricPoly.variable(1, 2)
    assert gen.times_t(x, 2) == x.times_part(2)


def test_scalar_products_agree_with_scale():
    p = glp(3, 4) + gfp(3, 4)
    for c in (0, 1, -1, 3, Fraction(-2, 5)):
        assert p * c == p.scale(c)
        assert c * p == p.scale(c)
    assert -p == p.scale(-1)
    for bad in (1.5, "2", None, [1]):
        with pytest.raises(TypeError):
            p * bad
        with pytest.raises(TypeError):
            bad * p


# -- frozen bytes ----------------------------------------------------------

PIN_CORES = (
    "1,1",
    "2,-1,3",
    "1/2",
    "-1",
    "3/2,-2/3,5,7/4",
    "1,1,1,1,1",
    "0,0,1",
    "1,0",
    "0,0,0",
)
PIN_WEIGHTS = ("1", "id", "3,1,4,1,5", "2,-1,0,7", "1/2,-2/3,5,0")

# sha256 of the grid below, computed with the numeric/symbolic forks and the
# closed-polynomial Newton bridge that the one-ring code replaced.
PINNED_SHA256 = "4d10e2094220442dd2db082e0b15375b2611a631d2ad01dabca3028529e4a165"


def _pin_core(core: CorePolynomial, lo: int):
    k = core.k
    w = companion_window(core, lo, 12)
    yield repr(w)
    for n in range(lo, 13):
        yield w.row(n)
    for m in range(lo + k - 1, 13):
        yield w.block(m)
        yield w.block_trace(m)
    dlo = 0 if lo == 1 - k else lo
    dw = different_window(core, dlo, 12)
    for n in range(dlo, 13):
        yield dw.row(n)
    mat = different_matrix(core)
    yield mat
    yield dense_det(mat)
    for n in range(0, 11):
        for r in range(k):
            yield schur_hook(core, n, r)
    yield glp_from_gfp(core, 14)


def _pinned_grid():
    for k in range(1, 6):
        yield from _pin_core(CorePolynomial.generic(k), 1 - k)
    for text in PIN_CORES:
        core = CorePolynomial.numeric([Fraction(x) for x in text.split(",")])
        yield from _pin_core(core, 1 - core.k if core.t(core.k) == 0 else -10)
    for text in PIN_WEIGHTS:
        w = WeightVector.naturals() if text == "id" else WeightVector.from_values(Fraction(x) for x in text.split(","))
        for k in range(1, 5):
            for n in range(1, 10):
                yield hessenberg_value(build_plus(w, k, n))
                yield hessenberg_value(build_minus(w, k, n))
    rng = random.Random(20140204)
    for case in range(78):
        n = case % 13 + 1
        rows = [[Cell.make(rng.choice(VALUE_POOL)) for _ in range(i + 1)] for i in range(n)]
        yield hessenberg_value(HessenbergMatrix(n, 1, 1 if case % 2 else -1, rows))


def test_one_ring_grid_bytes_pinned():
    h = hashlib.sha256()
    for item in _pinned_grid():
        h.update(repr(item).encode() + b"\n")
    assert h.hexdigest() == PINNED_SHA256
