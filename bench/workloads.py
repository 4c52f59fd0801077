"""Seeded job streams for the four workloads, each job with its own check.

A stream yields jobs in rounds.  Every round holds one job per stratum (a
job family at a size band), in a seeded shuffled order.  The size
parameters that set a job's cost are dealt from a seeded shuffled deck of
every combination in the band, and the others (weights, q, points, cores)
are drawn fresh.  This keeps the job mix of a run the same from seed to
seed, so runs on different seeds measure the same work, while the inputs
still differ and share what the parameter ranges imply; that sharing is
reported next to the timings.

Job calls go through module attributes (``polynomials.gfp``, not a name
imported here) so that the traced run sees every call into the library.
Checks run outside the timed interval and compare against an independent
route: the numeric recurrences and eliminations in ``oracles``, or another
library route (closed formula against recursion, matrix and orbit).
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import ceil
from random import Random
from typing import Any, Callable, Iterator, Optional, Sequence

import isobaric.cli as cli
import isobaric.companion as companion
import isobaric.hessenberg as hessenberg
import isobaric.multiplicative as multiplicative
import isobaric.polynomials as polynomials
import isobaric.roots as roots
import isobaric.verify as verify

import oracles

WORKLOADS = ("closed", "routes", "dirichlet", "cli")

WEIGHT_LABELS = ("ones", "id", "3,1,4,1,5", "2,-1,0,7")
QS = (Fraction(1, 2), Fraction(1, 3), Fraction(-5, 2), Fraction(7, 3))
DIRICHLET_QS = (Fraction(1, 2), Fraction(1, 3), Fraction(-1), Fraction(7, 3))
PRIMES = (2, 3, 5, 7)


def weight_vector(label: str) -> polynomials.WeightVector:
    if label == "ones":
        return polynomials.WeightVector.ones()
    if label == "id":
        return polynomials.WeightVector.naturals()
    return polynomials.WeightVector.from_values(Fraction(v) for v in label.split(","))


def weight_values(label: str, k: int) -> list[Fraction]:
    w = weight_vector(label)
    return [w(j) for j in range(1, k + 1)]


class Job:
    """One closed-loop request: ``call()`` is timed, ``check(out)`` is not.

    ``check`` returns None when the output is right and a reason otherwise.
    ``expect`` names the exception the call must raise, for inputs where the
    library is meant to refuse.  ``enum`` lists the (n, k) partition
    enumerations the job implies, for the sharing statistics.
    """

    __slots__ = ("key", "call", "check", "expect", "enum", "round_end")

    def __init__(
        self,
        key: tuple,
        call: Callable[[], Any],
        check: Callable[[Any], Optional[str]] = lambda out: None,
        expect: Optional[type] = None,
        enum: tuple[tuple[int, int], ...] = (),
    ) -> None:
        self.key = key
        self.call = call
        self.check = check
        self.expect = expect
        self.enum = enum
        self.round_end = False


# Each job family's size range is cut into this many bands, and every round
# draws one job from each band of each family.  The CLI's inputs are all
# small, so its rounds are not banded.
BANDS = {"closed": 3, "routes": 3, "dirichlet": 3, "cli": 1}


class Draw:
    """Seeded parameter source.  ``tiny`` clamps every integer range to at
    most 5, which the self-test uses to run each job family in milliseconds.
    ``band`` is the size band of the job being drawn; ``grid`` draws from it."""

    def __init__(self, rng: Random, tiny: bool = False) -> None:
        self.rng = rng
        self.tiny = tiny
        self.band = 0
        self.bands = 1
        self._decks: dict[tuple[str, int], list[tuple]] = {}

    def _clamp(self, lo: int, hi: int) -> tuple[int, int]:
        if self.tiny:
            hi = min(hi, 5)
            lo = min(lo, hi)
        return lo, hi

    def int(self, lo: int, hi: int) -> int:
        return self.rng.randint(*self._clamp(lo, hi))

    def grid(self, family: str, lo: int, hi: int, inner: Optional[Callable[[int], Sequence]] = None) -> tuple:
        """The parameters that set one job's cost: (n,) with n in the current
        band of [lo, hi], or (n, x) with x in inner(n).  Each family
        and band deals out all its combinations in a seeded shuffled order
        before repeating one, so that every run covers its bands evenly."""
        lo, hi = self._clamp(lo, hi)
        width = hi - lo + 1
        a = lo + self.band * width // self.bands
        b = lo + (self.band + 1) * width // self.bands - 1
        if a > b:
            a, b = lo, hi
        deck = self._decks.setdefault((family, self.band), [])
        if not deck:
            ns = range(a, b + 1)
            deck.extend([(n, k) for n in ns for k in inner(n)] if inner else [(n,) for n in ns])
            self.rng.shuffle(deck)
        return deck.pop()

    def choice(self, seq):
        return self.rng.choice(seq)

    def rational(self, nonzero: bool = False) -> Fraction:
        while True:
            v = Fraction(self.rng.randint(-5, 5), self.rng.randint(1, 3))
            if v or not nonzero:
                return v

    def point(self, k: int) -> list[Fraction]:
        """Nonzero t values, so that a wrong coefficient on any monomial
        changes the polynomial's value there."""
        return [self.rational(nonzero=True) for _ in range(k)]


def stream(workload: str, draw: Draw, in_process_cli: bool = False) -> Iterator[Job]:
    """Endless job stream of one workload, one stratified round (every
    stratum at every size band, shuffled) at a time."""
    strata = STRATA[workload]
    draw.bands = BANDS[workload]
    while True:
        order = [(make, band) for make in strata for band in range(draw.bands)]
        draw.rng.shuffle(order)
        for i, (make, band) in enumerate(order):
            draw.band = band
            job = make(draw, in_process_cli) if workload == "cli" else make(draw)
            job.round_end = i == len(order) - 1
            yield job


# -- shared checks -----------------------------------------------------------


def _poly_shape(out, n: int, k: int) -> Optional[str]:
    if not isinstance(out, polynomials.IsobaricPoly):
        return f"expected an IsobaricPoly, got {type(out).__name__}"
    if (out.n, out.k) != (n, k):
        return f"shape (n={out.n}, k={out.k}), expected (n={n}, k={k})"
    return None


def _poly_at_point(out, n: int, k: int, ts, expected: Fraction, full_support: bool) -> Optional[str]:
    """Shape, term count against p_k(n), and the value at ts."""
    bad = _poly_shape(out, n, k)
    if bad:
        return bad
    count = oracles.partition_count(n, k)
    if full_support and len(out) != count:
        return f"{len(out)} terms, p_k(n) = {count}"
    if len(out) > count:
        return f"{len(out)} terms exceed p_k(n) = {count}"
    got = out.evaluate(ts)
    if got != expected:
        return f"value {got} at t={[str(t) for t in ts]}, independent route gives {expected}"
    return None


def _equal(out, want, what: str) -> Optional[str]:
    return None if out == want else f"differs from {what}"


# -- closed: closed formulas at large degree ---------------------------------


def _closed_size(draw: Draw, family: str, lo: int = 10, hi: int = 24) -> tuple[int, int]:
    return draw.grid(family, lo, hi, lambda n: range(ceil(n / 3), n + 1))


def job_gfp(draw: Draw) -> Job:
    n, k = _closed_size(draw, "gfp")
    ts = draw.point(k)
    return Job(
        ("gfp", k, n),
        lambda: polynomials.gfp(k, n),
        lambda out: _poly_at_point(out, n, k, ts, oracles.fibonacci_series(ts, n)[n], True),
        enum=((n, k),),
    )


def job_glp(draw: Draw) -> Job:
    n, k = _closed_size(draw, "glp")
    ts = draw.point(k)
    return Job(
        ("glp", k, n),
        lambda: polynomials.glp(k, n),
        lambda out: _poly_at_point(out, n, k, ts, oracles.lucas_values(ts, n)[n], True),
        enum=((n, k),),
    )


def job_wip_closed(draw: Draw) -> Job:
    n, k = _closed_size(draw, "wip_closed")
    label = draw.choice(WEIGHT_LABELS)
    ts = draw.point(k)
    # Only the weights with a zero or negative entry can cancel a coefficient.
    full = label != "2,-1,0,7"
    return Job(
        ("wip_closed", label, k, n),
        lambda: polynomials.wip_closed(weight_vector(label), k, n),
        lambda out: _poly_at_point(
            out, n, k, ts, oracles.weighted_values(weight_values(label, k), ts, n)[n], full
        ),
        enum=((n, k),),
    )


def job_gfp_root_closed(draw: Draw) -> Job:
    n, k = _closed_size(draw, "gfp_root_closed")
    q = draw.choice(QS)
    ts = draw.point(k)
    return Job(
        ("gfp_root_closed", str(q), k, n),
        lambda: roots.gfp_root_closed(q, k, n),
        lambda out: _poly_at_point(
            out, n, k, ts, oracles.power_series_power(oracles.fibonacci_series(ts, n), q, n)[n], True
        ),
        enum=((n, k),),
    )


def job_wip_root(draw: Draw) -> Job:
    n, k = _closed_size(draw, "wip_root", 8, 15)
    label = draw.choice(WEIGHT_LABELS)
    q = draw.choice(QS)
    ts = draw.point(k)

    def check(out):
        series = [Fraction(1)] + oracles.weighted_values(weight_values(label, k), ts, n)[1:]
        return _poly_at_point(out, n, k, ts, oracles.power_series_power(series, q, n)[n], False)

    return Job(
        ("wip_root", label, str(q), k, n),
        lambda: roots.wip_root(weight_vector(label), k, n, q),
        check,
        enum=((n, k),),
    )


CLOSED = (job_gfp, job_glp, job_wip_closed, job_gfp_root_closed, job_wip_root)


# -- routes: the same families through recursion, matrices and orbits --------


def _routes_size(draw: Draw, family: str) -> tuple[int, int]:
    return draw.grid(family, 10, 22, lambda n: range(2, max(2, n // 3) + 1))


def job_wip_recursive(draw: Draw) -> Job:
    n, k = _routes_size(draw, "wip_recursive")
    label = draw.choice(WEIGHT_LABELS)
    return Job(
        ("wip_recursive", label, k, n),
        lambda: polynomials.wip_recursive(weight_vector(label), k, n),
        lambda out: _equal(out, polynomials.wip_closed(weight_vector(label), k, n), "the closed formula"),
        enum=((n, k),),
    )


def _job_hessenberg(draw: Draw, sign: str) -> Job:
    n, k = _routes_size(draw, f"hessenberg_{sign}")
    label = draw.choice(WEIGHT_LABELS)
    build = hessenberg.build_plus if sign == "plus" else hessenberg.build_minus
    return Job(
        ("hessenberg", sign, label, k, n),
        lambda: hessenberg.hessenberg_value(build(weight_vector(label), k, n)),
        lambda out: _equal(out, polynomials.wip_closed(weight_vector(label), k, n), "the closed formula"),
        enum=((n, k),),
    )


def job_hessenberg_plus(draw: Draw) -> Job:
    return _job_hessenberg(draw, "plus")


def job_hessenberg_minus(draw: Draw) -> Job:
    return _job_hessenberg(draw, "minus")


def job_root_matrix(draw: Draw) -> Job:
    n, k = _routes_size(draw, "gfp_root_matrix")
    q = draw.choice(QS)
    sign = draw.choice((1, -1))
    return Job(
        ("gfp_root_matrix", str(q), sign, k, n),
        lambda: hessenberg.hessenberg_value(roots.gfp_root_matrix(q, k, n, sign)),
        lambda out: _equal(out, roots.gfp_root_closed(q, k, n), "the closed root formula"),
        enum=((n, k),),
    )


def job_root_stirling(draw: Draw) -> Job:
    n, k = _routes_size(draw, "gfp_root_stirling_matrix")
    # One draw in five is an integer q in 0, -1, -2, where the B-ratio cells
    # are undefined and the library must refuse.
    q = draw.choice(QS + (Fraction(-draw.int(0, 2)),))
    degenerate = q.denominator == 1 and -(n - 2) <= q <= 0
    return Job(
        ("gfp_root_stirling_matrix", str(q), k, n),
        lambda: hessenberg.hessenberg_value(roots.gfp_root_stirling_matrix(q, k, n)),
        lambda out: _equal(out, roots.gfp_root_closed(q, k, n), "the closed root formula"),
        expect=roots.DegenerateQError if degenerate else None,
        enum=((n, k),),
    )


def _generic_window_check(out, k: int, n: int, lucas: bool) -> Optional[str]:
    if (out.n_lo, out.n_hi) != (0, n):
        return f"window rows {out.n_lo}..{out.n_hi}, expected 0..{n}"
    family = polynomials.glp if lucas else polynomials.gfp
    closed = {m: family(k, m) for m in range(n + 1)}
    for m in range(n + 1):
        if out.rightmost(m) != closed[m]:
            return f"rightmost entry of row {m} differs from the closed formula"
    if not lucas:
        for m in range(k - 1, n + 1):
            if out.block_trace(m) != polynomials.glp(k, m):
                return f"trace of block {m} differs from the closed Lucas formula"
    return None


def job_companion_generic(draw: Draw) -> Job:
    n, k = draw.grid("companion_generic", 10, 22, lambda n: range(2, 6))
    return Job(
        ("companion_window", "generic", k, 0, n),
        lambda: companion.companion_window(companion.CorePolynomial.generic(k), 0, n),
        lambda out: _generic_window_check(out, k, n, lucas=False),
        enum=tuple((m, k) for m in range(n + 1)),
    )


def job_different_generic(draw: Draw) -> Job:
    n, k = draw.grid("different_generic", 10, 22, lambda n: range(2, 6))
    return Job(
        ("different_window", "generic", k, 0, n),
        lambda: companion.different_window(companion.CorePolynomial.generic(k), 0, n),
        lambda out: _generic_window_check(out, k, n, lucas=True),
        enum=tuple((m, k) for m in range(n + 1)),
    )


def job_glp_from_gfp_generic(draw: Draw) -> Job:
    N, k = draw.grid("glp_from_gfp_generic", 10, 22, lambda n: range(2, 4))

    def check(out):
        want = [polynomials.glp(k, n) for n in range(1, N + 1)]
        return _equal(list(out), want, "the closed Lucas formula")

    return Job(
        ("glp_from_gfp", "generic", k, N),
        lambda: companion.glp_from_gfp(companion.CorePolynomial.generic(k), N),
        check,
        enum=tuple((m, k) for m in range(N + 1)),
    )


def job_convolve(draw: Draw) -> Job:
    n, k = draw.grid("convolve", 10, 22, lambda n: range(2, 5))
    q1, q2 = draw.choice(QS), draw.choice(QS)
    return Job(
        ("convolve", str(q1), str(q2), k, n),
        lambda: polynomials.convolve(roots.gfp_root_sequence(q1, k), roots.gfp_root_sequence(q2, k), n),
        lambda out: _equal(out, roots.gfp_root_closed(q1 + q2, k, n), "the closed root formula at q1 + q2"),
        enum=tuple((m, k) for m in range(n + 1)),
    )


def _numeric_different_matrix(ts: list[Fraction]) -> list[list[Fraction]]:
    a = oracles.companion(ts)
    rows = [oracles.different_seed(ts)]
    for _ in range(len(ts) - 1):
        rows.append(oracles.row_times(rows[-1], a))
    return rows


def job_dense_det_generic(draw: Draw) -> Job:
    # k = 6 takes 1.5 s, twenty times the slowest other routes job, and would
    # set the workload's throughput alone; k = 7 takes 35 s.
    (k,) = draw.grid("dense_det_generic", 2, 5)
    points = [draw.point(k), draw.point(k)]

    def check(out):
        for ts in points:
            got = out.evaluate(ts)
            want = oracles.det(_numeric_different_matrix(ts))
            if got != want:
                return f"value {got} at t={[str(t) for t in ts]}, elimination gives {want}"
        return None

    return Job(
        ("dense_det", "different", "generic", k),
        lambda: companion.dense_det(companion.different_matrix(companion.CorePolynomial.generic(k))),
        check,
    )


ROUTES = (
    job_wip_recursive,
    job_hessenberg_plus,
    job_hessenberg_minus,
    job_root_matrix,
    job_root_stirling,
    job_companion_generic,
    job_different_generic,
    job_glp_from_gfp_generic,
    job_convolve,
    job_dense_det_generic,
)


# -- dirichlet: the numeric branch, Fraction entries --------------------------


def _mf_size(draw: Draw, family: str) -> tuple[int, str]:
    # The function sets the size of its values as much as N does.
    return draw.grid(family, 10, 20, lambda N: multiplicative.KNOWN_FUNCTIONS)


def job_local_power(draw: Draw) -> Job:
    N, name = _mf_size(draw, "local_power")
    p = draw.choice(PRIMES)
    q = draw.choice(DIRICHLET_QS)

    def check(out):
        f = multiplicative.known_function(name, p, N)
        conv = multiplicative.dirichlet_convolve_local
        if q == -1:
            unit = multiplicative.known_function("epsilon", p, N)
            return _equal(conv(f, out), unit, "the Dirichlet unit after convolving with f")
        # q = a/m: the m-fold self product of f^q must equal the a-fold one of f.
        def power(g, times):
            acc = g
            for _ in range(times - 1):
                acc = conv(acc, g)
            return acc

        return _equal(power(out, q.denominator), power(f, q.numerator), f"f^{q.numerator} by reconvolution")

    return Job(
        ("local_power", name, p, str(q), N),
        lambda: multiplicative.local_power(multiplicative.known_function(name, p, N), q),
        check,
        enum=tuple((m, N) for m in range(1, N + 1)),
    )


def job_root_verify(draw: Draw) -> Job:
    N, name = _mf_size(draw, "root_verify")
    p = draw.choice(PRIMES)
    m = draw.choice((2, 3))
    return Job(
        ("root_verify", name, p, m, N),
        lambda: multiplicative.root_verify(multiplicative.known_function(name, p, N), m),
        lambda out: None if out is True else f"root_verify returned {out!r}",
        enum=tuple((n, N) for n in range(1, N + 1)),
    )


def _numeric_core(draw: Draw, k: int) -> list[Fraction]:
    return [draw.rational() for _ in range(k - 1)] + [draw.rational(nonzero=True)]


def _closed_values(family, k: int, ts: list[Fraction], hi: int) -> list[Fraction]:
    return [family(k, m).evaluate(ts) for m in range(hi + 1)]


def job_companion_numeric(draw: Draw) -> Job:
    k = draw.int(2, 5)
    ts = _numeric_core(draw, k)
    (depth,) = draw.grid("companion_numeric", 100, 300)
    lo, hi = -depth, draw.int(10, 20)

    def check(out):
        a = oracles.companion(ts)
        for m in sorted({lo + k - 1, -1, 0, 1, hi}):
            if out.block(m) != oracles.mat_pow(a, m):
                return f"block {m} is not the companion matrix power"
        fib = _closed_values(polynomials.gfp, k, ts, hi)
        for m in range(hi + 1):
            if out.rightmost(m) != fib[m]:
                return f"rightmost entry of row {m} differs from the closed Fibonacci value"
        return None

    return Job(
        ("companion_window", [str(t) for t in ts], lo, hi),
        lambda: companion.companion_window(companion.CorePolynomial.numeric(ts), lo, hi),
        check,
        enum=tuple((m, k) for m in range(hi + 1)),
    )


def job_different_numeric(draw: Draw) -> Job:
    k = draw.int(2, 5)
    ts = _numeric_core(draw, k)
    (depth,) = draw.grid("different_numeric", 100, 300)
    lo, hi = -depth, draw.int(10, 20)

    def check(out):
        a = oracles.companion(ts)
        seed = oracles.different_seed(ts)
        for m in sorted({lo, -1, 0, hi}):
            if list(out.row(m)) != oracles.row_times(seed, oracles.mat_pow(a, m)):
                return f"row {m} is not the seed row times the companion power"
        lucas = _closed_values(polynomials.glp, k, ts, hi)
        for m in range(hi + 1):
            if out.rightmost(m) != lucas[m]:
                return f"rightmost entry of row {m} differs from the closed Lucas value"
        return None

    return Job(
        ("different_window", [str(t) for t in ts], lo, hi),
        lambda: companion.different_window(companion.CorePolynomial.numeric(ts), lo, hi),
        check,
        enum=tuple((m, k) for m in range(hi + 1)),
    )


def job_singular_window(draw: Draw) -> Job:
    k = draw.int(2, 5)
    ts = [draw.rational() for _ in range(k - 1)] + [Fraction(0)]
    lo, hi = -draw.int(100, 300), draw.int(10, 20)
    which = draw.choice(("companion_window", "different_window"))
    build = getattr(companion, which)
    return Job(
        (which, [str(t) for t in ts], lo, hi),
        lambda: build(companion.CorePolynomial.numeric(ts), lo, hi),
        expect=companion.SingularCoreError,
    )


def job_glp_from_gfp_numeric(draw: Draw) -> Job:
    N, k = draw.grid("glp_from_gfp_numeric", 10, 20, lambda n: range(3, 9))
    ts = draw.point(k)
    return Job(
        ("glp_from_gfp", [str(t) for t in ts], N),
        lambda: companion.glp_from_gfp(companion.CorePolynomial.numeric(ts), N),
        lambda out: _equal(list(out), oracles.lucas_values(ts, N)[1:], "the Newton power sums"),
        enum=tuple((m, k) for m in range(N + 1)),
    )


def job_dense_det_numeric(draw: Draw) -> Job:
    # k = 8 takes half a second, as long as a whole round of the other
    # dirichlet jobs, and would set the workload's throughput alone.
    (k,) = draw.grid("dense_det_numeric", 5, 7)
    rows = [draw.point(k) for _ in range(k)]
    return Job(
        ("dense_det", [[str(x) for x in row] for row in rows]),
        lambda: companion.dense_det(rows),
        lambda out: _equal(out, oracles.det(rows), "Gaussian elimination"),
    )


def job_hessenberg_numeric(draw: Draw) -> Job:
    (n,) = draw.grid("hessenberg_numeric", 50, 150)
    sign = draw.choice((1, -1))
    lower = [draw.point(i) for i in range(1, n + 1)]
    cells = [[hessenberg.Cell.make(c) for c in row] for row in lower]
    # The key is a digest of the entries, which are too long to repeat.
    return Job(
        ("hessenberg_value", "numeric", sign, n, draw.rng.getrandbits(64)),
        lambda: hessenberg.hessenberg_value(hessenberg.HessenbergMatrix(n, 1, sign, cells)),
        lambda out: _equal(out, oracles.hessenberg_det(lower), "Hessenberg elimination"),
    )


DIRICHLET = (
    job_local_power,
    job_local_power,
    job_local_power,
    job_local_power,
    job_root_verify,
    job_companion_numeric,
    job_different_numeric,
    job_singular_window,
    job_glp_from_gfp_numeric,
    job_dense_det_numeric,
    job_hessenberg_numeric,
)


# -- cli: whole `iso` invocations ---------------------------------------------

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(argv: list[str], in_process: bool) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one ``iso`` invocation.

    Normally a fresh ``python -m isobaric.cli`` process; ``in_process`` calls
    ``isobaric.cli.main`` with both streams captured instead, which is what
    the traced run uses.
    """
    if in_process:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-m", "isobaric.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(SRC),
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _grid(rows: list[list[str]], labels: Optional[list[str]] = None) -> str:
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    lines = ["  ".join(s.rjust(w) for s, w in zip(r, widths)) for r in rows]
    if labels:
        lw = max(len(label) for label in labels)
        lines = [f"{label.rjust(lw)}  {body}" for label, body in zip(labels, lines)]
    return "\n".join(lines)


def _entry_json(e):
    return str(e) if isinstance(e, Fraction) else e.to_json_dict()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _poly_text(poly, at, fmt: str) -> str:
    if at is not None:
        value = poly.evaluate(at)
        return _json_text({"value": str(value)}) if fmt == "json" else f"{value}\n"
    return _json_text(poly.to_json_dict()) if fmt == "json" else f"{poly}\n"


def _matrix_text(mat, k: int, fmt: str) -> str:
    if fmt == "json":
        return _json_text({"k": k, "cells": [[_entry_json(e) for e in row] for row in mat]})
    return _grid([[str(e) for e in row] for row in mat]) + "\n"


def _window_text(win, fmt: str) -> str:
    ns = range(win.n_lo, win.n_hi + 1)
    if fmt == "json":
        rows = [{"n": n, "cells": [_entry_json(e) for e in win.row(n)]} for n in ns]
        return _json_text({"k": win.k, "n_lo": win.n_lo, "n_hi": win.n_hi, "rows": rows})
    return _grid([[str(e) for e in win.row(n)] for n in ns], [f"row {n}:" for n in ns]) + "\n"


def _cli_job(argv: list[str], expected: Callable[[], str], in_process: bool, enum=()) -> Job:
    def check(out):
        code, stdout, stderr = out
        if code != 0:
            return f"exit {code}: {stderr.strip()[:200]}"
        want = expected()
        return None if stdout == want else "stdout differs from the library's own result"

    return Job(("iso", *argv), lambda: run_cli(argv, in_process), check, enum=enum)


def _cli_size(draw: Draw, verb: str) -> tuple[int, int]:
    return draw.grid(verb, 1, 10, lambda n: range(1, 5))


def _fmt(draw: Draw) -> list[str]:
    return ["--format", "json"] if draw.choice((False, True)) else []


def _eval_args(draw: Draw, k: int) -> tuple[list[str], Optional[list[Fraction]]]:
    if draw.choice((False, False, True)):
        at = draw.point(k)
        return ["--eval", ",".join(str(t) for t in at)], at
    return [], None


def _weights_arg(label: str) -> str:
    return "1" if label == "ones" else label


def cli_family(verb: str) -> Callable[[Draw, bool], Job]:
    def make(draw: Draw, in_process: bool) -> Job:
        n, k = _cli_size(draw, verb)
        fmt = _fmt(draw)
        ev, at = _eval_args(draw, k)
        f = fmt[1] if fmt else "text"
        if verb == "wip":
            label = draw.choice(WEIGHT_LABELS)
            argv = ["wip", "--weights", _weights_arg(label), "--k", str(k), "--n", str(n), *ev, *fmt]
            build = lambda: polynomials.wip_closed(weight_vector(label), k, n)  # noqa: E731
        else:
            argv = [verb, "--k", str(k), "--n", str(n), *ev, *fmt]
            build = lambda: getattr(polynomials, verb)(k, n)  # noqa: E731
        return _cli_job(argv, lambda: _poly_text(build(), at, f), in_process, ((n, k),))

    return make


def cli_hessenberg(draw: Draw, in_process: bool) -> Job:
    n, k = _cli_size(draw, "hessenberg")
    label = draw.choice(WEIGHT_LABELS)
    sign = draw.choice(("plus", "minus"))
    fmt = _fmt(draw)
    argv = ["hessenberg", "--weights", _weights_arg(label), "--k", str(k), "--n", str(n), "--sign", sign, *fmt]

    def expected():
        build = hessenberg.build_plus if sign == "plus" else hessenberg.build_minus
        matrix = build(weight_vector(label), k, n)
        # The value comes from the closed formula, not from the matrix.
        value = polynomials.wip_closed(weight_vector(label), k, n)
        if fmt:
            return _json_text({"matrix": matrix.to_json_dict(), "value": value.to_json_dict()})
        return f"{matrix.text_grid()}\nvalue: {value}\n"

    return _cli_job(argv, expected, in_process, ((n, k),))


def cli_root_gfp(draw: Draw, in_process: bool) -> Job:
    n, k = _cli_size(draw, "root-gfp")
    q = draw.choice(QS)
    method = draw.choice(("formula", "det", "perm", "stirling"))
    fmt = _fmt(draw)
    ev, at = _eval_args(draw, k)
    argv = ["root-gfp", "--q", str(q), "--k", str(k), "--n", str(n), "--method", method, *ev, *fmt]
    f = fmt[1] if fmt else "text"
    return _cli_job(argv, lambda: _poly_text(roots.gfp_root_closed(q, k, n), at, f), in_process, ((n, k),))


def cli_root_wip(draw: Draw, in_process: bool) -> Job:
    n, k = _cli_size(draw, "root-wip")
    label = draw.choice(WEIGHT_LABELS)
    q = draw.choice(QS)
    fmt = _fmt(draw)
    ev, at = _eval_args(draw, k)
    argv = ["root-wip", "--weights", _weights_arg(label), "--q", str(q), "--k", str(k), "--n", str(n), *ev, *fmt]
    f = fmt[1] if fmt else "text"
    return _cli_job(
        argv, lambda: _poly_text(roots.wip_root(weight_vector(label), k, n, q), at, f), in_process, ((n, k),)
    )


def cli_conv(draw: Draw, in_process: bool) -> Job:
    n, k = _cli_size(draw, "conv")
    q1, q2 = draw.choice(QS), draw.choice(QS)
    fmt = _fmt(draw)
    ev, at = _eval_args(draw, k)
    argv = ["conv", "--q1", str(q1), "--q2", str(q2), "--k", str(k), "--n", str(n), *ev, *fmt]
    f = fmt[1] if fmt else "text"
    # The group law: the product of the q1 and q2 powers is the q1 + q2 power.
    return _cli_job(
        argv, lambda: _poly_text(roots.gfp_root_closed(q1 + q2, k, n), at, f), in_process, ((n, k),)
    )


def _cli_core(draw: Draw) -> tuple[list[str], companion.CorePolynomial]:
    k = draw.int(1, 4)
    if draw.choice((False, True)):
        ts = _numeric_core(draw, k)
        return ["--core", ",".join(str(t) for t in ts)], companion.CorePolynomial.numeric(ts)
    return ["--k", str(k)], companion.CorePolynomial.generic(k)


def cli_companion(draw: Draw, in_process: bool) -> Job:
    core_args, core = _cli_core(draw)
    fmt = _fmt(draw)
    f = fmt[1] if fmt else "text"
    if draw.choice((False, True)):
        lo = -draw.int(0, 20) if core.is_numeric else -draw.int(0, core.k - 1)
        hi = draw.int(0, 20)
        argv = ["companion", *core_args, "--rows", f"{lo}..{hi}", *fmt]
        expected = lambda: _window_text(companion.companion_window(core, lo, hi), f)  # noqa: E731
    else:
        argv = ["companion", *core_args, *fmt]

        def expected():
            if core.is_numeric:
                return _matrix_text(oracles.companion(core.coefficients), core.k, f)
            return _matrix_text(companion.companion_matrix(core), core.k, f)

    return _cli_job(argv, expected, in_process)


def cli_different(draw: Draw, in_process: bool) -> Job:
    core_args, core = _cli_core(draw)
    fmt = _fmt(draw)
    f = fmt[1] if fmt else "text"
    mode = draw.choice(("rows", "det", "matrix"))
    if mode == "rows":
        lo = -draw.int(0, 20) if core.is_numeric else 0
        hi = draw.int(0, 20)
        argv = ["different", *core_args, "--rows", f"{lo}..{hi}", *fmt]
        expected = lambda: _window_text(companion.different_window(core, lo, hi), f)  # noqa: E731
    elif mode == "det":
        argv = ["different", *core_args, "--det", *fmt]

        def expected():
            mat = companion.different_matrix(core)
            d = oracles.det(mat) if core.is_numeric else companion.dense_det(mat)
            return _json_text({"det": _entry_json(d)}) if fmt else f"det: {d}\n"

    else:
        argv = ["different", *core_args, *fmt]
        expected = lambda: _matrix_text(companion.different_matrix(core), core.k, f)  # noqa: E731
    return _cli_job(argv, expected, in_process)


def cli_mf(draw: Draw, in_process: bool) -> Job:
    name = draw.choice(multiplicative.KNOWN_FUNCTIONS)
    p = draw.choice(PRIMES)
    N = draw.int(1, 10)
    fmt = _fmt(draw)
    argv = ["mf", "--fn", name, "--p", str(p), "--N", str(N), *fmt]

    def expected():
        f = multiplicative.known_function(name, p, N)
        if fmt:
            return _json_text({"fn": name, "p": p, "values": [str(v) for v in f.values]})
        return f.format_values() + "\n"

    return _cli_job(argv, expected, in_process)


def cli_mf_root(draw: Draw, in_process: bool) -> Job:
    name = draw.choice(multiplicative.KNOWN_FUNCTIONS)
    p = draw.choice(PRIMES)
    N = draw.int(1, 10)
    q = draw.choice(DIRICHLET_QS)
    fmt = _fmt(draw)
    verify_m = q.denominator if q.numerator == 1 and draw.choice((False, True)) else None
    extra = ["--verify", str(verify_m)] if verify_m else []
    argv = ["mf-root", "--fn", name, "--p", str(p), "--N", str(N), "--q", str(q), *extra, *fmt]

    def expected():
        root = multiplicative.local_power(multiplicative.known_function(name, p, N), q)
        values = [str(v) for v in root.values]
        if fmt:
            payload = {"fn": name, "p": p, "q": str(q), "values": values}
            if verify_m:
                payload["verify"] = "PASS"
            return _json_text(payload)
        return ",".join(values) + "\n" + ("verify: PASS\n" if verify_m else "")

    return _cli_job(argv, expected, in_process, tuple((m, N) for m in range(1, N + 1)))


def cli_verify(draw: Draw, in_process: bool) -> Job:
    suite = draw.choice(("partitions", "hessenberg", "roots", "companion", "mf", "all"))
    max_n = draw.int(2, 6)
    fmt = _fmt(draw)
    argv = ["verify", "--suite", suite, "--max-n", str(max_n), *fmt]

    def expected():
        results = verify.run_suites(suite, max_n)
        if fmt:
            return _json_text({"results": [{"suite": s, "ok": ok, "detail": d} for s, ok, d in results]})
        return "".join(f"PASS {s}\n" if ok else f"FAIL {s}: {d}\n" for s, ok, d in results)

    return _cli_job(argv, expected, in_process)


# argv the CLI must refuse, with the exit code it must refuse them with.
CLI_ERRORS = (
    (["frobnicate"], 1),
    (["gfp", "--k", "3"], 1),
    (["root-gfp", "--q", "x/y", "--k", "2", "--n", "3"], 1),
    (["gfp", "--k", "0", "--n", "3"], 2),
    (["mf", "--fn", "nope", "--N", "4"], 2),
    (["root-gfp", "--q", "-1", "--k", "2", "--n", "5", "--method", "stirling"], 2),
    (["companion", "--core", "1,0", "--rows", "-3..2"], 2),
    (["different", "--k", "3", "--rows", "-2..3"], 2),
    (["companion", "--rows", "1..3"], 2),
)


def cli_error(draw: Draw, in_process: bool) -> Job:
    argv, code = draw.choice(CLI_ERRORS)
    prefix = "usage error:" if code == 1 else "error:"

    def check(out):
        got, stdout, stderr = out
        if got != code:
            return f"exit {got}, expected {code}"
        if stdout or not stderr.startswith(prefix) or "Traceback" in stderr:
            return f"refusal not reported as {prefix!r} on stderr alone"
        return None

    return Job(("iso", *argv), lambda: run_cli(argv, in_process), check)


_VERBS = (
    cli_family("wip"),
    cli_family("gfp"),
    cli_family("glp"),
    cli_hessenberg,
    cli_root_gfp,
    cli_root_wip,
    cli_conv,
    cli_companion,
    cli_different,
    cli_mf,
    cli_mf_root,
    cli_verify,
)

# All 12 verbs, six of them twice, and two refusals: 10% of jobs must fail.
CLI_STRATA = _VERBS + _VERBS[:6] + (cli_error, cli_error)

STRATA = {"closed": CLOSED, "routes": ROUTES, "dirichlet": DIRICHLET, "cli": CLI_STRATA}
