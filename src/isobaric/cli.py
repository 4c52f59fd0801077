"""Command line surface: every computation behind one verb, text or JSON out.

Output is deterministic byte-for-byte for fixed arguments: polynomial terms
print in descending lexicographic order, rationals in lowest terms ("p/q" or
a bare integer), and JSON uses a fixed two-space indent.  Exit codes: 0 on
success, 1 on usage errors, 2 on domain errors raised by the library and on
inputs refused for size (past one of the ``MAX_*`` limits below, checked
before any work), 3 when a requested verification fails.  Integers print in
full, however many digits they have.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Sequence

from .companion import (
    CorePolynomial,
    companion_matrix,
    companion_window,
    dense_det,
    different_matrix,
    different_window,
)
from .hessenberg import build_minus, build_plus
from .multiplicative import dirichlet_fold, known_function, local_power
from .partitions import vector_count
from .polynomials import IsobaricPoly, WeightVector, convolve, gfp, glp, wip_closed
from .roots import (
    gfp_root_closed,
    gfp_root_matrix,
    gfp_root_sequence,
    gfp_root_stirling_matrix,
    wip_root,
)
from .verify import run_suites

__all__ = ["main"]

# Verbs whose output is a degree-n polynomial in t1..tk (up to p_k(n) terms)
# refuse sizes past this many terms before computing anything.
MAX_TERMS = 10**6
_POLY_VERBS = ("wip", "gfp", "glp", "hessenberg", "root-gfp", "root-wip", "conv")
# The other loops whose length an argument sets, each sized so the largest
# accepted input runs in seconds: the Hessenberg grid side n and its sweep's
# term steps, n * min(n, k) * p_k(n), for hessenberg and the root-gfp matrix
# methods; the orbit cells (k per row, counted from row 0) a companion or
# different window or matrix computes, where a generic window must also hold
# at most MAX_TERMS terms; the entry products of different --det,
# k * 2^(k - 1), times p_k(2k - 2) terms per generic cell; the truncation N
# of mf and mf-root; and the value products of mf-root --verify M,
# (M - 1) * (N + 1)^2.
MAX_HESSENBERG_N = 300
MAX_HESSENBERG_STEPS = 500_000
MAX_WINDOW_CELLS = 20_000
MAX_DET_PRODUCTS = 100_000
MAX_MF_N = 1000
MAX_FOLD_PRODUCTS = 250_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract wants 1, so
    # errors are rethrown and handled in main().
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _weights(text: str) -> WeightVector:
    if text == "id":
        return WeightVector.naturals()
    try:
        return WeightVector.from_values([Fraction(p.strip()) for p in text.split(",")])
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad weight list: {text!r}") from exc


def _rational_list(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(p.strip()) for p in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational list: {text!r}") from exc


_ROWS_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


def _rows(text: str) -> tuple[int, int]:
    m = _ROWS_RE.match(text)
    if not m:
        raise argparse.ArgumentTypeError(f"row range must look like 'a..b', got {text!r}")
    return int(m.group(1)), int(m.group(2))


def _build_parser() -> _Parser:
    parser = _Parser(prog="iso", description="Weighted isobaric polynomials, exactly.")
    sub = parser.add_subparsers(dest="verb", parser_class=_Parser)

    def add(name: str, help_: str) -> _Parser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("wip", "weighted isobaric polynomial of one degree")
    p.add_argument("--weights", type=_weights, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eval", dest="at", type=_rational_list, default=None, metavar="T1,T2,...")

    for name, help_ in (("gfp", "generalized Fibonacci polynomial"), ("glp", "generalized Lucas polynomial")):
        p = add(name, help_)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--eval", dest="at", type=_rational_list, default=None, metavar="T1,T2,...")

    p = add("hessenberg", "matrix representation and its value")
    p.add_argument("--weights", type=_weights, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sign", choices=("plus", "minus"), default="minus")

    p = add("root-gfp", "rational convolution power of the Fibonacci family")
    p.add_argument("--q", type=_rational, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("formula", "det", "perm", "stirling"), default="formula")
    p.add_argument("--eval", dest="at", type=_rational_list, default=None, metavar="T1,T2,...")

    p = add("root-wip", "rational convolution power of a weighted family")
    p.add_argument("--weights", type=_weights, required=True)
    p.add_argument("--q", type=_rational, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eval", dest="at", type=_rational_list, default=None, metavar="T1,T2,...")

    p = add("conv", "one degree of the convolution of two Fibonacci powers")
    p.add_argument("--q1", type=_rational, required=True)
    p.add_argument("--q2", type=_rational, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eval", dest="at", type=_rational_list, default=None, metavar="T1,T2,...")

    p = add("companion", "companion matrix or a window of its row orbit")
    p.add_argument("--core", type=_rational_list, default=None, metavar="T1,...,TK")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--rows", type=_rows, default=None, metavar="A..B")

    p = add("different", "different matrix, its determinant, or its row orbit")
    p.add_argument("--core", type=_rational_list, default=None, metavar="T1,...,TK")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--rows", type=_rows, default=None, metavar="A..B")
    p.add_argument("--det", action="store_true")

    p = add("mf", "multiplicative function values at prime powers")
    p.add_argument("--fn", required=True)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--N", type=int, required=True)

    p = add("mf-root", "rational Dirichlet power of a multiplicative function")
    p.add_argument("--fn", required=True)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--q", type=_rational, required=True)
    p.add_argument("--verify", type=int, default=None, metavar="M")

    p = add("verify", "run self-check suites")
    p.add_argument(
        "--suite",
        choices=("partitions", "hessenberg", "roots", "companion", "mf", "all"),
        default="all",
    )
    p.add_argument("--max-n", type=int, default=6, dest="max_n")

    return parser


# -- rendering -------------------------------------------------------------


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _poly_out(poly: IsobaricPoly, at, fmt: str) -> None:
    if at is not None:
        value = poly.evaluate(at)
        if fmt == "json":
            _print_json({"value": str(value)})
        else:
            print(value)
    elif fmt == "json":
        _print_json(poly.to_json_dict())
    else:
        print(poly)


def _grid(rows: list[list[str]], labels: list[str] | None = None) -> str:
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    lines = []
    lwidth = max((len(l) for l in labels), default=0) if labels else 0
    for i, r in enumerate(rows):
        body = "  ".join(s.rjust(w) for s, w in zip(r, widths))
        if labels:
            lines.append(f"{labels[i].rjust(lwidth)}  {body}")
        else:
            lines.append(body)
    return "\n".join(lines)


def _entry_json(e):
    return str(e) if isinstance(e, Fraction) else e.to_json_dict()


def _matrix_out(mat, fmt: str, k: int) -> None:
    if fmt == "json":
        _print_json({"k": k, "cells": [[_entry_json(e) for e in row] for row in mat]})
    else:
        print(_grid([[str(e) for e in row] for row in mat]))


def _window_out(win, fmt: str) -> None:
    ns = list(range(win.n_lo, win.n_hi + 1))
    if fmt == "json":
        _print_json(
            {
                "k": win.k,
                "n_lo": win.n_lo,
                "n_hi": win.n_hi,
                "rows": [{"n": n, "cells": [_entry_json(e) for e in win.row(n)]} for n in ns],
            }
        )
    else:
        rows = [[str(e) for e in win.row(n)] for n in ns]
        print(_grid(rows, labels=[f"row {n}:" for n in ns]))


def _core_from_args(args) -> CorePolynomial:
    if args.core is not None:
        if args.k is not None and args.k != len(args.core):
            raise ValueError(f"--k {args.k} disagrees with a {len(args.core)}-coefficient core")
        return CorePolynomial.numeric(args.core)
    if args.k is None:
        raise ValueError("need --core or --k")
    return CorePolynomial.generic(args.k)


# -- dispatch --------------------------------------------------------------


def _check_terms(k: int, n: int) -> None:
    # Bad k or n is left to the library, which names the problem itself.
    if k >= 1 and n >= 0 and vector_count(n, k, cap=MAX_TERMS + 1) > MAX_TERMS:
        raise ValueError(
            f"refusing n={n}, k={k}: the output would have more than {MAX_TERMS} terms"
        )


def _check_sizes(args) -> None:
    """Refuse, before any work, inputs past the size limits above."""
    verb = args.verb
    if verb in _POLY_VERBS:
        _check_terms(args.k, args.n)
    # The root-gfp matrix methods run the same sweep as hessenberg.
    if verb == "hessenberg" or (verb == "root-gfp" and args.method != "formula"):
        if args.n > MAX_HESSENBERG_N:
            raise ValueError(f"refusing n={args.n}: matrices are limited to {MAX_HESSENBERG_N} rows")
        if args.n >= 1 and args.k >= 1:
            # p_k(n) <= MAX_TERMS here: _check_terms passed.
            if args.n * min(args.n, args.k) * vector_count(args.n, args.k) > MAX_HESSENBERG_STEPS:
                raise ValueError(
                    f"refusing n={args.n}, k={args.k}: the sweep would take more than "
                    f"{MAX_HESSENBERG_STEPS} term steps"
                )
    if verb in ("companion", "different"):
        k = len(args.core) if args.core is not None else (args.k or 0)
        # Without --rows, the matrix forms build rows 2-k..1 and 0..k-1.
        if args.rows is not None:
            lo, hi = args.rows
        elif verb == "companion":
            lo, hi = 2 - k, 1
        else:
            lo, hi = 0, k - 1
        cells = (max(hi, 0) - min(lo, 0) + 1) * k
        if cells > MAX_WINDOW_CELLS:
            raise ValueError(
                f"refusing rows {lo}..{hi}, k={k}: the orbit would run through {cells} cells, "
                f"over the limit of {MAX_WINDOW_CELLS}"
            )
        # A generic cell has at most the terms of the top degree hi + k - 1.
        if args.core is None and k >= 1 and hi + k >= 1:
            if cells * vector_count(hi + k - 1, k, cap=MAX_TERMS + 1) > MAX_TERMS:
                raise ValueError(
                    f"refusing rows {lo}..{hi}, k={k}: the orbit would hold more than {MAX_TERMS} terms"
                )
        if verb == "different" and args.det and args.rows is None and k >= 1:
            # The checks above bound k, and p_k(2k - 2) with it.
            products = k << (k - 1)
            if args.core is None:
                products *= vector_count(2 * k - 2, k)
            if products > MAX_DET_PRODUCTS:
                raise ValueError(
                    f"refusing k={k}: the determinant would take {products} entry products, "
                    f"over the limit of {MAX_DET_PRODUCTS}"
                )
    if verb in ("mf", "mf-root") and args.N > MAX_MF_N:
        raise ValueError(f"refusing N={args.N}: truncations are limited to N <= {MAX_MF_N}")
    if verb == "mf-root" and args.verify is not None:
        products = (args.verify - 1) * (args.N + 1) ** 2
        if products > MAX_FOLD_PRODUCTS:
            raise ValueError(
                f"refusing --verify {args.verify} at N={args.N}: the reconvolution needs "
                f"{products} value products, over the limit of {MAX_FOLD_PRODUCTS}"
            )


def _run(args) -> int:
    verb = args.verb
    _check_sizes(args)
    if verb == "wip":
        _poly_out(wip_closed(args.weights, args.k, args.n), args.at, args.format)
    elif verb == "gfp":
        _poly_out(gfp(args.k, args.n), args.at, args.format)
    elif verb == "glp":
        _poly_out(glp(args.k, args.n), args.at, args.format)
    elif verb == "hessenberg":
        build = build_plus if args.sign == "plus" else build_minus
        matrix = build(args.weights, args.k, args.n)
        value = matrix.value()
        if args.format == "json":
            _print_json({"matrix": matrix.to_json_dict(), "value": value.to_json_dict()})
        else:
            print(matrix.text_grid())
            print(f"value: {value}")
    elif verb == "root-gfp":
        if args.method == "formula":
            poly = gfp_root_closed(args.q, args.k, args.n)
        elif args.method == "det":
            poly = gfp_root_matrix(args.q, args.k, args.n, -1).value()
        elif args.method == "perm":
            poly = gfp_root_matrix(args.q, args.k, args.n, +1).value()
        else:
            poly = gfp_root_stirling_matrix(args.q, args.k, args.n).value()
        _poly_out(poly, args.at, args.format)
    elif verb == "root-wip":
        _poly_out(wip_root(args.weights, args.k, args.n, args.q), args.at, args.format)
    elif verb == "conv":
        poly = convolve(gfp_root_sequence(args.q1, args.k), gfp_root_sequence(args.q2, args.k), args.n)
        _poly_out(poly, args.at, args.format)
    elif verb == "companion":
        core = _core_from_args(args)
        if args.rows is None:
            _matrix_out(companion_matrix(core), args.format, core.k)
        else:
            _window_out(companion_window(core, *args.rows), args.format)
    elif verb == "different":
        core = _core_from_args(args)
        if args.rows is not None:
            _window_out(different_window(core, *args.rows), args.format)
        else:
            mat = different_matrix(core)
            if args.det:
                det = dense_det(mat)
                if args.format == "json":
                    _print_json({"det": _entry_json(det)})
                else:
                    print(f"det: {det}")
            else:
                _matrix_out(mat, args.format, core.k)
    elif verb == "mf":
        f = known_function(args.fn, args.p, args.N)
        if args.format == "json":
            _print_json({"fn": f.label, "p": args.p, "values": [str(v) for v in f.values]})
        else:
            print(f.format_values())
    elif verb == "mf-root":
        f = known_function(args.fn, args.p, args.N)
        root = local_power(f, args.q)
        verified: bool | None = None
        if args.verify is not None:
            if args.verify < 1:
                raise ValueError("--verify takes a fold count >= 1")
            verified = dirichlet_fold(root, args.verify) == f
        if args.format == "json":
            payload = {"fn": f.label, "p": args.p, "q": str(args.q), "values": [str(v) for v in root.values]}
            if verified is not None:
                payload["verify"] = "PASS" if verified else "FAIL"
            _print_json(payload)
        else:
            print(root.format_values())
            if verified is not None:
                print(f"verify: {'PASS' if verified else 'FAIL'}")
        if verified is False:
            return 3
    elif verb == "verify":
        results = run_suites(args.suite, args.max_n)
        code = 0 if all(ok for _, ok, _ in results) else 3
        if args.format == "json":
            _print_json(
                {
                    "results": [
                        {"suite": name, "ok": ok, "detail": detail}
                        for name, ok, detail in results
                    ]
                }
            )
        else:
            for name, ok, detail in results:
                if ok:
                    print(f"PASS {name}")
                else:
                    print(f"FAIL {name}: {detail}")
        return code
    else:
        raise _UsageError("pick a verb (see --help)")
    return 0


def _join_dashed_values(argv: list[str]) -> list[str]:
    # argparse reads "-2..4" as a flag; fold such values into "--opt=value"
    # so row ranges and negative rationals survive.
    out: list[str] = []
    joinable = {"--rows", "--q", "--q1", "--q2", "--core", "--eval", "--weights"}
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in joinable and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_dashed_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    # Coefficients may pass the interpreter's int-to-str digit limit; argv
    # above was parsed with the limit in place.
    digits = getattr(sys, "get_int_max_str_digits", None)
    limit = digits() if digits else None
    try:
        if limit is not None:
            sys.set_int_max_str_digits(0)
        return _run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
