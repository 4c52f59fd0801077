import io
import contextlib
import json
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest

from isobaric import IsobaricPoly, gfp, glp
from isobaric.cli import _check_terms, main
from isobaric.companion import CorePolynomial, different_matrix
from isobaric.roots import gfp_root_closed

from helpers import gauss_det


def run(args):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def out_of(args):
    code, out, err = run(args)
    assert code == 0, f"exit {code}, stderr: {err!r}"
    return out


# -- polynomial verbs ------------------------------------------------------


def test_gfp_text():
    assert out_of(["gfp", "--k", "3", "--n", "3"]) == "t1^3 + 2 t1 t2 + t3\n"
    # at k=2 the t3 term is out of range and drops
    assert out_of(["gfp", "--k", "2", "--n", "3"]) == "t1^3 + 2 t1 t2\n"


def test_glp_text():
    assert out_of(["glp", "--k", "2", "--n", "4"]) == "t1^4 + 4 t1^2 t2 + 2 t2^2\n"


def test_wip_weight_vector():
    got = out_of(["wip", "--weights", "2,5,7,11", "--k", "4", "--n", "4"])
    assert got == "2 t1^4 + 9 t1^2 t2 + 9 t1 t3 + 5 t2^2 + 11 t4\n"


def test_wip_id_weights_are_glp():
    assert out_of(["wip", "--weights", "id", "--k", "2", "--n", "3"]) == str(glp(2, 3)) + "\n"


def test_eval_option():
    # Fibonacci number 13 at t = (1, 1)
    assert out_of(["gfp", "--k", "2", "--n", "6", "--eval", "1,1"]) == "13\n"


def test_root_value_golden():
    got = out_of(["root-gfp", "--q", "1/2", "--k", "1", "--n", "2", "--eval", "1"])
    assert got == "3/8\n"


def test_root_polynomial():
    got = out_of(["root-gfp", "--q", "1/2", "--k", "2", "--n", "3"])
    assert got == "5/16 t1^3 + 3/4 t1 t2\n"


def test_root_methods_agree():
    outs = {
        method: out_of(["root-gfp", "--q", "-5/2", "--k", "2", "--n", "2", "--method", method])
        for method in ("formula", "det", "perm", "stirling")
    }
    assert set(outs.values()) == {"15/8 t1^2 - 5/2 t2\n"}


def test_root_wip_with_weights():
    got = out_of(["root-wip", "--weights", "3,1,4", "--k", "3", "--n", "2", "--q", "1/2"])
    assert got == "3/8 t1^2 + 1/2 t2\n"


def test_conv_halves_make_whole():
    got = out_of(["conv", "--q1", "1/2", "--q2", "1/2", "--k", "2", "--n", "3"])
    assert got == str(gfp(2, 3)) + "\n"


# -- hessenberg verb -------------------------------------------------------


def test_hessenberg_grid_and_value():
    got = out_of(["hessenberg", "--weights", "1,1", "--k", "2", "--n", "3"])
    assert got == (
        "t1  -1   0\n"
        "t2  t1  -1\n"
        " 0  t2  t1\n"
        "value: t1^3 + 2 t1 t2\n"
    )


def test_hessenberg_plus_sign_with_id_weights():
    got = out_of(["hessenberg", "--weights", "id", "--k", "2", "--n", "3", "--sign", "plus"])
    assert got.endswith("value: t1^3 + 3 t1 t2\n")
    assert "2 t2" in got  # weighted last row


# -- window verbs ----------------------------------------------------------


def test_companion_fibonacci_rows():
    got = out_of(["companion", "--core", "1,1", "--rows", "0..6"])
    assert got == (
        "row 0:  0   1\n"
        "row 1:  1   1\n"
        "row 2:  1   2\n"
        "row 3:  2   3\n"
        "row 4:  3   5\n"
        "row 5:  5   8\n"
        "row 6:  8  13\n"
    )


def test_companion_negative_rows():
    got = out_of(["companion", "--core", "1,1", "--rows", "-2..2"])
    assert got.splitlines()[0] == "row -2:  -1  1"
    assert got.splitlines()[1] == "row -1:   1  0"


def test_companion_symbolic_rows():
    got = out_of(["companion", "--k", "2", "--rows", "0..3"])
    lines = got.splitlines()
    assert lines[2].endswith("t1^2 + t2")
    assert lines[3].endswith("t1^3 + 2 t1 t2")


def test_different_lucas_rows():
    got = out_of(["different", "--core", "1,1", "--rows", "0..4"])
    rightmost = [line.split()[-1] for line in got.splitlines()]
    assert rightmost == ["2", "1", "3", "4", "7"]


def test_different_det_numeric():
    assert out_of(["different", "--core", "1,1", "--det"]) == "det: -5\n"


def test_different_det_symbolic():
    assert out_of(["different", "--k", "2", "--det"]) == "det: -t1^2 - 4 t2\n"


def test_different_symbolic_window():
    got = out_of(["different", "--k", "3", "--rows", "0..2"])
    assert got == (
        "row 0:    -t2         -2 t1            3\n"
        "row 1:   3 t3          2 t2           t1\n"
        "row 2:  t1 t3  t1 t2 + 3 t3  t1^2 + 2 t2\n"
    )


# -- multiplicative verbs --------------------------------------------------


def test_mf_values():
    assert out_of(["mf", "--fn", "zeta", "--p", "2", "--N", "5"]) == "1,1,1,1,1,1\n"
    assert out_of(["mf", "--fn", "phi", "--p", "3", "--N", "4"]) == "1,2,6,18,54\n"


def test_mf_root_values():
    got = out_of(["mf-root", "--fn", "zeta", "--p", "2", "--N", "4", "--q", "1/2"])
    assert got == "1,1/2,3/8,5/16,35/128\n"


def test_mf_root_verify_pass():
    code, out, err = run(["mf-root", "--fn", "tau", "--p", "2", "--N", "4", "--q", "1/2", "--verify", "2"])
    assert code == 0
    assert out.endswith("verify: PASS\n")


def test_mf_root_verify_fail_exits_3():
    code, out, err = run(["mf-root", "--fn", "zeta", "--p", "2", "--N", "4", "--q", "1/2", "--verify", "3"])
    assert code == 3
    assert out.endswith("verify: FAIL\n")


# -- verify verb -----------------------------------------------------------


def test_verify_single_suite():
    code, out, err = run(["verify", "--suite", "partitions", "--max-n", "5"])
    assert code == 0
    assert out == "PASS partitions\n"


def test_verify_all_suites():
    code, out, err = run(["verify", "--suite", "all", "--max-n", "4"])
    assert code == 0
    assert out.splitlines() == [
        "PASS partitions",
        "PASS hessenberg",
        "PASS roots",
        "PASS companion",
        "PASS mf",
    ]


# -- json format -----------------------------------------------------------


def test_json_polynomial_round_trips():
    got = json.loads(out_of(["gfp", "--k", "3", "--n", "3", "--format", "json"]))
    assert got["n"] == 3 and got["k"] == 3
    assert IsobaricPoly.from_json_dict(got) == gfp(3, 3)
    coeffs = {tuple(t["alpha"]): t["coeff"] for t in got["terms"]}
    assert coeffs == {(3, 0, 0): "1", (1, 1, 0): "2", (0, 0, 1): "1"}


def test_json_hessenberg_schema():
    got = json.loads(out_of(["hessenberg", "--weights", "1,1", "--k", "2", "--n", "2", "--format", "json"]))
    m = got["matrix"]
    assert m["n"] == 2 and m["super"] == -1
    assert m["cells"][0][1] == {"coeff": "-1", "t": None}
    assert m["cells"][1][0] == {"coeff": "1", "t": 2}
    assert IsobaricPoly.from_json_dict(got["value"]) == gfp(2, 2)


def test_json_window():
    got = json.loads(out_of(["companion", "--core", "1,1", "--rows", "0..2", "--format", "json"]))
    assert got["k"] == 2 and got["n_lo"] == 0 and got["n_hi"] == 2
    assert [r["cells"] for r in got["rows"]] == [["0", "1"], ["1", "1"], ["1", "2"]]


def test_json_mf():
    got = json.loads(out_of(["mf", "--fn", "mobius", "--p", "2", "--N", "3", "--format", "json"]))
    assert got == {"fn": "mobius", "p": 2, "values": ["1", "-1", "0", "0"]}


def test_json_scalar_value():
    got = json.loads(out_of(["root-gfp", "--q", "1/2", "--k", "1", "--n", "2", "--eval", "1", "--format", "json"]))
    assert got == {"value": "3/8"}


def test_json_verify_report():
    code, out, err = run(["verify", "--suite", "mf", "--max-n", "4", "--format", "json"])
    assert code == 0
    got = json.loads(out)
    assert got == {"results": [{"suite": "mf", "ok": True, "detail": ""}]}


def test_json_mf_root_embeds_verdict():
    code, out, err = run(
        ["mf-root", "--fn", "zeta", "--p", "2", "--N", "3", "--q", "1/2", "--verify", "3", "--format", "json"]
    )
    assert code == 3
    assert json.loads(out)["verify"] == "FAIL"


# -- exit codes ------------------------------------------------------------


def test_usage_errors_exit_1():
    for args in (["frobnicate"], ["gfp"], ["companion", "--core", "1,1", "--rows", "nonsense"]):
        code, out, err = run(args)
        assert code == 1, args
        assert err.startswith("usage error:")


def test_domain_errors_exit_2():
    for args in (
        ["gfp", "--k", "0", "--n", "3"],
        ["root-gfp", "--q", "0", "--k", "2", "--n", "2", "--method", "stirling"],
        ["companion", "--core", "1,0", "--rows", "-3..0"],
        ["mf", "--fn", "nope", "--p", "2", "--N", "3"],
        ["mf", "--fn", "zeta", "--p", "1", "--N", "3"],
        ["companion", "--core", "1,1", "--k", "3", "--rows", "0..2"],
    ):
        code, out, err = run(args)
        assert code == 2, args
        assert err.startswith("error:")


def test_help_exits_0():
    code, out, err = run(["--help"])
    assert code == 0


# -- process-level behavior ------------------------------------------------


def test_module_invocation_byte_identical():
    cmd = [sys.executable, "-m", "isobaric.cli", "different", "--k", "3", "--rows", "0..2"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.decode() == out_of(["different", "--k", "3", "--rows", "0..2"])


def test_negative_row_range_from_shell():
    cmd = [sys.executable, "-m", "isobaric.cli", "companion", "--core", "1,1", "--rows", "-2..2"]
    proc = subprocess.run(cmd, capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout.decode().splitlines()[0] == "row -2:  -1  1"


def test_startup_imports_no_dataclasses():
    # dataclasses drags inspect, ast, dis and tokenize into every iso start.
    code = "import sys, isobaric.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == "[]\n"


def _iso(*argv: str, timeout: float = 60) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "isobaric.cli", *argv], capture_output=True, text=True, timeout=timeout
    )


def test_wide_part_bound_prints_without_traceback():
    # The enumeration recurses over min(n, k) slots only, so k past the
    # interpreter's recursion limit is fine when n is small.
    for argv, want in (
        (("gfp", "--k", "1500", "--n", "1"), "t1\n"),
        (("root-wip", "--weights", "1", "--q", "1/2", "--k", "1200", "--n", "2"), "3/8 t1^2 + 1/2 t2\n"),
    ):
        proc = _iso(*argv)
        assert (proc.returncode, proc.stdout) == (0, want), proc.stderr
        assert "Traceback" not in proc.stderr


def test_oversized_output_refused_up_front():
    # p_80(80) = 15,796,476 terms; the count is predicted, not enumerated.
    proc = _iso("gfp", "--k", "80", "--n", "80", timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: refusing n=80, k=80: the output would have more than 1000000 terms\n"
    for args in (
        ["wip", "--weights", "1,2", "--k", "60", "--n", "70"],
        ["glp", "--k", "3", "--n", "5000"],
        ["hessenberg", "--weights", "id", "--k", "90", "--n", "90"],
        ["root-gfp", "--q", "1/2", "--k", "2", "--n", "10000000", "--method", "det"],
        ["root-wip", "--weights", "1", "--q", "1/2", "--k", "70", "--n", "70"],
        ["conv", "--q1", "1/2", "--q2", "1/3", "--k", "10", "--n", "10000"],
    ):
        code, out, err = run(args)
        assert (code, out) == (2, ""), args
        assert err.startswith("error: refusing") and "more than 1000000 terms" in err
    # The limit is inclusive: p_2(n) = n//2 + 1 reaches 10^6 at n = 1999998.
    _check_terms(2, 1999998)
    with pytest.raises(ValueError):
        _check_terms(2, 2000000)


def test_unbounded_loops_refused_up_front():
    # Each ran until killed before the size limits existed; a term count
    # cannot catch them (one term, or no polynomial at all).
    for argv, what in (
        (("hessenberg", "--weights", "1", "--k", "1", "--n", "100000"), "limited to 300 rows"),
        (("companion", "--core", "1,1", "--rows", "0..100000000"), "over the limit of 20000"),
        (("mf", "--fn", "zeta", "--N", "100000000"), "limited to N <= 1000"),
        (("mf-root", "--fn", "zeta", "--N", "3", "--q", "1/2", "--verify", "1000000000"), "over the limit of 250000"),
    ):
        proc = _iso(*argv, timeout=10)
        assert (proc.returncode, proc.stdout) == (2, ""), argv
        assert proc.stderr.startswith("error: refusing") and what in proc.stderr, proc.stderr


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _refused(argv, what: str) -> None:
    proc = _iso(*argv, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, ""), argv
    assert proc.stderr.startswith("error: refusing") and what in proc.stderr, proc.stderr


def _accepted(argv) -> str:
    proc = _iso(*argv, timeout=10)
    assert proc.returncode == 0 and proc.stderr == "", (argv, proc.stderr)
    return proc.stdout


def test_determinant_products_refused_up_front():
    # k * 2^(k - 1) entry products for a numeric core, times p_k(2k - 2)
    # terms per cell for the generic one; both used to run until killed.
    _refused(("different", "--k", "8", "--det"), "118784 entry products, over the limit of 100000")
    _refused(("different", "--core", _csv(range(1, 15)), "--det"), "114688 entry products")
    for k in (8, 11, 13):  # 53,248 products at k = 13
        ts = range(1, k + 1)
        want = gauss_det(different_matrix(CorePolynomial.numeric(ts)))
        assert _accepted(("different", "--core", _csv(ts), "--det")) == f"det: {want}\n"
    # Generic k = 7: 448 products times p_7(12) = 65 terms, checked at a point.
    out = _accepted(("different", "--k", "7", "--det", "--format", "json"))
    det = IsobaricPoly.from_json_dict(json.loads(out)["det"])
    ts = [Fraction(x) for x in ("1/2", "-2", "3", "1/3", "-1", "5/4", "2")]
    assert det.n == 42 and det.evaluate(ts) == gauss_det(different_matrix(CorePolynomial.numeric(ts)))


def test_matrix_forms_get_the_window_checks():
    # Without --rows, companion builds rows 2-k..1 and different rows 0..k-1.
    for argv, what in (
        (("different", "--k", "24"), "rows 0..23, k=24: the orbit would hold more than 1000000 terms"),
        (("different", "--k", "32"), "more than 1000000 terms"),
        (("companion", "--k", "400"), "rows -398..1, k=400: the orbit would run through 160000 cells"),
        (("companion", "--k", "600"), "360000 cells"),
        (("companion", "--k", "25"), "more than 1000000 terms"),
        (("different", "--k", "16"), "more than 1000000 terms"),
        (("companion", "--core", _csv([1] * 142)), "20164 cells"),
        (("different", "--core", _csv([1] * 142)), "20164 cells"),
    ):
        _refused(argv, what)
    # The accepted edges: 24^2 cells * p_24(24) terms, 15^2 * p_15(28), and
    # 141^2 numeric cells.
    assert len(_accepted(("companion", "--k", "24")).splitlines()) == 24
    assert len(_accepted(("different", "--k", "15")).splitlines()) == 15
    assert _accepted(("companion", "--core", _csv([1] * 141))).splitlines()[-1] == "  ".join(["1"] * 141)
    assert len(_accepted(("different", "--core", _csv([1] * 141))).splitlines()) == 141


def test_root_gfp_matrix_methods_get_the_sweep_bounds():
    # The det, perm and stirling methods run the hessenberg verb's sweep.
    for argv, what in (
        (("--method", "det", "--q", "1/3", "--k", "2", "--n", "1000"), "limited to 300 rows"),
        (("--method", "perm", "--q", "1/3", "--k", "3", "--n", "300"), "more than 500000 term steps"),
        (("--method", "stirling", "--q", "1/3", "--k", "2", "--n", "2000"), "limited to 300 rows"),
        (("--method", "det", "--q", "1/3", "--k", "2", "--n", "301"), "limited to 300 rows"),
        # n * min(n, k) * p_k(n) = 125 * 3 * 1365 term steps
        (("--method", "perm", "--q", "1/3", "--k", "3", "--n", "125"), "more than 500000 term steps"),
    ):
        _refused(("root-gfp", *argv), what)
    for method, k, n in (("det", 2, 300), ("perm", 3, 124), ("stirling", 2, 300)):
        out = _accepted(("root-gfp", "--method", method, "--q", "1/3", "--k", str(k), "--n", str(n)))
        assert out == f"{gfp_root_closed(Fraction(1, 3), k, n)}\n", (method, k, n)


def test_size_limits_at_their_edges():
    # Cheap inputs right at each limit pass; one step past it is refused.
    assert out_of(["mf", "--fn", "epsilon", "--N", "1000"]) == "1" + ",0" * 1000 + "\n"
    assert out_of(["companion", "--core", "0,1", "--rows", "-9999..0"]).endswith("row 0:  0  1\n")
    assert out_of(["mf-root", "--fn", "epsilon", "--N", "3", "--q", "1/2", "--verify", "15626"]).endswith("PASS\n")
    for args in (
        ["mf-root", "--fn", "epsilon", "--N", "1001", "--q", "1/2"],
        ["companion", "--core", "0,1", "--rows", "-10000..0"],
        ["different", "--core", "0,1", "--rows", "1..10000"],
        ["mf-root", "--fn", "epsilon", "--N", "3", "--q", "1/2", "--verify", "15627"],
        ["hessenberg", "--weights", "1", "--k", "1", "--n", "301"],
        # n * min(n, k) * p_k(n) = 126 * 3 * 1387 term steps
        ["hessenberg", "--weights", "1", "--k", "3", "--n", "126"],
        # a generic window holds up to (rows * k) * p_k(hi + k - 1) terms
        ["companion", "--k", "5", "--rows", "0..60"],
    ):
        code, out, err = run(args)
        assert (code, out) == (2, ""), args
        assert err.startswith("error: refusing"), (args, err)
    assert run(["hessenberg", "--weights", "1", "--k", "3", "--n", "40"])[0] == 0
    # Bad values are still left to the library's own messages.
    assert run(["mf-root", "--fn", "zeta", "--N", "3", "--q", "1/2", "--verify", "0"])[2] == (
        "error: --verify takes a fold count >= 1\n"
    )


def test_coefficients_past_the_int_digit_limit_print_in_full():
    # [t1^n] of the 1/2 power is C(2n, n) / 4^n: over 12,000 digits at n = 20000.
    proc = _iso("root-gfp", "--q", "1/2", "--k", "1", "--n", "20000", timeout=60)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    coeff, mono = proc.stdout.split(" ")
    assert mono == "t1^20000\n"
    if hasattr(sys, "set_int_max_str_digits"):
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            assert coeff == str(Fraction(comb(40000, 20000), 4**20000))
            # main() lifts the limit for its output only: argv parsing and
            # the caller keep theirs.
            sys.set_int_max_str_digits(4300)
            assert run(["root-gfp", "--q", "1/2", "--k", "1", "--n", "1"])[0] == 0
            assert sys.get_int_max_str_digits() == 4300
            code, out, err = run(["root-gfp", "--q", "9" * 4301, "--k", "1", "--n", "1"])
            assert (code, out) == (1, "") and err.startswith("usage error:")
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(saved)
