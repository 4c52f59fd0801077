"""Self-test of the benchmark on tiny sizes; exits 0 when it holds.

Run from the repository root:

    python3 bench/selftest.py

It runs every workload untraced and traced with every size range clamped to
at most 5, and checks that each end-to-end and per-layer metric is emitted
with its unit and that no job failed.  It then hands every job family's
checker a deliberately corrupted output and requires a failure, so that a
checker cannot pass silently.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from random import Random

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from isobaric.companion import OrbitWindow  # noqa: E402
from isobaric.multiplicative import LocalMF  # noqa: E402
from isobaric.polynomials import IsobaricPoly  # noqa: E402


def corrupt(out):
    """A wrong copy of a job output, of the same type."""
    if isinstance(out, IsobaricPoly):
        extra = IsobaricPoly(out.n, out.k, [((out.n,) + (0,) * (out.k - 1), 1)])
        return out + extra
    if isinstance(out, bool):
        return not out
    if isinstance(out, Fraction):
        return out + 1
    if isinstance(out, LocalMF):
        return LocalMF(out.values[:-1] + (out.values[-1] + 1,), out.label)
    if isinstance(out, OrbitWindow):
        rows = {n: out.row(n) for n in range(out.n_lo, out.n_hi + 1)}
        rows[out.n_hi] = tuple(corrupt(e) for e in rows[out.n_hi])
        return type(out)(out.core, out.n_lo, out.n_hi, rows)
    if isinstance(out, tuple) and len(out) == 3 and isinstance(out[1], str):
        code, stdout, stderr = out
        return code, stdout + "x", stderr
    if isinstance(out, list):
        return [corrupt(out[0])] + out[1:]
    raise TypeError(f"cannot corrupt {type(out).__name__}")


def check_checkers() -> list[str]:
    problems = []
    canon = worker.Canon()
    for name in workloads.WORKLOADS:
        for i, make in enumerate(dict.fromkeys(workloads.STRATA[name])):
            draw = workloads.Draw(Random(i), tiny=True)
            draw.bands = workloads.BANDS[name]
            job = make(draw, True) if name == "cli" else make(draw)
            label = f"{name}/{job.key[0]}"
            try:
                out, err = job.call(), None
            except Exception as exc:
                out, err = None, exc
            reason, _ = worker.judge(job, out, err, canon)
            if reason is not None:
                problems.append(f"{label}: correct output rejected: {reason}")
                continue
            if job.expect is not None:
                bad = [(None, None), (None, RuntimeError("wrong refusal"))]
            else:
                bad = [(corrupt(out), None), (None, RuntimeError("unexpected"))]
            for bad_out, bad_err in bad:
                if worker.judge(job, bad_out, bad_err, canon)[0] is None:
                    problems.append(f"{label}: corrupted output accepted")
    return problems


def check_runs() -> list[str]:
    problems = []
    layer_calls = dict.fromkeys(run.LAYER_NAMES, 0)
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result, record = run.measure(name, 0, 0.2, trace, size="tiny")
            label = f"{name} trace={int(trace)}"
            units = run.PER_LAYER if trace else run.END_TO_END
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units:
                problems.append(f"{label}: metrics {sorted(got)} differ from {sorted(units)}")
            if result["failed"] or record["failed_ratio"] != 0 or not result["correct"]:
                problems.append(f"{label}: failures {record['failures'][:3]}")
            if not trace:
                for k in units:
                    if not result["metrics"][k]["value"] > 0:
                        problems.append(f"{label}: {k} is not positive")
                continue
            m = {k: v["value"] for k, v in result["metrics"].items()}
            for layer in layer_calls:
                layer_calls[layer] += m[f"{layer}.calls"]
            if record["digest_mismatches"]:
                problems.append(f"{label}: traced digests differ from untraced ones")
            if abs(record["self_time_sum_s"] - m["trace.job_s"]) > 1e-6:
                problems.append(f"{label}: layer self times do not add up to the job time")
            if name == "closed" and (m["hessenberg.calls"] or m["companion.calls"]):
                problems.append(f"{label}: closed reached the hessenberg or companion layer")
    problems += [f"layer {layer} was never called" for layer, n in layer_calls.items() if not n]
    return problems


def main() -> int:
    problems = check_checkers() + check_runs()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
