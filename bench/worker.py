"""Job process of the benchmark; ``run.py`` starts it, one per measurement.

Protocol on stdin/stdout: the worker imports ``isobaric`` from ``src/`` and
prints ``ready``, so the parent can time interpreter start plus import.  It
then reads one JSON spec line (an empty line means exit), runs that spec's
closed loop of jobs and prints one JSON result line.  Anything else the
library or the jobs print goes to stderr.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import sys
import time
from fractions import Fraction
from random import Random
from typing import Any, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Canon:
    """JSON-able canonical form of a job output, tracking the largest
    numerator or denominator seen, in bits."""

    def __init__(self) -> None:
        from isobaric.companion import OrbitWindow
        from isobaric.multiplicative import LocalMF
        from isobaric.polynomials import IsobaricPoly

        self.types = (IsobaricPoly, OrbitWindow, LocalMF)
        self.bits = 0

    def __call__(self, x: Any) -> Any:
        IsobaricPoly, OrbitWindow, LocalMF = self.types
        if isinstance(x, Fraction):
            self.bits = max(self.bits, abs(x.numerator).bit_length(), x.denominator.bit_length())
            return str(x)
        if isinstance(x, IsobaricPoly):
            return {"n": x.n, "k": x.k, "terms": [[list(a.multiplicities), self(c)] for a, c in x.sorted_terms()]}
        if isinstance(x, OrbitWindow):
            rows = [[self(e) for e in x.row(n)] for n in range(x.n_lo, x.n_hi + 1)]
            return {"n_lo": x.n_lo, "n_hi": x.n_hi, "rows": rows}
        if isinstance(x, LocalMF):
            return {"values": [self(v) for v in x.values]}
        if isinstance(x, (list, tuple)):
            return [self(e) for e in x]
        if isinstance(x, str):
            # CLI output: the integers printed in it.
            for digits in re.findall(r"\d+", x):
                self.bits = max(self.bits, int(digits).bit_length())
            return x
        if x is None or isinstance(x, (bool, int)):
            return x
        raise TypeError(f"no canonical form for {type(x).__name__}")


def judge(job, out: Any, err: Optional[BaseException], canon: Canon) -> tuple[Optional[str], Any]:
    """(failure reason or None, canonical output) of one finished job."""
    if err is not None:
        form = {"error": type(err).__name__, "message": str(err)}
        if job.expect is not None and isinstance(err, job.expect):
            return None, form
        want = f" instead of {job.expect.__name__}" if job.expect else ""
        return f"raised {type(err).__name__}{want}: {err}", form
    if job.expect is not None:
        return f"returned instead of raising {job.expect.__name__}", canon(out)
    try:
        reason = job.check(out)
    except Exception as exc:  # a crashing check is a failed job, not a crashed run
        reason = f"check raised {type(exc).__name__}: {exc}"
    return reason, canon(out)


def digest(form: Any) -> str:
    return hashlib.sha256(json.dumps(form, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def run(spec: dict) -> dict:
    """Run jobs until ``seconds`` of job time (at the reference host speed)
    have passed and a round is complete, or until ``max_jobs`` jobs; then on
    to ``digest_jobs`` jobs if fewer ran.  Checks and digests run between
    jobs, off the clock."""
    import hostspeed
    import tracing
    from workloads import Draw, stream

    in_process = spec.get("in_process", False)
    jobs = stream(spec["workload"], Draw(Random(spec["seed"]), spec["size"] == "tiny"), in_process)
    tracer = None
    if spec.get("trace"):
        tracer = tracing.Tracer()
        tracer.install()
    max_jobs = spec.get("max_jobs")
    wall_end = time.monotonic() + spec["wall_limit"]
    canon = Canon()
    records: list[dict] = []
    busy = 0.0
    peak = None
    round_open = False
    while True:
        if max_jobs is None:
            # The clock stops at the end of a round, so every run times
            # whole rounds of the stratified mix.
            timed = busy < spec["seconds"] or round_open
        else:
            timed = len(records) < max_jobs and time.monotonic() < wall_end
        if not timed:
            if peak is None:
                peak = peak_rss_mib(children=spec["workload"] == "cli" and not in_process)
            if max_jobs is not None or len(records) >= spec["digest_jobs"]:
                break
        job = next(jobs)
        round_open = not job.round_end
        err = out = None
        reference = hostspeed.reference_seconds()
        if tracer is not None:
            tracer.on = True
        t0 = time.perf_counter()
        try:
            out = tracer.run_job(len(records), job.call) if tracer is not None else job.call()
        except Exception as exc:  # judged below: expected refusal or failure
            err = exc
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.on = False
        # Host speed on both sides of the job, off the clock.
        reference = (reference + hostspeed.reference_seconds()) / 2
        if timed:
            # Job time counts at the reference host speed, so that a run does
            # the same amount of work, and so the same number of jobs, on a
            # slow moment of the host as on a fast one.
            busy += hostspeed.scale(latency, reference)
        reason, form = judge(job, out, err, canon)
        records.append(
            {
                "key": job.key,
                "timed": timed,
                "latency_s": latency,
                "reference_s": reference,
                "digest": digest(form),
                "ok": reason is None,
                "reason": reason,
                "enum": job.enum,
            }
        )
        del out, err, form
    result = {
        "records": records,
        "peak_rss_mib": peak,
        "max_coeff_bits": canon.bits,
        "dont_write_bytecode": sys.dont_write_bytecode,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layers()
        if spec.get("spans_path"):
            tracer.write(spec["spans_path"])
    return result


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    import isobaric  # noqa: F401  (the import is what set-up time measures)

    proto.write("ready\n")
    proto.flush()
    line = sys.stdin.readline()
    if not line.strip():
        return 0
    proto.write(json.dumps(run(json.loads(line))) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
