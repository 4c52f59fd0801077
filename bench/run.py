"""Benchmark of the isobaric library and its ``iso`` CLI (stdlib only).

Run from the repository root:

    python3 bench/run.py --workload closed --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py`` for the job families and why each exists):

* ``closed``    closed formulas at large degree; enumeration-bound.
* ``routes``    recursion, Hessenberg, orbit and convolution routes;
                sparse polynomial arithmetic bound.
* ``dirichlet`` the numeric branches: Dirichlet powers, numeric orbits,
                determinants and Hessenberg values over ``Fraction``.
* ``cli``       whole ``iso`` invocations, one fresh process each.

Every workload is a closed loop with one client: a job starts when the
previous one has returned.  With ``--trace 0`` a run spawns fresh
interpreters to time set-up (interpreter start plus ``import isobaric``),
keeps the last one, and runs whole rounds of jobs in it until ``--seconds``
seconds of job time have passed.  Reported times are scaled to a reference
host speed measured beside each job (see ``hostspeed.py``), and the budget
counts scaled time too, so a run does the same work on a slow host.  Every job is checked against an independent route between jobs, off
the clock.  The last stdout line is one JSON object with the end-to-end
metrics; the full record (environment, per-job digests, sharing, failures)
goes to ``bench/out/<workload>-seed<seed>-trace<t>.json``.

With ``--trace 1`` the run measures per-module layers instead: it runs the
jobs untraced for half the time, then the same jobs again in a fresh
interpreter with every public library function wrapped in a span (see
``tracing.py``), checks that both runs produced identical digests, and
reports calls, self time and work counts per module.  Spans are written to
``bench/out/<workload>-seed<seed>.spans.json.gz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from typing import Optional

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKER = os.path.join(BENCH, "worker.py")

sys.path.insert(0, BENCH)
import hostspeed  # noqa: E402
import oracles  # noqa: E402

WORKLOADS = ("closed", "routes", "dirichlet", "cli")

# Fresh interpreters timed per run for setup_s, the last one kept for jobs.
SETUP_SPAWNS = 15
# Spawns per run for each of cli.interp_s and cli.import_s (traced runs).
FLOOR_SPAWNS = 7
# The workload digest covers this many jobs, run past the clock if needed,
# so that it is the same on every run of one seed.
DIGEST_JOBS = 24
# Jobs whose reference-loop times are pooled to scale one job's latency.
REFERENCE_WINDOW = 5
# Whole-run limit; the slowest single job is a few seconds.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
LAYER_NAMES = ("partitions", "polynomials", "hessenberg", "roots", "companion", "multiplicative", "verify", "cli")
PER_LAYER = {
    **{f"{layer}.{m}": u for layer in LAYER_NAMES for m, u in (("calls", "count"), ("self_s", "s"))},
    "partitions.vectors": "count",
    "polynomials.add_calls": "count",
    "polynomials.mul_calls": "count",
    "polynomials.times_part_calls": "count",
    "polynomials.terms_out": "count",
    "roots.coeff_calls": "count",
    "companion.rows": "count",
    "companion.det_calls": "count",
    "multiplicative.values": "count",
    "cli.main_s": "s",
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "out.max_coeff_bits": "bits",
    "trace.overhead_ratio": "ratio",
    "bench.self_s": "s",
    "trace.job_s": "s",
}

IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import isobaric.cli; print(time.perf_counter() - t)"
)


class BenchError(Exception):
    pass


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Worker:
    """One fresh ``worker.py`` process; ``ready_s`` is spawn-to-ready time,
    and ``reference_s`` the reference loop's time around the spawn."""

    def __init__(self, deadline: Deadline) -> None:
        before = hostspeed.reference_seconds()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            bufsize=0,
        )
        line = b""
        while not line.endswith(b"\n"):
            ready, _, _ = select.select([self.proc.stdout], [], [], deadline.left())
            if not ready:
                continue
            chunk = os.read(self.proc.stdout.fileno(), 1)
            if not chunk:
                raise BenchError(f"worker exited before ready (exit {self.proc.wait()})")
            line += chunk
        self.ready_s = time.perf_counter() - t0
        self.reference_s = (before + hostspeed.reference_seconds()) / 2
        if line != b"ready\n":
            raise BenchError(f"worker said {line!r} instead of ready")

    def run(self, spec: Optional[dict], deadline: Deadline) -> Optional[dict]:
        payload = (json.dumps(spec) if spec is not None else "") + "\n"
        try:
            out, _ = self.proc.communicate(payload.encode(), timeout=deadline.left())
        except subprocess.TimeoutExpired:
            raise BenchError("worker exceeded the run's time limit") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited {self.proc.returncode}")
        return json.loads(out.decode().strip().splitlines()[-1]) if spec is not None else None

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _spawn_seconds(code: str, deadline: Deadline) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=deadline.left()
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{code!r} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return elapsed, proc.stdout


def scaled_latencies(records: list[dict]) -> list[float]:
    """Latencies at the reference host speed (see ``hostspeed.py``).  Each
    job is paired with the median reference time of the five jobs around it,
    which follows the host's drift without one noisy sample's jitter."""
    refs = [r["reference_s"] for r in records]
    half = REFERENCE_WINDOW // 2
    return [
        hostspeed.scale(r["latency_s"], statistics.median(refs[max(0, i - half) : i + half + 1]))
        for i, r in enumerate(records)
    ]


def timing(records: list[dict], scaled: bool = True) -> dict:
    """End-to-end job metrics over the timed records, tail as defined by the
    highest percentile that leaves at least 10 jobs beyond it.  ``scaled``
    reports times at the reference host speed."""
    raw = scaled_latencies(records) if scaled else [r["latency_s"] for r in records]
    lat = sorted(x for x, r in zip(raw, records) if r["timed"])
    n = len(lat)
    idx = n - 11 if n > 10 else n - 1
    return {
        "jobs": n,
        "jobs_per_s": n / sum(lat),
        "job_p50_ms": statistics.median(lat) * 1000,
        "job_tail_ms": lat[idx] * 1000,
        "tail_percentile": 100 * (idx + 1) / n,
        "tail_jobs_beyond": n - 1 - idx,
    }


def sharing(records: list[dict]) -> dict:
    """Input size and work shared between the timed jobs of one run."""
    seen_keys: set[str] = set()
    seen_enum: set[tuple[int, int]] = set()
    key_repeats = enum_jobs = enum_repeats = 0
    terms = []
    for r in records:
        if not r["timed"]:
            continue
        key = json.dumps(r["key"])
        key_repeats += key in seen_keys
        seen_keys.add(key)
        enum = [tuple(e) for e in r["enum"]]
        terms.append(sum(oracles.partition_count(n, k) for n, k in enum))
        if enum:
            enum_jobs += 1
            enum_repeats += all(e in seen_enum for e in enum)
            seen_enum.update(enum)
    jobs = len(terms)
    return {
        "predicted_terms_total": sum(terms),
        "predicted_terms_median": statistics.median(terms) if terms else 0,
        "predicted_terms_max": max(terms, default=0),
        "key_repeat_share": key_repeats / jobs if jobs else 0.0,
        "enum_jobs": enum_jobs,
        "enum_repeat_share": enum_repeats / enum_jobs if enum_jobs else 0.0,
    }


def workload_digest(records: list[dict]) -> dict:
    first = [r["digest"] for r in records[:DIGEST_JOBS]]
    return {"sha256": hashlib.sha256("\n".join(first).encode()).hexdigest(), "jobs": len(first)}


def job_table(records: list[dict]) -> list[dict]:
    """Per job: key, whether timed, latencies, predicted terms and digest."""
    scaled = scaled_latencies(records)
    return [
        {
            "key": r["key"],
            "timed": r["timed"],
            "latency_s": s,
            "unscaled_latency_s": r["latency_s"],
            "predicted_terms": sum(oracles.partition_count(n, k) for n, k in r["enum"]),
            "digest": r["digest"],
        }
        for r, s in zip(records, scaled)
    ]


def environment(worker_result: dict) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": sys.version.split()[0],
        "executable": os.path.basename(sys.executable),
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "bytecode_writing_off": worker_result.get("dont_write_bytecode"),
    }


def _spec(workload: str, seed: int, seconds: float, size: str, **extra) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "size": size,
        "digest_jobs": DIGEST_JOBS,
        "wall_limit": RUN_LIMIT_S,
        **extra,
    }


def _failures(records: list[dict]) -> list[dict]:
    return [{"job": i, "key": r["key"], "reason": r["reason"]} for i, r in enumerate(records) if not r["ok"]]


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> tuple[dict, dict]:
    """One benchmark run: (printed result, full record written to bench/out)."""
    deadline = Deadline(RUN_LIMIT_S)
    workers: list[Worker] = []
    try:
        if not trace:
            ready, references = [], []
            for i in range(SETUP_SPAWNS):
                workers.append(Worker(deadline))
                ready.append(workers[-1].ready_s)
                references.append(workers[-1].reference_s)
                if i < SETUP_SPAWNS - 1:
                    workers[-1].run(None, deadline)
            res = workers[-1].run(_spec(workload, seed, seconds, size), deadline)
            records = res["records"]
            t = timing(records)
            metrics = {
                "jobs_per_s": t["jobs_per_s"],
                "job_p50_ms": t["job_p50_ms"],
                "job_tail_ms": t["job_tail_ms"],
                "setup_s": statistics.median(hostspeed.scale(r, f) for r, f in zip(ready, references)),
                "peak_rss_mib": res["peak_rss_mib"],
            }
            units = END_TO_END
            detail = {
                "timing": t,
                "timing_unscaled": timing(records, scaled=False),
                "setup_ready_s": ready,
                "setup_reference_s": references,
                "max_coeff_bits": res["max_coeff_bits"],
            }
            failed = len(_failures(records))
            attempted = len(records)
        else:
            interp = [_spawn_seconds("pass", deadline)[0] for _ in range(FLOOR_SPAWNS)]
            imports = [float(_spawn_seconds(IMPORT_SNIPPET, deadline)[1]) for _ in range(FLOOR_SPAWNS)]
            in_process = workload == "cli"
            workers.append(Worker(deadline))
            plain = workers[-1].run(_spec(workload, seed, seconds / 2, size, in_process=in_process), deadline)
            workers.append(Worker(deadline))
            os.makedirs(OUT, exist_ok=True)
            spans_path = os.path.join(OUT, f"{workload}-seed{seed}.spans.json.gz")
            # The traced pass reruns exactly the untraced pass's jobs.
            res = workers[-1].run(
                _spec(
                    workload,
                    seed,
                    seconds / 2,
                    size,
                    in_process=in_process,
                    trace=True,
                    max_jobs=len(plain["records"]),
                    wall_limit=max(4 * seconds, 10.0),
                    spans_path=spans_path,
                ),
                deadline,
            )
            records = res["records"]
            common = min(len(records), len(plain["records"]))
            mismatched = sum(plain["records"][i]["digest"] != records[i]["digest"] for i in range(common))
            layers = res["layers"]
            overhead = sum(scaled_latencies(records)[:common]) / sum(scaled_latencies(plain["records"])[:common])
            metrics = {name: layers.get(name, 0) for name in PER_LAYER}
            metrics.update(
                {
                    "cli.interp_s": statistics.median(interp),
                    "cli.import_s": statistics.median(imports),
                    "out.max_coeff_bits": res["max_coeff_bits"],
                    "trace.overhead_ratio": overhead,
                }
            )
            units = PER_LAYER
            self_total = sum(layers[f"{layer}.self_s"] for layer in LAYER_NAMES) + layers["bench.self_s"]
            detail = {
                "untraced_timing": timing(plain["records"]),
                "traced_jobs": len(records),
                "digest_mismatches": mismatched,
                "layers": layers,
                "self_time_sum_s": self_total,
                "traced_latency_sum_s": sum(r["latency_s"] for r in records),
                "interp_s": interp,
                "import_s": imports,
                "spans_file": os.path.relpath(spans_path, ROOT),
                "untraced_workload_digest": workload_digest(plain["records"]),
            }
            failed = len(_failures(records)) + len(_failures(plain["records"])) + mismatched
            attempted = len(records) + len(plain["records"])
    finally:
        for w in workers:
            w.stop()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "result": result,
        "failed_ratio": failed / attempted,
        "failures": _failures(records),
        "environment": environment(res),
        "sharing": sharing(records),
        "workload_digest": workload_digest(records),
        **detail,
        "jobs": job_table(records),
    }
    return result, record


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through measure()'s cleanup so no worker outlives us.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "isobaric", "__init__.py")):
        print(f"error: no isobaric package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        t = record["timing"]
        print(f"tail = p{t['tail_percentile']:.2f} of {t['jobs']} jobs")
    print(f"failed {result['failed']} of {result['attempted']}; workload digest {record['workload_digest']['sha256'][:16]}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
