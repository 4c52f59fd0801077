"""Host speed reference for the benchmark's reported times.

A shared 2-core host can change speed by up to 1.6x between runs, and over
seconds within one, with CPU time tracking wall time: then the spread comes
from the host, not from the program.  So each job's latency is paired with
runs of a fixed reference loop taken just before and just after it (pooled
over neighbouring jobs, see ``run.scaled_latencies``), and the reported
times are scaled to a host on which that loop takes ``NOMINAL_S``:

    reported = measured * NOMINAL_S / reference

The loop does the kind of work the library does (``Fraction`` arithmetic,
tuple-keyed dict stores) and never calls it, so a change to the library
moves the reported times and a change of host speed mostly does not.  The
unscaled times are kept in the run's record.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# The loop's typical time on a shared 2-core Intel Xeon host, Python 3.11
# (2.7 ms at its fastest, 5 ms at its slowest).
NOMINAL_S = 0.004


def reference_seconds() -> float:
    t0 = perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 1200):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        table[(i, i % 13)] = acc
    return perf_counter() - t0


def scale(measured: float, reference: float) -> float:
    return measured * NOMINAL_S / reference
