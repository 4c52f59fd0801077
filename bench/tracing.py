"""Per-module spans, recorded from outside the library.

``Tracer.install`` rebinds the public functions of every ``isobaric`` module
(the names in its ``__all__``) and the ``IsobaricPoly`` arithmetic methods to
recording wrappers.  The rebinding covers every ``isobaric.*`` module that
imported a name, so nested calls such as ``wip_closed -> exponent_vectors``
become child spans.  Nothing under ``src/`` is edited; ``uninstall`` puts the
originals back.

Each span records name, start, end, parent span and job id.  Spans are kept
in flat arrays in memory and written out once, when the run ends.  A layer is
one module; its self time is its spans' time minus their child spans' time.
The job itself is a root span of layer ``bench``, so the self times of all
layers plus ``bench`` add up to the traced job time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Optional

LAYERS = ("partitions", "polynomials", "hessenberg", "roots", "companion", "multiplicative", "verify", "cli")
POLY_METHODS = ("__add__", "__sub__", "__neg__", "__mul__", "scale", "times_part", "evaluate")


def _vectors(result) -> int:
    return len(result)


def _rows(result) -> int:
    return result.n_hi - result.n_lo + 1


def _values(result) -> int:
    return len(result.values)


# Work counts taken from a span's result: span name -> (counter, measure).
WORK = {
    "partitions.exponent_vectors": ("partitions.vectors", _vectors),
    "companion.companion_window": ("companion.rows", _rows),
    "companion.different_window": ("companion.rows", _rows),
    "multiplicative.local_power": ("multiplicative.values", _values),
}

# Call counts of single span names, reported under a layer's own name.
CALLS = {
    "polynomials.add_calls": "IsobaricPoly.__add__",
    "polynomials.mul_calls": "IsobaricPoly.__mul__",
    "polynomials.times_part_calls": "IsobaricPoly.times_part",
    "roots.coeff_calls": "roots.wip_root_coeff",
    "companion.det_calls": "companion.dense_det",
}


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.job = -1
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.job_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.work: Counter = Counter()
        self._undo: list[tuple[Any, str, Any]] = []
        self._poly_cls: Optional[type] = None

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        work = WORK.get(name)
        poly_cls = self._poly_cls
        counts_terms = layer == "polynomials"
        stack, start, end = self.stack, self.start, self.end
        name_id, parent, job_id = self.name_id, self.parent, self.job_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            job_id.append(self.job)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if work is not None:
                self.work[work[0]] += work[1](result)
            if counts_terms and type(result) is poly_cls:
                self.work["polynomials.terms_out"] += len(result)
            return result

        return wrapper

    def run_job(self, job: int, call: Callable[[], Any]) -> Any:
        """Run one job as the root span of layer ``bench``."""
        self.job = job
        return self._root(call)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"isobaric.{layer}")
        from isobaric.polynomials import IsobaricPoly

        self._poly_cls = IsobaricPoly
        self._root = self._wrap("bench", "bench.job", lambda call: call())
        wrappers: dict[Callable, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules[f"isobaric.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(layer, f"{layer}.{attr}", fn)
        modules = [m for n, m in list(sys.modules.items()) if n == "isobaric" or n.startswith("isobaric.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, attr, wrappers[value])
        for meth in POLY_METHODS:
            self._set(IsobaricPoly, meth, self._wrap("polynomials", f"IsobaricPoly.{meth}", IsobaricPoly.__dict__[meth]))

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reporting ---------------------------------------------------------

    def layers(self) -> dict[str, float]:
        """Per-layer calls and self time, the work counters, and the job time
        the self times add up to."""
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        calls_by_name = Counter(self.name_id)
        out: dict[str, float] = {}
        for layer in LAYERS + ("bench",):
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for i in range(n):
            layer = self.layer_of[self.name_id[i]]
            out[f"{layer}.self_s"] += own[i]
        for nid, count in calls_by_name.items():
            out[f"{self.layer_of[nid]}.calls"] += count
        ids = {name: i for i, name in enumerate(self.names)}
        for metric, name in CALLS.items():
            out[metric] = calls_by_name.get(ids.get(name, -1), 0)
        for metric in sorted({w[0] for w in WORK.values()} | {"polynomials.terms_out"}):
            out[metric] = self.work.get(metric, 0)
        main_id = ids.get("cli.main", -1)
        out["cli.main_s"] = sum(self.end[i] - self.start[i] for i in range(n) if self.name_id[i] == main_id)
        out["trace.job_s"] = sum(self.end[i] - self.start[i] for i in range(n) if self.parent[i] < 0)
        out["trace.spans"] = n
        return out

    def write(self, path: str) -> None:
        """All spans as one gzipped JSON object of parallel columns; times
        are microseconds from the first span's start."""
        base = min(self.start) if len(self.start) else 0.0
        doc = {
            "names": self.names,
            "layers": self.layer_of,
            "name": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "job": self.job_id.tolist(),
            "start_us": [round((t - base) * 1e6) for t in self.start],
            "end_us": [round((t - base) * 1e6) for t in self.end],
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
