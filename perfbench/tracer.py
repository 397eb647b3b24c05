"""Spans around qpswf's public functions, installed from outside the package.

A Tracer replaces each target function with a wrapper that records a span
(id, name, start, end, parent span, iteration id) in memory.  The wrapper is
put in place of every reference to the original inside the loaded qpswf
modules, so names imported with `from .x import y` are traced too.  Spans
are written out once, when the traced process ends.

Functions that take under 1% of any workload in cProfile (the quaternion,
rng, svgplot and errors modules) are not wrapped; their time counts in the
caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path


def _file_mb(args, kwargs, result) -> dict:
    path = kwargs.get("path", args[0] if args else None)
    return {"mb": os.path.getsize(path) / 2 ** 20}


def _steps(args, kwargs, result) -> dict:
    return {"steps": result.steps}


# extra span fields, computed from (args, kwargs, result) after the call
EXTRAS = {"mb": _file_mb, "steps": _steps}

# (module under qpswf, attribute, name of an extra field or None);
# a dotted attribute names a method
TARGETS = (
    ("prolate", "eig_prolate_1d", None),
    ("prolate", "build_basis", None),
    ("prolate", "build_qpswf_basis", None),
    ("prolate", "verify_lowpass", None),
    ("prolate", "verify_finite_qft", None),
    ("prolate", "verify_allpass", None),
    ("prolate", "gram_matrix", None),
    ("prolate", "sinc_kernel_ld", None),
    ("qgrid_io", "save_qgrid", "mb"),
    ("qgrid_io", "load_qgrid", "mb"),
    ("qgrid_io", "save_spectrum", None),
    ("qgrid_io", "load_spectrum", None),
    ("qft", "forward_qft", None),
    ("qft", "inverse_qft", None),
    ("concentration", "band_limit", None),
    ("concentration", "sweep_admissible_region", None),
    ("concentration", "ComboSignal.report", None),
    ("extrapolate", "pg_run", "steps"),
    ("extrapolate", "pg_step", None),
    ("extrapolate", "closed_form_band_spectra", None),
    ("signals", "band_rep_from_time_nodal", None),
    ("signals", "BandRep.component_values", None),
    ("signals", "BandRep.total_energy", None),
    ("signals", "element_band_rep", None),
    ("grid", "energy", None),
)
ALLOC_TARGET = "prolate.build_basis"


class Tracer:
    """In-memory span recorder for one process.

    tag makes span ids unique across the processes of one run; root is the
    id of the span (in another process) that caused this one.  With alloc,
    build_basis also records its tracemalloc peak; that slows it, so alloc
    runs are used for the allocation figure only.
    """

    def __init__(self, tag: str, root: str = None, iteration=None, alloc: bool = False):
        self.tag = tag
        self.iteration = iteration
        self.alloc = alloc
        self.spans = []
        self._stack = [root]
        self._patched = []

    def _open(self, name: str, start: float) -> dict:
        span = {"id": f"{self.tag}.{len(self.spans)}", "name": name,
                "parent": self._stack[-1], "iteration": self.iteration,
                "start": start, "end": None}
        self.spans.append(span)
        return span

    def record(self, name: str, start: float, end: float) -> dict:
        span = self._open(name, start)
        span["end"] = end
        return span

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name."""
        span = self._open(name, time.perf_counter())
        self._stack.append(span["id"])
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, extra_field):
        extra = EXTRAS.get(extra_field)
        alloc = self.alloc and name == ALLOC_TARGET

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if alloc:
                tracemalloc.start()
            span = self._open(name, time.perf_counter())
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if alloc:
                    span["alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
            if extra is not None:
                span.update(extra(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Replace every target, and every qpswf reference to it, by a wrapper."""
        targets = [(importlib.import_module(f"qpswf.{mod}"), attr, extra_field)
                   for mod, attr, extra_field in TARGETS]
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "qpswf" or n.startswith("qpswf.")) and m is not None]
        for module, attr, extra_field in targets:
            name = f"{module.__name__.split('.', 1)[1]}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, extra_field))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, extra_field)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.spans))


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_totals(spans) -> dict:
    """name -> {calls, total_s, self_s, extra sums / alloc max} over the spans."""
    selfs = self_times(spans)
    totals = defaultdict(lambda: defaultdict(float))
    for s in spans:
        t = totals[s["name"]]
        t["calls"] += 1
        t["total_s"] += s["end"] - s["start"]
        t["self_s"] += selfs[s["id"]]
        for key in EXTRAS:
            if key in s:
                t[key] += s[key]
        if "alloc_peak_mb" in s:
            t["alloc_peak_mb"] = max(t["alloc_peak_mb"], s["alloc_peak_mb"])
    return totals
