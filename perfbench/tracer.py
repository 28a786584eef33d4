"""Spans around the calls into finconv's public functions, taken from outside.

The tracer wraps each function listed in LAYERS and installs the wrapper on
every name that refers to it in the finconv package, so a call made through
`finconv.levy.conv_exp` or `finconv.cli.verify_semigroup` is caught too. A
span records its name, start, end, parent span, the phase of the run, the
structure's kind and size, and a few per-function facts. Spans stay in
memory and are written once, at the end.

Calls that finconv makes to its private kernels (divisibility calls
_convolve_raw and _power_raw directly) are invisible here, so their time
counts as the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
import tracemalloc

import numpy as np

LAYERS = {
    "structures": ("verify_semigroup", "evaluate_region", "definable_set"),
    "formulas": ("parse_formula",),
    "measures": ("convolve", "conv_power", "conv_exp", "tv_distance"),
    "divisibility": ("nth_root", "is_infinitely_divisible", "fit_levy_khintchine", "semilattice_root_oracle"),
    "levy": ("levy_from_exponential", "levy_from_root", "validate_levy", "export_path", "parse_path_csv"),
    "fileio": ("load_model", "load_measure", "load_path"),
    "cli": ("main",),
}
ALLOC_TRACKED = "structures.verify_semigroup"


def _facts(name: str, args, kwargs, result, structure) -> dict:
    """Per-call counts the extra per-layer metrics are built from."""
    if name == "structures.verify_semigroup":
        return {"cells": structure.size ** 3}
    if name == "measures.conv_exp":
        return {"rate": float(args[1] if len(args) > 1 else kwargs["r"])}
    if name == "levy.validate_levy":
        return {"pairs": result.increments_checked + result.divisions_checked}
    if name == "levy.export_path":
        return {"bytes": len(result.encode())}
    if name == "fileio.load_model":
        return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}
    return {}


def _structure_of(args, result):
    for obj in (*args, result):
        s = getattr(obj, "structure", obj)
        if hasattr(s, "semigroup_spec"):
            return s
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._kinds: dict[int, tuple] = {}

    def install(self) -> None:
        modules = [importlib.import_module(f"finconv.{layer}") for layer in LAYERS]
        modules += [m for n, m in list(sys.modules.items()) if n == "finconv" or n.startswith("finconv.")]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"finconv.{layer}")
            for fn in names:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _kind(self, s) -> str:
        """group, semilattice or monoid once certified; model before that."""
        if s is None:
            return ""
        known = self._kinds.get(id(s))
        if known is not None and known[0] is s:
            return known[1]
        cert = s.certificate
        if cert is None:
            return "model"
        t = cert.add_table
        i = np.arange(s.size)
        if (t[i, i] == i).all():
            kind = "semilattice"
        elif (np.sort(t, axis=1) == i).all():
            kind = "group"
        else:
            kind = "monoid"
        self._kinds[id(s)] = (s, kind)  # holding s keeps its id from being reused
        return kind

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            alloc = name == ALLOC_TRACKED and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                facts = {}
                if alloc:
                    facts["alloc"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                s = _structure_of(args, result)
                if result is not None:
                    facts.update(_facts(name, args, kwargs, result, s))
                self.spans[index] = [name, self.phase, start, end, parent,
                                     self._kind(s), s.size if s is not None else 0, facts]

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    names = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            base = f"{layer}.{fn}"
            names += [(f"{base}.calls", "count", "lower"), (f"{base}.busy_s", "s", "lower"),
                      (f"{base}.self_s", "s", "lower")]
    names += [
        ("structures.verify_semigroup.cells", "count", "lower"),
        ("structures.verify_semigroup.ns_per_cell", "ns", "lower"),
        ("structures.verify_semigroup.peak_alloc_mb", "MB", "lower"),
        ("measures.conv_exp.rate_sum", "1", "lower"),
        ("divisibility.nth_root.p50_ms", "ms", "lower"),
        ("levy.validate_levy.pairs", "count", "higher"),
        ("levy.validate_levy.us_per_pair", "us", "lower"),
        ("levy.export_path.bytes", "B", "lower"),
        ("fileio.load_model.bytes", "B", "lower"),
        ("trace.overhead_ratio", "1", "lower"),
        ("trace.coverage_ratio", "1", "higher"),
    ]
    return names


def layer_metrics(spans: list, passes: int, timed_wall_s: float, overhead_ratio: float) -> dict:
    """Per-layer figures for one set-up plus one pass of the timed phase.

    Set-up spans count once; timed spans are divided by the number of
    passes. Self time is a span's duration minus its direct children's.
    """
    child_time = [0.0] * len(spans)
    for name, phase, start, end, parent, kind, m, facts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    agg: dict[str, dict] = {}
    per_call_ms = {}
    top_self = 0.0
    for i, (name, phase, start, end, parent, kind, m, facts) in enumerate(spans):
        if phase not in ("setup", "timed"):
            continue
        weight = 1.0 if phase == "setup" else 1.0 / passes
        a = agg.setdefault(name, {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0})
        a["calls"] += weight
        a["busy_s"] += weight * (end - start)
        a["self_s"] += weight * (end - start - child_time[i])
        if phase == "timed":
            top_self += end - start - child_time[i]
        for key, value in facts.items():
            if key == "alloc":  # a peak, not a sum
                a[key] = max(a.get(key, 0.0), value)
            else:
                a[key] = a.get(key, 0.0) + weight * value
        per_call_ms.setdefault(name, []).append(1000.0 * (end - start))

    def get(name, key):
        return agg.get(name, {}).get(key, 0.0)

    out = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            for key in ("calls", "busy_s", "self_s"):
                out[f"{layer}.{fn}.{key}"] = get(f"{layer}.{fn}", key)
    verify, validate = "structures.verify_semigroup", "levy.validate_levy"
    cells, pairs = get(verify, "cells"), get(validate, "pairs")
    out["structures.verify_semigroup.cells"] = cells
    out["structures.verify_semigroup.ns_per_cell"] = 1e9 * get(verify, "busy_s") / cells if cells else 0.0
    out["structures.verify_semigroup.peak_alloc_mb"] = get(verify, "alloc") / 2**20
    out["measures.conv_exp.rate_sum"] = get("measures.conv_exp", "rate")
    roots = per_call_ms.get("divisibility.nth_root")
    out["divisibility.nth_root.p50_ms"] = statistics.median(roots) if roots else 0.0
    out["levy.validate_levy.pairs"] = pairs
    out["levy.validate_levy.us_per_pair"] = 1e6 * get(validate, "busy_s") / pairs if pairs else 0.0
    out["levy.export_path.bytes"] = get("levy.export_path", "bytes")
    out["fileio.load_model.bytes"] = get("fileio.load_model", "bytes")
    out["trace.overhead_ratio"] = overhead_ratio
    out["trace.coverage_ratio"] = top_self / timed_wall_s if timed_wall_s else 0.0
    return out
