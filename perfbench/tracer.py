"""Span tracer around the public functions of each sedenion layer.

`Tracer.install()` replaces every listed function, under every `sedenion`
module name that binds it, with a wrapper that records one span per call:
name, start, end and the id of the enclosing span.  `SliceUnit` is traced by
wrapping its `__init__`, so `isinstance` checks keep working.  Spans stay in
memory (flat arrays) until `write()`; self time is a span's duration minus
the durations of its direct children.

Besides spans, a few wrappers record counts of the work done, for the
ratio metrics: rows through `mul_batch`, companions found, off-plane
`domain_contains` calls, series terms and undetermined verdicts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = {
    "algebra": ("mul_batch", "cd_mul", "left_mult_matrix", "parse_any",
                "format_element"),
    "zerodiv": ("kernel_of_left_mult", "principal_angles", "is_zero_divisor"),
    "slices": ("SliceUnit", "wpoint", "wpoint_from", "find_companion",
               "is_hyper_solution"),
    "series": ("domain_report", "domain_contains", "radius_Rap", "radius_RapJ",
               "evaluate_series", "convergence_scan"),
    "cli": ("main",),
}

NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]

# Same tolerance as the package's "same or opposite axis" test; used only to
# count the domain_contains calls that need a directional radius.
_AXIS_TOL = 1e-9


def _off_plane(q, p) -> bool:
    if q.is_real or p.is_real:
        return False
    d = q.axis.s.coeffs - p.axis.s.coeffs
    s = q.axis.s.coeffs + p.axis.s.coeffs
    return min(np.max(np.abs(d)), np.max(np.abs(s))) > _AXIS_TOL


class Tracer:
    def __init__(self):
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()

    # -- recording -----------------------------------------------------------

    def _wrap(self, nid: int, fn, probe=None):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if probe is not None:
                probe(args, out, sid)
            return out

        return traced

    def _probes(self):
        c = self.counts

        def mul_batch(args, out, sid):
            rows, n = np.shape(args[0])
            c["algebra.mul_batch.rows"] += rows
            c["algebra.mul_batch.flops"] += 2 * n * n * rows

        def find_companion(args, out, sid):
            c["slices.find_companion.found"] += out is not None

        def domain_report(args, out, sid):
            # a call that opened no child span was answered from the cache
            c["series.domain_report.hits"] += len(self.name_id) == sid + 1

        def domain_contains(args, out, sid):
            c["series.domain_contains.off_plane"] += _off_plane(args[0], args[1])

        def evaluate_series(args, out, sid):
            c["series.evaluate_series.terms"] += out.terms_used
            c["series.evaluate_series.undetermined"] += \
                out.verdict.value == "Undetermined"

        return {"algebra.mul_batch": mul_batch,
                "slices.find_companion": find_companion,
                "series.domain_report": domain_report,
                "series.domain_contains": domain_contains,
                "series.evaluate_series": evaluate_series}

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"sedenion.{layer}")
        modules = [m for name, m in sys.modules.items()
                   if name == "sedenion" or name.startswith("sedenion.")]
        probes = self._probes()
        for nid, name in enumerate(NAMES):
            layer, fn_name = name.split(".")
            original = getattr(sys.modules[f"sedenion.{layer}"], fn_name)
            if isinstance(original, type):
                original.__init__ = self._wrap(nid, original.__init__)
                continue
            wrapped = self._wrap(nid, original, probes.get(name))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, attr, wrapped)

    # -- results -------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-function calls and self time, plus the raw work counts."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nspans = len(nid)
        child = np.zeros(nspans)
        has_parent = par >= 0
        if nspans:
            child += np.bincount(par[has_parent], weights=dur[has_parent],
                                 minlength=nspans)
        self_time = dur - child
        calls = np.bincount(nid, minlength=len(NAMES))
        self_s = np.bincount(nid, weights=self_time, minlength=len(NAMES))
        out = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        # directional radii computed for domain_contains (cache misses)
        rapj = NAMES.index("series.radius_RapJ")
        dc = NAMES.index("series.domain_contains")
        is_rapj = nid == rapj
        under_dc = np.zeros(nspans, dtype=bool)
        under_dc[is_rapj & has_parent] = nid[par[is_rapj & has_parent]] == dc
        out["series.radius_RapJ.under_domain_contains"] = int(np.sum(under_dc))
        out.update({k: int(v) for k, v in self.counts.items()})
        return out

    def write(self, path: str) -> None:
        np.savez(path, names=np.array(NAMES),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def layer_metrics(agg: dict, overhead_ratio: float) -> dict:
    """The per-layer metrics, named as in BENCHMARK.json, from summed aggregates."""

    def ratio(num, den):
        return float(num) / den if den else 0.0

    m = {}
    for name in NAMES:
        m[f"{name}.calls"] = (agg.get(f"{name}.calls", 0), "count")
        m[f"{name}.self_s"] = (agg.get(f"{name}.self_s", 0.0), "s")
    m["algebra.mul_batch.rows"] = (agg.get("algebra.mul_batch.rows", 0), "count")
    m["algebra.mul_batch.useful_gflops"] = (
        ratio(agg.get("algebra.mul_batch.flops", 0),
              agg.get("algebra.mul_batch.self_s", 0.0)) / 1e9, "GFLOP/s")
    m["slices.find_companion.yield"] = (
        ratio(agg.get("slices.find_companion.found", 0),
              agg.get("slices.find_companion.calls", 0)), "ratio")
    m["series.domain_report.hit_ratio"] = (
        ratio(agg.get("series.domain_report.hits", 0),
              agg.get("series.domain_report.calls", 0)), "ratio")
    m["series.radius_RapJ.miss_ratio"] = (
        ratio(agg.get("series.radius_RapJ.under_domain_contains", 0),
              agg.get("series.domain_contains.off_plane", 0)), "ratio")
    m["series.evaluate_series.terms"] = (
        agg.get("series.evaluate_series.terms", 0), "count")
    m["series.evaluate_series.undetermined"] = (
        agg.get("series.evaluate_series.undetermined", 0), "count")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m
