"""Per-module tracing for the benchmark's traced run.

Inside a job, ``Recorder.install`` wraps the public functions listed in
``LAYERS`` and records one span per call: name, start, end and parent span,
kept in memory and written once when the job ends.  The wrappers replace
the function in every ``lebp`` module namespace that binds it, because
modules import each other's functions by name (``correlation`` imports
``_sine_series`` from ``rect_kernels``).  A listed function that no longer
exists is reported as absent, not as an error.

In the benchmark process, ``layer_metrics`` turns the span files of one
pass into the per-layer metrics: per module, the number of calls and the
self time (span time minus the time covered by child spans); per function,
the number of calls and the total time of its outermost spans.
"""

import functools
import importlib
import json
import sys
import time

import numpy as np

LAYERS = {
    "cli": ("main",),
    "correlation": (
        "kernel_strip", "kernel_semicircle", "two_point_semicircle",
        "density_semicircle", "corr_strip",
    ),
    "rect_kernels": (
        "poisson_rect", "boundary_poisson_rect", "fomin_boundary_det",
        "fomin_inner_det", "fomin_expansion", "_sine_series",
    ),
    "passage_densities": (
        "norm_boundary", "norm_inner", "ordered_sine_det_integral",
        "pdf_first_passage_finite", "joint_pdf",
    ),
    "numerics": ("det_lu", "sinh_ratio", "chamber_integrate", "poly_geom_tail"),
    "lattice_validation": (
        "discrete_first_passage_density", "first_passage_decomposition",
        "ordered_minor_sum", "exit_right",
    ),
    "graph_fomin": ("brute_force_fomin", "fomin_det", "walk_green", "lerw_weight"),
    "validation": ("run_suite",),
}

SERIES_FUNCTION = "rect_kernels._sine_series"
SERIES_COUNTER = "rect_kernels.series_term_evals"


def _series_terms(coeffs, theta, rho):
    """Terms times points of one _sine_series call."""
    return int(np.size(coeffs)) * int(np.broadcast(np.asarray(theta), np.asarray(rho)).size)


def metric_names():
    """Every per-layer metric the traced run reports, with its unit, except
    the run-level ones added by run.py."""
    names = {}
    for module in LAYERS:
        names[f"{module}.calls"] = "count"
        names[f"{module}.self_s"] = "s"
    for module, functions in LAYERS.items():
        for fn in functions:
            names[f"{module}.{fn}.calls"] = "count"
            names[f"{module}.{fn}.total_s"] = "s"
    names[SERIES_COUNTER] = "count"
    return names


class Recorder:
    """Spans of one job, in call order.  Each span is
    [name, start_ns, end_ns, parent_index, series_terms]."""

    def __init__(self, job_id):
        self.job_id = job_id
        self.spans = []
        self.absent = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counted = name == SERIES_FUNCTION

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
                if counted:
                    span[4] = _series_terms(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every listed function wherever a lebp module binds it."""
        modules = {m: importlib.import_module(f"lebp.{m}") for m in LAYERS}
        namespaces = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "lebp" or key.startswith("lebp."))
        ]
        for module, functions in LAYERS.items():
            for fn in functions:
                original = getattr(modules[module], fn, None)
                if original is None:
                    self.absent.append(f"{module}.{fn}")
                    continue
                wrapper = self.wrap(f"{module}.{fn}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": self.job_id, "absent": self.absent, "spans": self.spans}, fh)


# --- aggregation -----------------------------------------------------------------


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by its children (overlapping children are counted once)."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def outermost(spans):
    """Flags: True where no ancestor span has the same name (so recursive
    calls are not counted twice in a total)."""
    flags = []
    for span in spans:
        parent, ok = span[3], True
        while parent >= 0:
            if spans[parent][0] == span[0]:
                ok = False
                break
            parent = spans[parent][3]
        flags.append(ok)
    return flags


def layer_metrics(jobs):
    """Per-layer metrics from the span dumps of one pass (a list of dicts as
    written by Recorder.dump).  Returns ({name: value}, sorted absent names)."""
    calls, self_ns, total_ns, terms = {}, {}, {}, 0
    absent = set()
    for dump in jobs:
        spans = dump["spans"]
        absent.update(dump["absent"])
        for span, own, top in zip(spans, self_times(spans), outermost(spans)):
            name = span[0]
            module = name.split(".", 1)[0]
            calls[name] = calls.get(name, 0) + 1
            calls[module] = calls.get(module, 0) + 1
            self_ns[module] = self_ns.get(module, 0) + own
            if top:
                total_ns[name] = total_ns.get(name, 0) + span[2] - span[1]
            terms += span[4]
    out = {}
    for module in LAYERS:
        out[f"{module}.calls"] = calls.get(module, 0)
        out[f"{module}.self_s"] = self_ns.get(module, 0) / 1e9
    for module, functions in LAYERS.items():
        for fn in functions:
            name = f"{module}.{fn}"
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.total_s"] = total_ns.get(name, 0) / 1e9
    out[SERIES_COUNTER] = terms
    return out, sorted(absent)
