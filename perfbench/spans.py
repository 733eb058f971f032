"""Spans around the calls into each faberzol module, installed at run time.

`install` rebinds the public functions listed in LAYERS wherever a faberzol
module holds them, both the module's own global (so intra-module calls such
as `phi` inside `psi_boundary` are seen) and every `from .x import f` copy.
Nothing in the package's source changes; `restore` puts the originals back.

A span records its name, start, end and parent.  A layer's self time is its
spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Public functions wrapped in spans, by module (= layer).  Private hot spots
# (_LogBasis.columns, _nodal_derivative, the lstsq of _solve_level) stay
# unwrapped, so their time is self time of their public caller.
LAYERS = {
    "cli": ("main",),
    "conformal": ("solve_annulus_map", "phi", "psi_boundary",
                  "mobius_two_disks"),
    "faber": ("build_context", "empirical_ratio", "eval_rn", "eval_Rn",
              "eval_inv_rn", "rn_on_e_boundary", "rn_on_f_boundary",
              "count_zeros"),
    "quadrature": ("cauchy_boundary", "cauchy_stabilized", "cauchy_plus",
                   "cauchy_minus", "winding_number", "winding_of_polyline"),
    "rational": ("aaa_fit", "poles_zeros", "bary_eval"),
    "adi": ("adi_iterate", "spectral_norm", "faber_shifts", "fejer_shifts",
            "leja_shifts", "error_certificate", "sylvester_problem"),
    "displacement": ("cauchy_matrix", "vandermonde_matrix", "singular_values",
                     "singular_value_bounds", "vandermonde_h"),
    "bounds": ("zolotarev_upper", "zolotarev_lower"),
    "geometry": ("boundary_samples", "contains_many", "contains",
                 "random_points", "rotation", "interior_anchor"),
}
# Classmethods wrapped in spans: (layer, class, method).
CLASS_METHODS = (("bounds", "GeometryConstants", "from_regions"),)


def _size(z):
    return int(np.size(z))


def _adi_steps(args, kwargs, result):
    shifts = args[1]
    k = kwargs.get("k", args[2] if len(args) > 2 else None)
    return {"adi.steps": shifts.k if k is None else int(k)}


def _kernel_entries(args, kwargs, result):
    return {"quadrature.kernel_entries": len(args[1]) * _size(args[2])}


# Work counts taken at the span boundary: name -> f(args, kwargs, result).
COUNTERS = {
    "conformal.phi": lambda a, k, r: {"conformal.phi.points": _size(a[1])},
    "faber.eval_rn": lambda a, k, r: {"faber.eval_rn.points": _size(a[1])},
    "geometry.contains_many":
        lambda a, k, r: {"geometry.contains_many.points": _size(a[1])},
    "quadrature.cauchy_boundary": _kernel_entries,
    "quadrature.cauchy_stabilized": _kernel_entries,
    "rational.aaa_fit": lambda a, k, r: {"rational.aaa_degree": r.degree},
    "adi.adi_iterate": _adi_steps,
    "displacement.singular_values":
        lambda a, k, r: {"displacement.svd_entries": _size(np.asarray(a[0]))},
}


class Tracer:
    """Spans and counts kept in memory for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index or None]
        self.counts = Counter()
        self.ladders = []        # ladder degrees of each map solve step
        self._stack = []

    def wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, tracer.clock(), None, parent]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer.counts[name + ".calls"] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span[2] = tracer.clock()
            if counter is not None:
                tracer.counts.update(counter(args, kwargs, result))
            return result

        return traced

    def count_ladder(self, fn):
        """Count map-solve ladder steps and basis columns; records no span."""
        tracer = self

        @functools.wraps(fn)
        def counted(region_e, f_inner, variant, basis, anchor_e, anchor_f,
                    degree, *args, **kwargs):
            tracer.counts["conformal.ladder_steps"] += 1
            tracer.counts["conformal.basis_columns"] += basis.n_columns
            tracer.ladders.append(int(degree))
            return fn(region_e, f_inner, variant, basis, anchor_e, anchor_f,
                      degree, *args, **kwargs)

        return counted


def self_times(spans):
    """Self time per span name: duration minus the time its children cover.

    Children of one span never overlap (one thread), so the time they cover
    is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return dict(out)


def _rebind(old, new, undo):
    for name, module in list(sys.modules.items()):
        if name != "faberzol" and not name.startswith("faberzol."):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
                undo.append((module, attr, old))


def install(tracer):
    """Wrap every listed function that exists; returns the undo list."""
    undo = []
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"faberzol.{layer}")
        for fname in names:
            fn = getattr(module, fname, None)
            if fn is None:
                continue
            name = f"{layer}.{fname}"
            _rebind(fn, tracer.wrap(name, fn, COUNTERS.get(name)), undo)
    for layer, cls_name, meth in CLASS_METHODS:
        cls = getattr(importlib.import_module(f"faberzol.{layer}"), cls_name,
                      None)
        raw = vars(cls).get(meth) if cls is not None else None
        if isinstance(raw, classmethod):
            wrapped = tracer.wrap(f"{layer}.{meth}", raw.__func__)
            setattr(cls, meth, classmethod(wrapped))
            undo.append((cls, meth, raw))
    conformal = importlib.import_module("faberzol.conformal")
    solve_level = getattr(conformal, "_solve_level", None)
    if solve_level is not None:
        _rebind(solve_level, tracer.count_ladder(solve_level), undo)
    return undo


def restore(undo):
    for owner, attr, old in reversed(undo):
        setattr(owner, attr, old)


def layer_metrics(tracer):
    """Calls, self times and counts of one traced pass, by metric name."""
    metrics = dict(tracer.counts)
    for name, seconds in self_times(tracer.spans).items():
        metrics[name + ".self_s"] = seconds
        layer = name.split(".", 1)[0]
        metrics[layer + ".self_s"] = metrics.get(layer + ".self_s", 0.0) + seconds
    return metrics
