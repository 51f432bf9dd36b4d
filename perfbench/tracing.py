"""Span recorder for the traced benchmark run.

The recorder wraps the public function at each layer boundary of gpops by
rebinding the name the calling module imported (``gpops.verify.sample_paths``,
``gpops.conditioning.chol_psd``, ...) and by replacing
``KernelBifunction.__call__`` on the class.  Nothing under ``src/`` changes;
``uninstall`` restores every binding.

A span is ``[name, parent, start, end, info]`` with times from
``time.perf_counter``; ``info`` holds counts computed from the argument
shapes at the call boundary.  Spans stay in memory until the run ends.  The
recorder assumes the wrapped calls come from one thread: the thread pool in
``sample_paths`` runs only Philox, which is not wrapped.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
from collections import defaultdict

import numpy as np

import gpops
import gpops.cli
import gpops.conditioning
import gpops.linalg
import gpops.operators
import gpops.sampling
import gpops.transform
import gpops.verify


def _bifunction_entries(args, kwargs, result):
    return {"entries": int(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)}


def _gram_entries(args, kwargs, result):
    return {"entries": len(args[1]) ** 2}


_CHOL_SIGNATURE = inspect.signature(gpops.linalg.chol_psd)


def _chol_info(args, kwargs, result):
    bound = _CHOL_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    _, delta = result
    ladder = gpops.linalg.jitter_ladder(bound.arguments["max_jitter"])
    return {"order": int(np.shape(bound.arguments["matrix"])[0]),
            "retries": ladder.index(delta), "jitter_max": float(delta)}


def _normals(args, kwargs, result):
    return {"normals": int(args[2]) * len(args[1])}


def _stencil_flops(args, kwargs, result):
    n_paths, n_points = args[1].paths.shape
    return {"flops": 2 * n_paths * n_points * n_points}


# (modules whose binding is replaced, attribute, span name, info function)
TARGETS = (
    ((gpops.cli,), "main", "cli", None),
    ((gpops.cli,), "load_config", "config.load_config", None),
    ((gpops.cli,), "verify_theorem", "verify.verify_theorem", None),
    ((gpops.cli,), "solve_linear_ode", "conditioning.solve_linear_ode", None),
    ((gpops, gpops.conditioning), "condition", "conditioning.condition", None),
    ((gpops.conditioning,), "solve_triangular", "conditioning.solve_triangular", None),
    ((gpops.verify,), "pushforward", "transform.pushforward", None),
    ((gpops.verify,), "sample_paths", "sampling.sample_paths", _normals),
    ((gpops.verify,), "apply_operator_pathwise", "sampling.apply_operator_pathwise",
     _stencil_flops),
    ((gpops.verify,), "empirical_mean", "sampling.empirical_mean", None),
    ((gpops.verify,), "empirical_cov", "sampling.empirical_cov", None),
    ((gpops.verify,), "empirical_cumulant", "cumulants.empirical_cumulant", None),
    ((gpops.verify,), "commutator_residual", "operators.commutator_residual", None),
    ((gpops.operators, gpops.transform, gpops.conditioning), "apply_arg",
     "operators.apply_arg", None),
    ((gpops.transform, gpops.conditioning), "apply_to_function",
     "operators.apply_to_function", None),
    ((gpops.verify, gpops.sampling, gpops.conditioning, gpops.transform), "gram",
     "linalg.gram", _gram_entries),
    ((gpops.sampling, gpops.conditioning, gpops.transform), "chol_psd", "linalg.chol_psd",
     _chol_info),
)

BIFUNCTION_SPAN = "operators.KernelBifunction.call"


class Recorder:
    """Records spans around the wrapped layer functions while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._saved:
            return
        for modules, attr, name, info in TARGETS:
            wrapper = self.wrap(name, getattr(modules[0], attr), info)
            for module in modules:
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
        cls = gpops.operators.KernelBifunction
        self._saved.append((cls, "__call__", cls.__call__))
        cls.__call__ = self.wrap(BIFUNCTION_SPAN, cls.__call__, _bifunction_entries)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def dump(self, path):
        """Write every span as ``[name id, parent, start ns, end ns, info]`` beside the metrics."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[ids[s[0]], s[1], round((s[2] - t0) * 1e9), round((s[3] - t0) * 1e9), s[4]]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))


def call_stats(spans, root):
    """Per-name aggregates over the spans of one root call starting at index ``root``.

    ``calls`` counts spans; ``total_s`` sums durations of spans with no
    ancestor of the same name; ``self_s`` sums each span's duration minus the
    time its direct children cover; info counts are summed, except
    ``order``, ``retries`` and ``jitter_max``, which take the maximum.
    """
    end = root + 1
    while end < len(spans) and spans[end][1] != -1:
        end += 1
    sub = spans[root:end]
    child_time = defaultdict(float)
    for s in sub[1:]:
        child_time[s[1]] += s[3] - s[2]
    out = defaultdict(lambda: defaultdict(float))
    for k, s in enumerate(sub):
        name, dur = s[0], s[3] - s[2]
        agg = out[name]
        agg["calls"] += 1
        agg["self_s"] += dur - child_time[root + k]
        parent = s[1]
        while parent != -1 and spans[parent][0] != name:
            parent = spans[parent][1]
        if parent == -1:
            agg["total_s"] += dur
        for key, value in (s[4] or {}).items():
            if key in ("order", "retries", "jitter_max"):
                agg[key] = max(agg[key], value)
            else:
                agg[key] += value
    return out


def roots(spans):
    return [i for i, s in enumerate(spans) if s[1] == -1]


# Per-layer metrics: (metric name, span name, statistic, unit).
LAYER_METRICS = (
    ("cumulants.empirical_cumulant.calls", "cumulants.empirical_cumulant", "calls", "count"),
    ("cumulants.empirical_cumulant.total_s", "cumulants.empirical_cumulant", "total_s", "s"),
    ("sampling.sample_paths.self_s", "sampling.sample_paths", "self_s", "s"),
    ("sampling.sample_paths.normals", "sampling.sample_paths", "normals", "count"),
    ("sampling.apply_operator_pathwise.total_s", "sampling.apply_operator_pathwise",
     "total_s", "s"),
    ("sampling.apply_operator_pathwise.flops", "sampling.apply_operator_pathwise",
     "flops", "count"),
    ("sampling.empirical_cov.total_s", "sampling.empirical_cov", "total_s", "s"),
    ("sampling.empirical_mean.total_s", "sampling.empirical_mean", "total_s", "s"),
    ("operators.commutator_residual.calls", "operators.commutator_residual", "calls", "count"),
    ("operators.commutator_residual.total_s", "operators.commutator_residual", "total_s", "s"),
    ("operators.KernelBifunction.call.calls", BIFUNCTION_SPAN, "calls", "count"),
    ("operators.KernelBifunction.call.total_s", BIFUNCTION_SPAN, "total_s", "s"),
    ("operators.KernelBifunction.call.entries", BIFUNCTION_SPAN, "entries", "count"),
    ("operators.apply_arg.calls", "operators.apply_arg", "calls", "count"),
    ("operators.apply_arg.total_s", "operators.apply_arg", "total_s", "s"),
    ("operators.apply_to_function.calls", "operators.apply_to_function", "calls", "count"),
    ("operators.apply_to_function.total_s", "operators.apply_to_function", "total_s", "s"),
    ("linalg.chol_psd.calls", "linalg.chol_psd", "calls", "count"),
    ("linalg.chol_psd.total_s", "linalg.chol_psd", "total_s", "s"),
    ("linalg.chol_psd.order", "linalg.chol_psd", "order", "count"),
    ("linalg.chol_psd.retries", "linalg.chol_psd", "retries", "count"),
    ("linalg.chol_psd.jitter_max", "linalg.chol_psd", "jitter_max", "1"),
    ("linalg.gram.calls", "linalg.gram", "calls", "count"),
    ("linalg.gram.total_s", "linalg.gram", "total_s", "s"),
    ("linalg.gram.entries", "linalg.gram", "entries", "count"),
    ("conditioning.condition.self_s", "conditioning.condition", "self_s", "s"),
    ("conditioning.solve_triangular.total_s", "conditioning.solve_triangular", "total_s", "s"),
    ("transform.pushforward.total_s", "transform.pushforward", "total_s", "s"),
    ("verify.verify_theorem.self_s", "verify.verify_theorem", "self_s", "s"),
    ("config.load_config.total_s", "config.load_config", "total_s", "s"),
    ("cli.self_s", "cli", "self_s", "s"),
)

OVERHEAD_METRIC = ("trace.overhead_ratio", "ratio")


def layer_metrics(spans):
    """Median over the traced calls of each per-call layer statistic."""
    per_call = [call_stats(spans, r) for r in roots(spans)]
    out = {}
    for metric, name, stat, unit in LAYER_METRICS:
        values = [stats[name][stat] if name in stats else 0.0 for stats in per_call]
        out[metric] = {"value": float(statistics.median(values)) if values else 0.0,
                       "unit": unit}
    return out
