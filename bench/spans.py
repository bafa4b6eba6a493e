"""Span tracing of the cscglue layers from outside the library.

The traced run wraps the public functions listed in ``LAYERS`` and
rebinds each wrapper in every loaded ``cscglue`` module that holds the
original under any name.  That covers module-internal calls (which look
the name up in their own globals) and names imported with
``from cscglue.x import f`` (``gluing`` holds ``positive_kernel_vector``,
``cli`` holds ``existence_report``).  Nothing under ``src/`` changes.

Spans stay in memory as ``(name, start, end, parent, item)`` tuples and
are aggregated, and optionally written out, when the run ends.  Times are
the thread's CPU time (``time.thread_time``), the clock the item times use,
unscaled (see ``calibrate.py``).
A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import statistics
import sys
from time import thread_time

# Layer -> public functions that get a span.
LAYERS = {
    "cfrac": ("hj_expand",),
    "resolution": ("fiber_chain", "blow_down_fully", "blowup_count", "singular_strings"),
    "logmass": ("mu_from_u", "mass_verdict", "monopole_from_fraction", "log_coeffs_from_levels"),
    "parabolic": ("classify", "is_sporadic"),
    "gluing": ("existence_report", "gluing_matrix", "feasibility"),
    "exactlp": ("rational_rank", "positive_kernel_vector"),
    "metricnum": (
        "verify_metric",
        "v_eval",
        "metric_at",
        "monopole_residual",
        "kahler_residual",
        "scalar_curvature_at",
        "fit_log_coeffs",
        "potential_residual",
    ),
    "cli": ("main", "load_document", "parse_surface"),
}

# The per-call kernels ROADMAP item 1 names; each also reports its median
# inclusive call time.
P50_KERNELS = (
    "cfrac.hj_expand",
    "logmass.mu_from_u",
    "parabolic.classify",
    "gluing.existence_report",
    "metricnum.v_eval",
    "metricnum.metric_at",
    "metricnum.scalar_curvature_at",
    "metricnum.kahler_residual",
    "metricnum.potential_residual",
    "metricnum.fit_log_coeffs",
)


def _count_candidates(counters, out):
    counters["parabolic.candidates"] += len(out.table)


def _count_matrix_cols(counters, out):
    counters["gluing.matrix_cols"] += out.ncols


def _count_witness(counters, out):
    counters["exactlp.positive_kernel_vector.found"] += out is not None


# Counters taken from a wrapped function's return value.
COUNTERS = {
    "parabolic.classify": _count_candidates,
    "gluing.feasibility": _count_matrix_cols,
    "exactlp.positive_kernel_vector": _count_witness,
}

# Metrics the harness adds to the traced run itself (name, unit, better).
HARNESS_METRICS = (
    ("cli.import_s", "s", "lower"),
    ("metricnum.import_s", "s", "lower"),
    ("metricnum.check_margin_worst", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_metrics():
    """Every per-layer metric of the traced run as (name, unit, better)."""
    out = []
    for module, functions in LAYERS.items():
        for fn in functions:
            name = f"{module}.{fn}"
            out.append((f"{name}.calls", "count", "lower"))
            out.append((f"{name}.self_s", "s", "lower"))
            if name in P50_KERNELS:
                out.append((f"{name}.us_p50", "us", "lower"))
    out.append(("parabolic.candidates", "count", "lower"))
    out.append(("gluing.matrix_cols", "count", "lower"))
    out.append(("exactlp.positive_kernel_vector.found_ratio", "ratio", "higher"))
    out.extend(HARNESS_METRICS)
    return out


class Tracer:
    """Records spans while ``on`` is true; wrappers pass through otherwise."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = -1
        self.on = False
        self.counters = {
            "parabolic.candidates": 0,
            "gluing.matrix_cols": 0,
            "exactlp.positive_kernel_vector.found": 0,
        }
        self._patches = []

    def _wrap(self, name, fn, counter):
        spans, stack, counters = self.spans, self.stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = thread_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = thread_time()
                stack.pop()
                spans[index] = (name, start, end, parent, self.item)
            if counter is not None:
                counter(counters, out)
            return out

        return wrapper

    def install(self):
        """Rebind every listed function in every loaded cscglue module."""
        modules = [m for n, m in sys.modules.items() if n == "cscglue" or n.startswith("cscglue.")]
        for layer, functions in LAYERS.items():
            home = importlib.import_module(f"cscglue.{layer}")
            for fn_name in functions:
                original = getattr(home, fn_name)
                name = f"{layer}.{fn_name}"
                wrapper = self._wrap(name, original, COUNTERS.get(name))
                for module in modules:
                    for attr in [a for a, v in vars(module).items() if v is original]:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def metrics(self, passes):
        """Calls, self time and counters per pass, and p50, per function.

        Dividing by the number of traced passes makes ``.calls`` and the
        counters fixed for a seed, and ``.self_s`` the layer's cost of one
        pass, however many passes the run's time allowed.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, durations = {}, {}, {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            if name in P50_KERNELS:
                durations.setdefault(name, []).append(end - start)
        out = {}
        for module, functions in LAYERS.items():
            for fn in functions:
                name = f"{module}.{fn}"
                out[f"{name}.calls"] = calls.get(name, 0) / passes
                out[f"{name}.self_s"] = self_s.get(name, 0.0) / passes
                if name in P50_KERNELS:
                    d = durations.get(name)
                    out[f"{name}.us_p50"] = statistics.median(d) * 1e6 if d else 0.0
        out["parabolic.candidates"] = self.counters["parabolic.candidates"] / passes
        out["gluing.matrix_cols"] = self.counters["gluing.matrix_cols"] / passes
        pkv_calls = calls.get("exactlp.positive_kernel_vector", 0)
        found = self.counters["exactlp.positive_kernel_vector.found"]
        out["exactlp.positive_kernel_vector.found_ratio"] = found / pkv_calls if pkv_calls else 0.0
        return out

    def write(self, path):
        """Write every span as CSV: id, name, start, end, parent, item."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent,item\n")
            for i, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{item}\n")
