"""Span recording around the public entry points of each fetv layer.

The tracer wraps module attributes and class methods from outside the
library; nothing under ``src/fetv`` knows it is being traced.  A span is
(name, start, end, parent); spans stay in memory until the run ends.  A
hook whose target no longer exists is reported as missing instead of
failing the run, because several hooks sit on private names.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

# (module, class or None, attribute, span name).  Module-level functions
# that other modules bind by name at import are listed once per binding
# module, so the call sites the library actually uses are reached.
SPAN_HOOKS = [
    ("fetv.mesh", None, "build_crossed_mesh", "mesh.build"),
    ("fetv.images", None, "build_crossed_mesh", "mesh.build"),
    ("fetv.spaces", "FeSpace", "__init__", "spaces.init"),
    ("fetv.spaces", "FeSpace", "apply_mass", "spaces.apply_mass"),
    ("fetv.spaces", "FeSpace", "apply_mass_inverse", "spaces.apply_mass_inverse"),
    ("fetv.operators", "GradJumpOperator", "apply", "operators.lambda_apply"),
    ("fetv.operators", "GradJumpOperator", "_assemble", "operators.assemble"),
    ("fetv.operators", None, "divergence", "operators.divergence"),
    ("fetv.solvers", None, "divergence", "operators.divergence"),
    ("fetv.operators", "QuadraticSolver", "__init__", "operators.qsolver_init"),
    ("fetv.operators", "QuadraticSolver", "solve", "operators.pcg"),
    ("fetv.dtv", None, "dtv", "dtv.dtv"),
    ("fetv.cli", None, "dtv", "dtv.dtv"),
    ("fetv.dtv", None, "tv_exact", "dtv.tv_exact"),
    ("fetv.cli", None, "tv_exact", "dtv.tv_exact"),
    ("fetv.dtv", None, "project_feasible", "dtv.project_feasible"),
    ("fetv.solvers", None, "project_feasible", "dtv.project_feasible"),
    ("fetv.dtv", None, "infeasibility", "dtv.infeasibility"),
    ("fetv.solvers", None, "infeasibility", "dtv.infeasibility"),
    ("fetv.solvers", None, "split_bregman_l2", "solvers.solve"),
    ("fetv.solvers", None, "chambolle_pock_l2", "solvers.solve"),
    ("fetv.solvers", "_Context", "eta", "solvers.monitor"),
    ("fetv.solvers", None, "_record", "solvers.monitor"),
    ("fetv.solvers", None, "shrink", "solvers.prox"),
    ("fetv.solvers", None, "prox_vector", "solvers.prox"),
    ("fetv.solvers", None, "estimate_operator_norm_sq", "solvers.norm_estimate"),
    ("fetv.metrics", None, "add_noise", "metrics.add_noise"),
    ("fetv.images", None, "load_pgm", "images.load_pgm"),
    ("fetv.images", None, "raster_to_dg", "images.raster_to_dg"),
    ("fetv.cli", None, "main", "cli.main"),
]

# Hot inner calls that are only counted: a span each would add more
# overhead than the work they mark.  PCG applies the preconditioner once
# per iteration plus once per solve.
COUNT_HOOKS = [
    ("fetv.operators", "QuadraticSolver", "_precondition", "operators.precondition"),
    ("fetv.solvers", "_Context", "regularizer", "solvers.regularizer"),
]


class Tracer:
    """Installs the hooks, records spans and counts, and undoes it all."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = Counter()
        self.errors = Counter()  # span name -> calls that raised
        self.missing = []        # hooks whose target does not exist
        self._stack = []
        self._undo = []

    def _span_wrapper(self, fn, name):
        spans, stack, errors = self.spans, self._stack, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module, cls, attr, wrap):
        label = f"{module}.{cls + '.' if cls else ''}{attr}"
        try:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            # read the class's own dict so inherited or descriptor-wrapped
            # attributes are restored exactly as they were
            original = owner.__dict__[attr] if cls else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(label)
            return
        setattr(owner, attr, wrap(original))
        self._undo.append((owner, attr, original))

    def install(self):
        for module, cls, attr, name in SPAN_HOOKS:
            self._patch(module, cls, attr,
                        lambda fn, name=name: self._span_wrapper(fn, name))
        for module, cls, attr, name in COUNT_HOOKS:
            self._patch(module, cls, attr,
                        lambda fn, name=name: self._count_wrapper(fn, name))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run is single-threaded.
        Inclusive time counts only outermost spans of a name, so a
        recursive or doubly hooked call is not counted twice.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child[i]
            if not self._has_ancestor(i, name):
                entry["total_s"] += end - start
        return dict(out)

    def _has_ancestor(self, index, name):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path):
        """Dump the raw spans as JSON: one [name, start, end, parent] each."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - t0, 9), round(e - t0, 9), p]
                for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
