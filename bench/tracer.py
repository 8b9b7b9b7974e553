"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each layer's public functions and methods with
wrappers at every indexlaw module that binds them (``bridge_bilinear``, for
one, is bound in ``ugrid``, ``representation`` and ``decomposition``), and
``uninstall`` puts the originals back.  A wrapper records one span per call:
layer, parent span, operation, start, end and a work count.  Spans stay in
memory until ``write``.  A layer that does not exist at the traced commit is
listed as absent and reports zeros instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


# (metric prefix, module, attribute, work stat, work count from (args, kwargs, result)).
# The attribute is a function name, "Class.method", or "*.method" for every
# class of the module that defines the method.
LAYERS = (
    ("cli.main", "indexlaw.cli", "main", None, None),
    ("cli.read_csv", "indexlaw.cli", "read_csv", "rows", lambda a, k, r: _size(r[0])),
    ("empirical.build_sample", "indexlaw.empirical", "build_sample", "values",
     lambda a, k, r: r.n),
    ("indices.named_estimate", "indexlaw.indices", "named_estimate", None, None),
    ("indices.named_representation", "indexlaw.indices", "named_representation", None, None),
    ("representation.score_model", "indexlaw.representation", "score_model", "cells",
     lambda a, k, r: r.m),
    ("representation.index_variance", "indexlaw.representation", "index_variance", None, None),
    ("representation.u_atoms", "indexlaw.representation", "u_atoms", None, None),
    ("ugrid.bridge_bilinear", "indexlaw.ugrid", "bridge_bilinear", None, None),
    ("ugrid.bridge_cross", "indexlaw.ugrid", "bridge_cross", None, None),
    ("ugrid.bridge_kernel_quad", "indexlaw.ugrid", "bridge_kernel_quad", "pair_terms",
     lambda a, k, r: _size(a[0]) * _size(a[2])),
    ("temporal.GaussianCopula.density_grid", "indexlaw.temporal",
     "GaussianCopula.density_grid", "cells", lambda a, k, r: _size(r[1])),
    ("temporal.GaussianCopula.cross_cov", "indexlaw.temporal", "GaussianCopula.cross_cov",
     None, None),
    ("temporal.EmpiricalCopula.cross_cov", "indexlaw.temporal", "EmpiricalCopula.cross_cov",
     None, None),
    ("temporal.mutual_variation_covariance", "indexlaw.temporal",
     "mutual_variation_covariance", None, None),
    ("distributions.Mixture.quantile_extended", "indexlaw.distributions",
     "Mixture.quantile_extended", "points", lambda a, k, r: _size(r)),
    ("distributions.integrate_score", "indexlaw.distributions", "*.integrate_score",
     None, None),
    ("distributions.normal_quantile", "indexlaw.distributions", "normal_quantile", "points",
     lambda a, k, r: _size(r)),
    ("montecarlo.draw", "indexlaw.montecarlo", "draw", None, None),
    ("rng.uniforms", "indexlaw.rng", "uniforms", "draws", lambda a, k, r: _size(r)),
    ("decomposition.gap_estimate", "indexlaw.decomposition", "gap_estimate", None, None),
    ("decomposition.gap_variance", "indexlaw.decomposition", "gap_variance", None, None),
    ("decomposition.gap_inference", "indexlaw.decomposition", "gap_inference", None, None),
)


def metric_names() -> list:
    """Every per-layer metric the tracer reports, in order."""
    names = []
    for prefix, _, _, stat, _ in LAYERS:
        names += [f"{prefix}.calls", f"{prefix}.self_s"] + ([f"{prefix}.{stat}"] if stat else [])
    return names


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "indexlaw" or name.startswith("indexlaw."))]


class Tracer:
    """Wraps the layers of LAYERS and keeps their spans in memory."""

    def __init__(self):
        self.spans: list = []      # [layer, parent span, op, start, end, work]
        self.absent: list = []
        self.op = -1               # operation the next spans belong to
        self._stack: list = []
        self._patches: list = []   # (owner, attribute, original)

    def _wrap(self, layer: int, original, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [layer, stack[-1] if stack else -1, self.op, 0.0, 0.0, 0]
            spans.append(span)
            stack.append(sid)
            span[3] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if work is not None:
                try:
                    span[5] = int(work(args, kwargs, result))
                except Exception:  # a work count must never fail the traced call
                    span[5] = 0
            return result

        return wrapper

    def _targets(self, module: str, attribute: str):
        """(owner, name, original) for every binding to wrap; [] if absent."""
        try:
            mod = importlib.import_module(module)
        except ImportError:
            return []
        if "." not in attribute:
            original = getattr(mod, attribute, None)
            if not callable(original):
                return []
            return [(m, name, original) for m in _package_modules()
                    for name, value in list(vars(m).items()) if value is original]
        owner, method = attribute.split(".")
        if owner == "*":
            classes = [c for c in vars(mod).values()
                       if isinstance(c, type) and c.__module__ == mod.__name__]
        else:
            classes = [getattr(mod, owner)] if isinstance(getattr(mod, owner, None), type) else []
        return [(c, method, c.__dict__[method]) for c in classes
                if callable(c.__dict__.get(method))]

    def install(self) -> None:
        self.absent = []
        for layer, (prefix, module, attribute, _, work) in enumerate(LAYERS):
            targets = self._targets(module, attribute)
            if not targets:
                self.absent.append(prefix)
            for owner, name, original in targets:
                self._patches.append((owner, name, original))
                setattr(owner, name, self._wrap(layer, original, work))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def aggregate(self, cycles: int) -> dict:
        """calls, self time and work of each layer, per traced cycle."""
        out = {}
        n = len(self.spans)
        arr = np.array([s[:2] + s[3:] for s in self.spans], dtype=float).reshape(n, 5)
        layer, parent = arr[:, 0].astype(int), arr[:, 1].astype(int)
        duration, work = arr[:, 3] - arr[:, 2], arr[:, 4]
        child_time = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        self_time = duration - child_time
        for i, (prefix, _, _, stat, _) in enumerate(LAYERS):
            mine = layer == i
            out[f"{prefix}.calls"] = int(np.count_nonzero(mine)) / cycles
            out[f"{prefix}.self_s"] = float(self_time[mine].sum()) / cycles
            if stat:
                out[f"{prefix}.{stat}"] = float(work[mine].sum()) / cycles
        return out

    def write(self, path: Path) -> None:
        """Write every span: layer names, then [layer, parent, op, start,
        end, work] rows with times in seconds from the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        rows = [[s[0], s[1], s[2], round(s[3] - t0, 9), round(s[4] - t0, 9), s[5]]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": [layer[0] for layer in LAYERS], "absent": self.absent,
                       "spans": rows}, fh, separators=(",", ":"))
