"""Timing spans wrapped around the public functions of each crpencils layer.

The library is not instrumented itself: `install` replaces module-level
names and class attributes with thin wrappers that record a span per call.
Modules import functions by name, so each wrapper is installed where the
callers look the name up (for example `crpencils.analysis.modp_rank` and
`crpencils.tensors.qq_rref`), not only where the function is defined.

A span is (name, start, end, parent index, job id, measure).  Self time is
a span's duration minus the time its direct children cover; the calls are
single-threaded, so children nest strictly inside their parent.
"""
from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter


def _cells(a) -> int:
    """rows x cols of the matrix argument (numpy array or list of rows)."""
    shape = getattr(a, "shape", None)
    if shape is not None:
        return int(shape[0]) * int(shape[1]) if len(shape) == 2 else 0
    return len(a) * len(a[0]) if len(a) else 0


def _wrap_targets():
    """(owner, attribute, span name, measure) for every wrapped name.

    measure maps (args, kwargs, result) to the number stored with the span;
    it may be None.
    """
    from crpencils import analysis, catalog, linalg, pencils, tensors

    json_bytes = lambda args, kw, res: len(res)  # noqa: E731
    samples = lambda args, kw, res: res.samples_used  # noqa: E731
    cells = lambda args, kw, res: _cells(args[0])  # noqa: E731
    targets = [
        (catalog, name, "pencils.build", None)
        for name in (
            "build_gl_pencil", "build_sp_pencil", "build_so_pencil",
            "build_spin_pencil", "build_koszul_pencil", "build_adjoint_pencil",
        )
    ]
    targets += [
        (pencils, name, "modules.realize", None)
        for name in ("schur_module", "symplectic_module", "orthogonal_module")
    ]
    targets += [
        (pencils, "lie_action", "modules.lie_action", None),
        (tensors.GradedSpan, "from_tensors", "tensors.span", None),
        (tensors.GradedSpan, "coordinates", "tensors.coordinates", None),
        (linalg, "qq_rref", "linalg.qq_rref", cells),
        (tensors, "qq_rref", "linalg.qq_rref", cells),
        (linalg, "modp_rref", "linalg.modp_rref", cells),
        (analysis, "modp_rref", "linalg.modp_rref", cells),
        (linalg, "modp_kernel", "linalg.modp_kernel", cells),
        (analysis, "modp_kernel", "linalg.modp_kernel", cells),
        (analysis, "modp_rank", "linalg.modp_rank", None),
        (linalg.Subspace, "from_vectors", "linalg.subspace", None),
        (linalg.Subspace, "contains_subspace", "linalg.subspace", None),
        (analysis, "check_equivariance", "pencils.check_equivariance", None),
        (pencils.Pencil, "coeff_array_modp", "pencils.stack", None),
        (pencils.Pencil, "evaluate_modp", "pencils.evaluate_modp", None),
        (analysis, "constant_rank_verdict", "analysis.verdict", None),
        (analysis, "structured_points", "analysis.structured_points", None),
        (analysis, "generic_rank", "analysis.generic_rank", None),
        (analysis, "rnd", "analysis.rnd", samples),
        (catalog, "dumps_pencil", "catalog.dumps", json_bytes),
        (catalog, "loads_pencil", "catalog.loads", None),
        (catalog, "fixture_parse", "catalog.loads", None),
    ]
    return targets


class Tracer:
    """Records spans while `enabled`; `job` labels the spans of one job."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, job, measure, self]
        self.stack: list[list] = []  # [span index, child time]
        self.enabled = False
        self.job = ""
        self.missing: list[str] = []

    def span(self, name: str, fn, measure=None):
        def wrapper(*args, **kw):
            if not self.enabled:
                return fn(*args, **kw)
            idx = len(self.spans)
            parent = self.stack[-1][0] if self.stack else -1
            rec = [name, 0.0, 0.0, parent, self.job, 0, 0.0]
            self.spans.append(rec)
            frame = [idx, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            rec[1] = start
            try:
                res = fn(*args, **kw)
            finally:
                end = perf_counter()
                self.stack.pop()
                dur = end - start
                rec[2] = end
                rec[6] = dur - frame[1]
                if self.stack:
                    self.stack[-1][1] += dur
            if measure is not None:
                rec[5] = measure(args, kw, res)
            return res

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every target name; names a later version dropped are listed
        in `missing` and their metrics stay at zero."""
        for owner, attr, name, measure in _wrap_targets():
            raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if raw is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self.span(name, raw.__func__, measure)))
            else:
                setattr(owner, attr, self.span(name, raw, measure))
        if self.missing:
            print("trace: not found, left unwrapped: " + ", ".join(self.missing),
                  file=sys.stderr)

    @contextmanager
    def job_span(self, job_id: str):
        """The root span of one job; its self time is what no wrapper covers."""
        self.job = job_id
        idx = len(self.spans)
        frame = [idx, 0.0]
        self.stack.append(frame)
        self.spans.append(["job", perf_counter(), 0.0, -1, job_id, 0, 0.0])
        try:
            yield
        finally:
            self.stack.pop()
            rec = self.spans[idx]
            rec[2] = perf_counter()
            rec[6] = rec[2] - rec[1] - frame[1]
            self.job = ""

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, measure, _self in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent,
                     "job": job, "measure": measure}
                ) + "\n")


def layer_metrics(spans: list[list], scale: float = 1.0) -> dict[str, float]:
    """Per-layer self times (multiplied by `scale`), call counts and
    counters from recorded spans."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    measure: dict[str, float] = {}
    points = rank_checks = 0
    for name, _start, _end, parent, _job, meas, own in spans:
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        measure[name] = measure.get(name, 0) + meas
        pname = spans[parent][0] if parent >= 0 else ""
        if name == "pencils.evaluate_modp" and pname == "analysis.verdict":
            points += 1
        if name == "linalg.modp_rank" and pname == "analysis.rnd":
            rank_checks += 1

    def s(name):
        return self_s.get(name, 0.0) * scale

    def n(name):
        return calls.get(name, 0)

    samples = measure.get("analysis.rnd", 0)
    return {
        "modules.realize_s": s("modules.realize"),
        "modules.realize_calls": n("modules.realize"),
        "modules.lie_action_s": s("modules.lie_action"),
        "modules.lie_action_calls": n("modules.lie_action"),
        "tensors.span_s": s("tensors.span"),
        "tensors.span_calls": n("tensors.span"),
        "tensors.coordinates_s": s("tensors.coordinates"),
        "tensors.coordinates_calls": n("tensors.coordinates"),
        "linalg.qq_rref_s": s("linalg.qq_rref"),
        "linalg.qq_rref_calls": n("linalg.qq_rref"),
        "linalg.qq_rref_cells": measure.get("linalg.qq_rref", 0),
        "linalg.modp_rref_s": s("linalg.modp_rref"),
        "linalg.modp_rref_calls": n("linalg.modp_rref"),
        "linalg.modp_rref_cells": measure.get("linalg.modp_rref", 0),
        "linalg.modp_kernel_s": s("linalg.modp_kernel"),
        "linalg.modp_kernel_calls": n("linalg.modp_kernel"),
        "linalg.modp_kernel_cells": measure.get("linalg.modp_kernel", 0),
        "linalg.subspace_s": s("linalg.subspace"),
        "pencils.build_self_s": s("pencils.build"),
        "pencils.check_equivariance_s": s("pencils.check_equivariance"),
        "pencils.check_equivariance_calls": n("pencils.check_equivariance"),
        "pencils.stack_s": s("pencils.stack"),
        "pencils.stack_calls": n("pencils.stack"),
        "pencils.evaluate_modp_s": s("pencils.evaluate_modp"),
        "pencils.evaluate_modp_calls": n("pencils.evaluate_modp"),
        "analysis.verdict_self_s": s("analysis.verdict"),
        "analysis.points_evaluated": points,
        "analysis.structured_points_s": s("analysis.structured_points"),
        "analysis.rnd_self_s": s("analysis.rnd") + s("analysis.generic_rank"),
        "analysis.rnd_samples_used": samples,
        "analysis.rnd_rank_checks": rank_checks,
        "analysis.rnd_sample_yield": samples / rank_checks if rank_checks else 0.0,
        "catalog.dumps_s": s("catalog.dumps"),
        "catalog.loads_s": s("catalog.loads"),
        "catalog.json_bytes": measure.get("catalog.dumps", 0),
    }
