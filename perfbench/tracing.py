"""Layer spans recorded from outside the library.

Each layer is timed by replacing the module attribute its caller looks
up (``etau._kernels.area_and_grad``, ``etau.plateau.minimize``, ...)
with a wrapper that records a span: name, start, end, parent span and
op id, plus a few attributes read from the call or its result.  Spans
stay in memory until the run ends; ``layer_metrics`` turns them into
the per-layer numbers.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import os
import time
from dataclasses import dataclass

from etau import _csvio, _kernels, catenoid, curves, isometries, numerics, plateau


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: int
    attrs: dict | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder that patches the instrumented attributes while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], int] = {}
        self.op = -1
        self.paused = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def region(self, name: str):
        """Record one span around a block; yields the span, or None while paused."""
        if self.paused:
            yield None
            return
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _record(self, name, fn, args, kwargs, describe):
        with self.region(name) as span:
            result = fn(*args, **kwargs)
        if span is not None and describe is not None:
            span.attrs = describe(args, kwargs, result)
        return result

    def _count(self, name: str, fn, args, kwargs):
        if not self.paused:
            key = (self.op, name)
            self.counts[key] = self.counts.get(key, 0) + 1
        return fn(*args, **kwargs)

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def span_on(self, owner, attr: str, name: str, describe=None) -> None:
        self._patch(
            owner,
            attr,
            lambda fn: lambda *a, **k: self._record(name, fn, a, k, describe),
        )

    def count_on(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, lambda fn: lambda *a, **k: self._count(name, fn, a, k))

    def install(self) -> None:
        self.span_on(_kernels, "area_and_grad", "kernel", _describe_kernel)
        self.span_on(plateau, "minimize", "solver.minimize", _describe_solve)
        self.span_on(plateau, "minimize_with_refinement", "solver.refine")
        self.span_on(plateau.TriMesh, "__init__", "mesh.trimesh")
        self.span_on(plateau, "subdivide", "mesh.subdivide")
        self.span_on(plateau, "mesh_disk", "mesh.build")
        self.span_on(plateau, "mesh_from_grid", "mesh.build")
        # catenoid imported integrate by name; integrate_to_infinity calls
        # the numerics one, so patching both sees every call exactly once
        self.span_on(numerics, "integrate", "quad", _describe_quad)
        self.span_on(catenoid, "integrate", "quad", _describe_quad)
        self.span_on(catenoid, "bisect_monotone", "bisect")
        self.span_on(catenoid, "neck_parameter_for_height", "catenoid.invert")
        self.span_on(catenoid, "find_crossover", "catenoid.sweep")
        self.span_on(curves, "classify", "curves.classify", _describe_classify)
        self.count_on(curves, "vertical_line_crossings", "curves.crossing")
        self.span_on(curves.AsymptoticCurve, "__init__", "barriers.curve_build")
        self.span_on(isometries, "sampled_sup_shift", "isometries.sup_shift", _describe_sup_shift)
        self.span_on(_csvio, "write_table", "csvio.write", _describe_write)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# describe functions name the counts a span adds to its op's totals

def _describe_kernel(args, kwargs, result):
    want_grad = args[3] if len(args) > 3 else kwargs.get("want_grad", True)
    calls = "kernel.calls_grad" if want_grad else "kernel.calls_area"
    return {calls: 1, "kernel.tri_evals": len(args[2])}


def _describe_solve(args, kwargs, result):
    rep = result[1]
    return {
        "solver.iterations": rep.iterations,
        "solver.accepted_steps": len(rep.area_history) - 1,
        "solver.converged": int(rep.converged),
    }


def _describe_quad(args, kwargs, result):
    return {"quad.evals": result.evaluations, "quad.unconverged": int(not result.converged)}


_CLASSIFY_N = inspect.signature(curves.classify).parameters["n"].default
_SUP_SHIFT = inspect.signature(isometries.sampled_sup_shift)


def _describe_classify(args, kwargs, result):
    return {"curves.angles": args[2] if len(args) > 2 else kwargs.get("n", _CLASSIFY_N)}


def _describe_sup_shift(args, kwargs, result):
    bound = _SUP_SHIFT.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    return {"isometries.samples": a["n_random"] + len(a["ring_depths"]) * a["ring_samples"]}


def _describe_write(args, kwargs, result):
    return {"csvio.bytes": os.path.getsize(args[0] if args else kwargs["path"])}


# -- aggregation -----------------------------------------------------------

DETERMINISTIC_COUNTS = (
    "kernel.calls_grad",
    "kernel.calls_area",
    "kernel.tri_evals",
    "solver.iterations",
    "solver.trials",
    "quad.evals",
    "curves.crossing_calls",
)

# span name -> total it adds its full duration to
_INCLUSIVE = {
    "op": "op_s",
    "mesh.trimesh": "mesh.trimesh_s",
    "quad": "quad.s",
    "catenoid.invert": "catenoid.invert_s",
    "catenoid.sweep": "catenoid.sweep_s",
    "curves.classify": "curves.classify_s",
    "barriers.curve_build": "barriers.curve_build_s",
    "isometries.sup_shift": "isometries.sup_shift_s",
    "csvio.write": "csvio.write_s",
}
# span name -> total it adds its self time (duration minus child spans) to
_SELF = {
    "kernel": "kernel.self_s",
    "solver.minimize": "solver.self_s",
    "mesh.subdivide": "mesh.subdivide_s",
    "mesh.build": "mesh.build_s",
    "bisect": "bisect.s",
}
# span name -> call counter
_CALLS = {
    "solver.minimize": "solver.calls",
    "mesh.trimesh": "mesh.trimesh_calls",
    "quad": "quad.calls",
    "bisect": "bisect.calls",
}
_COUNTERS = {"curves.crossing": "curves.crossing_calls"}


def _under(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def totals_by_op(tracer: Tracer) -> dict[int, dict[str, float]]:
    """Per-layer counts and seconds summed over each op's spans."""
    spans = tracer.spans
    self_s = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            self_s[s.parent] -= s.seconds
    out: dict[int, dict[str, float]] = collections.defaultdict(
        lambda: collections.defaultdict(float)
    )
    levels: dict[int, int] = {}  # refine span -> minimize calls seen so far
    for i, s in enumerate(spans):
        t = out[s.op]
        t["spans"] += 1
        if s.name in _INCLUSIVE:
            t[_INCLUSIVE[s.name]] += s.seconds
        if s.name in _SELF:
            t[_SELF[s.name]] += self_s[i]
        if s.name in _CALLS:
            t[_CALLS[s.name]] += 1
        for key, value in (s.attrs or {}).items():
            t[key] += value
        if s.name == "kernel" and _under(spans, i, "solver.minimize"):
            t["solver.trials"] += 1
        if s.name == "solver.minimize" and s.parent >= 0 and spans[s.parent].name == "solver.refine":
            level = levels.get(s.parent, 0)
            levels[s.parent] = level + 1
            t[f"solver.level{level}_s"] += s.seconds
    for (op, name), n in tracer.counts.items():
        out[op][_COUNTERS[name]] += n
    return out


def op_counts(totals: dict[str, float]) -> dict[str, int]:
    """The counts the determinism gate compares, from one op's totals."""
    return {k: int(totals.get(k, 0)) for k in DETERMINISTIC_COUNTS}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: list[int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each a mean per op, as ``name -> (value, unit)``."""
    by_op = totals_by_op(tracer)
    t: dict[str, float] = collections.defaultdict(float)
    for op in ops:
        for key, value in by_op.get(op, {}).items():
            t[key] += value
    n = max(len(ops), 1)

    def per_op(key: str) -> float:
        return t[key] / n

    return {
        "kernel.calls_grad": (per_op("kernel.calls_grad"), "count"),
        "kernel.calls_area": (per_op("kernel.calls_area"), "count"),
        "kernel.tri_evals": (per_op("kernel.tri_evals"), "count"),
        "kernel.self_s": (per_op("kernel.self_s"), "s"),
        "kernel.ns_per_tri": (_ratio(t["kernel.self_s"], t["kernel.tri_evals"], 1e9), "ns"),
        "kernel.share": (_ratio(t["kernel.self_s"], t["op_s"]), "frac"),
        "solver.calls": (per_op("solver.calls"), "count"),
        "solver.iterations": (per_op("solver.iterations"), "count"),
        "solver.accepted_steps": (per_op("solver.accepted_steps"), "count"),
        "solver.trials": (per_op("solver.trials"), "count"),
        "solver.accept_ratio": (_ratio(t["solver.accepted_steps"], t["solver.trials"]), "frac"),
        "solver.converged_frac": (_ratio(t["solver.converged"], t["solver.calls"]), "frac"),
        "solver.self_s": (per_op("solver.self_s"), "s"),
        **{f"solver.level{k}_s": (per_op(f"solver.level{k}_s"), "s") for k in range(4)},
        "mesh.trimesh_calls": (per_op("mesh.trimesh_calls"), "count"),
        "mesh.trimesh_s": (per_op("mesh.trimesh_s"), "s"),
        "mesh.subdivide_s": (per_op("mesh.subdivide_s"), "s"),
        "mesh.build_s": (per_op("mesh.build_s"), "s"),
        "quad.calls": (per_op("quad.calls"), "count"),
        "quad.evals": (per_op("quad.evals"), "count"),
        "quad.unconverged": (per_op("quad.unconverged"), "count"),
        "quad.s": (per_op("quad.s"), "s"),
        "quad.ns_per_eval": (_ratio(t["quad.s"], t["quad.evals"], 1e9), "ns"),
        "bisect.calls": (per_op("bisect.calls"), "count"),
        "bisect.s": (per_op("bisect.s"), "s"),
        "catenoid.invert_s": (per_op("catenoid.invert_s"), "s"),
        "catenoid.sweep_s": (per_op("catenoid.sweep_s"), "s"),
        "curves.classify_s": (per_op("curves.classify_s"), "s"),
        "curves.angles": (per_op("curves.angles"), "count"),
        "curves.us_per_angle": (_ratio(t["curves.classify_s"], t["curves.angles"], 1e6), "us"),
        "curves.crossing_calls": (per_op("curves.crossing_calls"), "count"),
        "curves.retry_ratio": (_ratio(t["curves.crossing_calls"], t["curves.angles"]), "frac"),
        "barriers.curve_build_s": (per_op("barriers.curve_build_s"), "s"),
        "isometries.sup_shift_s": (per_op("isometries.sup_shift_s"), "s"),
        "isometries.ns_per_sample": (
            _ratio(t["isometries.sup_shift_s"], t["isometries.samples"], 1e9),
            "ns",
        ),
        "csvio.write_s": (per_op("csvio.write_s"), "s"),
        "csvio.bytes": (per_op("csvio.bytes"), "B"),
        "trace.spans_per_op": (per_op("spans"), "count"),
    }
