"""Span tracing at the package's module boundaries, from the benchmark's side.

`Tracer.installed()` rebinds every public function and every public method
of the package's layer modules (plus `__init__` of the non-dataclass
classes, so builds are counted) to a wrapper that records a span.  Functions
are rebound under every name a package module holds them by, including the
defining module's own global, so `integrate_segment`'s recursion is counted
panel by panel.  Leaving the context restores the originals, so untraced
passes run the unmodified package.

A span has a name (`<layer>.<qualname>`), start, end, parent span and the
id of the op it belongs to (shared by every span of that op), plus the
exception class it ended with, if any.  Spans stay in memory in flat arrays
until `collect()`; the runner writes them out when the run ends.  A span's
self time is its duration minus the durations of its child spans, which on
one thread never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("theta", "curve", "quadrature", "differentials", "abel_jacobi", "inversion", "branches")
ROOT_SPAN = "bench.op"
# The series kernels: one call sums one theta series over a batch of points.
KERNELS = ("theta.theta_char", "theta.theta_char_dz", "theta.theta_char_dzk")

# Per-layer metrics: (name, unit).  Counts and times are per op unless the
# unit says otherwise; skip counts are per traced pass.
SKIP_CLASSES = ("ZeroCollision", "ContourThroughZero", "DegenerateC", "JacobianSingular")
PER_LAYER = (
    ("theta.calls", "calls/op"),
    ("theta.points", "points/op"),
    ("theta.self_s", "s/op"),
    ("theta.us_per_point", "us"),
    ("quadrature.panels", "calls/op"),
    ("quadrature.self_s", "s/op"),
    ("quadrature.sampled_tracks", "calls/op"),
    ("quadrature.winding_retries", "calls/op"),
    ("quadrature.scalar_tracks", "calls/op"),
    ("inversion.h3_quads", "calls/op"),
    ("inversion.laurent_builds", "calls/op"),
    ("inversion.pullback_builds", "calls/op"),
    ("inversion.locate_zeros_s", "s/op"),
    ("inversion.jacobian_check_s", "s/op"),
    ("inversion.riemann_constants_s", "s/op"),
    ("inversion.self_s", "s/op"),
    *((f"inversion.skips.{cls}", "count") for cls in SKIP_CLASSES),
    ("differentials.calls", "calls/op"),
    ("differentials.self_s", "s/op"),
    ("abel_jacobi.phi2_calls", "calls/op"),
    ("abel_jacobi.self_s", "s/op"),
    ("branches.beta_k_s", "s/op"),
    ("branches.newton_divergences", "calls/op"),
    ("branches.self_s", "s/op"),
    ("branches.select_epsilon_s", "s"),
    ("curve.self_s", "s/op"),
    ("trace.overhead_share", "ratio"),
)


@dataclasses.dataclass
class Spans:
    """The spans of one collection, as arrays indexed by span."""

    names: list[str]
    errors: list[str]
    name: np.ndarray
    parent: np.ndarray
    op: np.ndarray
    err: np.ndarray
    start: np.ndarray
    end: np.ndarray
    points: int

    def name_id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def count(self, name: str, error: str | None = None) -> int:
        mask = self.name == self.name_id(name)
        if error is not None:
            mask &= self.err == (self.errors.index(error) if error in self.errors else -2)
        return int(np.count_nonzero(mask))

    def inclusive(self, name: str) -> float:
        """Total duration of `name` spans, not counting those nested directly
        in another `name` span."""
        nid = self.name_id(name)
        mask = self.name == nid
        nested = (self.parent >= 0) & (self.name[np.maximum(self.parent, 0)] == nid)
        return float(np.sum((self.end - self.start)[mask & ~nested]))

    def self_times(self) -> np.ndarray:
        dur = self.end - self.start
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur - child

    def layer_of_span(self) -> np.ndarray:
        lut = np.array([_LAYER_INDEX.get(n.split(".", 1)[0], -1) for n in self.names] or [-1])
        return lut[self.name]

    def under(self, name: str) -> np.ndarray:
        """True for spans named `name` and for every span below one."""
        flag = self.name == self.name_id(name)
        anc = self.parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            flag[live] |= flag[anc[live]]
            anc[live] = self.parent[anc[live]]
        return flag

    def layer_entries(self, layer: str) -> np.ndarray:
        """Spans of `layer` whose caller is in another layer (or the op itself)."""
        span_layer = self.layer_of_span()
        parent_layer = np.where(self.parent >= 0, span_layer[np.maximum(self.parent, 0)], -1)
        return (span_layer == _LAYER_INDEX[layer]) & (parent_layer != span_layer)

    def signature(self) -> dict:
        """Every count the trace yields: calls by span name and by exception,
        and kernel points.  Two passes over the same ops must agree on it."""
        sig = {"points": self.points}
        for i, n in enumerate(np.bincount(self.name, minlength=len(self.names))):
            if n:
                sig[self.names[i]] = int(n)
        failed = self.err >= 0
        for key in zip(self.name[failed].tolist(), self.err[failed].tolist()):
            label = f"{self.names[key[0]]}!{self.errors[key[1]]}"
            sig[label] = sig.get(label, 0) + 1
        return sig


_LAYER_INDEX = {name: i for i, name in enumerate(LAYERS)}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self.errors: list[str] = []
        self._clear()
        self._patches = self._build_patches()

    def _clear(self):
        self._name = array("q")
        self._parent = array("q")
        self._op = array("q")
        self._err = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._points = 0
        self.op_id = -1

    def _id(self, table: list[str], key: str) -> int:
        if key not in table:
            table.append(key)
        return table.index(key)

    def wrap(self, fn, span_name: str, count_points: bool = False):
        """`fn` recording one span named `span_name` per call."""
        nid = self._id(self.names, span_name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(tracer._start)
            tracer._name.append(nid)
            tracer._parent.append(tracer._stack[-1])
            tracer._op.append(tracer.op_id)
            tracer._err.append(-1)
            tracer._end.append(0.0)
            if count_points:
                tracer._points += np.size(args[1])
            tracer._stack.append(i)
            tracer._start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer._err[i] = tracer._id(tracer.errors, type(exc).__name__)
                raise
            finally:
                tracer._end[i] = clock()
                tracer._stack.pop()

        return traced

    def _build_patches(self):
        """(owner, attribute, original, wrapper) for every rebinding."""
        by_original: dict[int, tuple[object, object]] = {}
        patches = []
        for layer in LAYERS:
            mod = importlib.import_module(f"nodal_theta.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        public = not meth.startswith("_")
                        builds = meth == "__init__" and not dataclasses.is_dataclass(obj)
                        if inspect.isfunction(fn) and (public or builds):
                            wrapper = self.wrap(fn, f"{layer}.{obj.__name__}.{meth}")
                            patches.append((obj, meth, fn, wrapper))
                elif callable(obj):
                    span = f"{layer}.{attr}"
                    by_original[id(obj)] = (obj, self.wrap(obj, span, count_points=span in KERNELS))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "nodal_theta" and not mod_name.startswith("nodal_theta."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = by_original.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((mod, attr, obj, hit[1]))
        return patches

    @contextmanager
    def installed(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def collect(self) -> Spans:
        """Hand over the spans recorded so far and start afresh."""
        if len(self._stack) != 1:
            raise RuntimeError("collect() inside an open span")
        as_int = lambda a: np.frombuffer(a, dtype=np.int64).copy() if len(a) else np.zeros(0, np.int64)
        as_float = lambda a: np.frombuffer(a, dtype=np.float64).copy() if len(a) else np.zeros(0)
        spans = Spans(
            names=list(self.names),
            errors=list(self.errors),
            name=as_int(self._name),
            parent=as_int(self._parent),
            op=as_int(self._op),
            err=as_int(self._err),
            start=as_float(self._start),
            end=as_float(self._end),
            points=self._points,
        )
        self._clear()
        return spans


def layer_metrics(spans: Spans, n_ops: int, speed: float) -> dict[str, float]:
    """Per-op layer metrics of one traced pass.  `speed` rescales measured
    seconds to the reference host speed (see hostspeed)."""
    self_t = spans.self_times() * speed
    span_layer = spans.layer_of_span()
    layer_self = {
        layer: float(np.sum(self_t[span_layer == i])) / n_ops for i, layer in enumerate(LAYERS)
    }
    kernel = np.isin(spans.name, [spans.name_id(k) for k in KERNELS])
    kernel_self = float(np.sum(self_t[kernel]))
    per_op = lambda x: x / n_ops
    out = {
        "theta.calls": per_op(int(np.count_nonzero(kernel))),
        "theta.points": per_op(spans.points),
        "theta.self_s": layer_self["theta"],
        "theta.us_per_point": kernel_self / spans.points * 1e6 if spans.points else 0.0,
        "quadrature.panels": per_op(spans.count("quadrature.integrate_segment")),
        "quadrature.self_s": layer_self["quadrature"],
        "quadrature.sampled_tracks": per_op(spans.count("quadrature.track_log_sampled")),
        "quadrature.winding_retries": per_op(
            spans.count("quadrature.winding_number_sampled", "ContourThroughZero")
        ),
        "quadrature.scalar_tracks": per_op(spans.count("quadrature.track_log")),
        "inversion.h3_quads": per_op(
            spans.count("inversion.LaurentData.H3") + spans.count("inversion.LaurentData.dH3_dc2")
        ),
        "inversion.laurent_builds": per_op(spans.count("inversion.LaurentData.__init__")),
        "inversion.pullback_builds": per_op(spans.count("inversion.ThetaPullback.__init__")),
        "inversion.locate_zeros_s": per_op(spans.inclusive("inversion.locate_zeros") * speed),
        "inversion.jacobian_check_s": per_op(
            spans.inclusive("inversion.jacobian_consistency_check") * speed
        ),
        "inversion.riemann_constants_s": per_op(spans.inclusive("inversion.riemann_constants") * speed),
        "inversion.self_s": layer_self["inversion"],
        "differentials.calls": per_op(int(np.count_nonzero(spans.layer_entries("differentials")))),
        "differentials.self_s": layer_self["differentials"],
        "abel_jacobi.phi2_calls": per_op(spans.count("abel_jacobi.phi2")),
        "abel_jacobi.self_s": layer_self["abel_jacobi"],
        "branches.beta_k_s": per_op(spans.inclusive("branches.beta_k") * speed),
        "branches.newton_divergences": per_op(spans.count("branches.beta_k", "NewtonDivergence")),
        "branches.self_s": layer_self["branches"],
        "curve.self_s": layer_self["curve"],
    }
    return out


def time_shares(spans: Spans) -> dict[str, float]:
    """Shares of op time spent under the spans the earlier cProfile runs
    singled out, for comparison with them."""
    dur = spans.end - spans.start
    op_time = float(np.sum(dur[spans.name == spans.name_id(ROOT_SPAN)]))
    if op_time <= 0.0:
        return {}
    quad_entry = spans.layer_entries("quadrature")
    return {
        "under inversion.locate_zeros": spans.inclusive("inversion.locate_zeros") / op_time,
        "under quadrature.integrate_segment": spans.inclusive("quadrature.integrate_segment") / op_time,
        "under branches.beta_k": spans.inclusive("branches.beta_k") / op_time,
        "quadrature under branches.beta_k": float(
            np.sum(dur[quad_entry & spans.under("branches.beta_k")])
        )
        / op_time,
        "under differentials.ThirdKindDifferential.h1_at_p2": spans.inclusive(
            "differentials.ThirdKindDifferential.h1_at_p2"
        )
        / op_time,
    }
