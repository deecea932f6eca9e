"""Outside-in tracing of framestream's module boundaries.

The tracer replaces the public functions named in ``_SPANS`` at every
module that binds them (``streaming.frame_jet`` and
``verification.frame_jet`` are separate bindings of one function), the
``FramePoint.loose`` classmethod, and the ``raw`` callable of every
built-in frame field.  Each call through a wrapper records a span
(name, start, end, parent) in memory.  Nothing under ``src/`` is
edited: the wrappers are installed for one traced pass and removed
again, so untraced passes run the unmodified package.

Self time of a span is its duration minus the time its child spans
cover.  Spans are strictly nested (one thread, one stack), so the
covered time is the sum of the children's durations.
"""
from __future__ import annotations

import array
import contextlib
import time

import numpy as np

import framestream
from framestream import (catalog, cli, curvature, derivatives, frames,
                         streaming, verification)
from framestream.dual import Dual
from framestream.errors import (DegeneratePoint, EvaluationFailure,
                                FoliationMissing)

_MODULES = (framestream, frames, derivatives, streaming, catalog, curvature,
            verification, cli)
_COUNTED = (DegeneratePoint, EvaluationFailure, FoliationMissing)
_DEFAULT_ENGINE = derivatives.DEFAULT_CFG.engine

# (defining module, function name) -> span name.  frame_jet and the raw
# callables are split by engine and argument type in their wrappers.
_SPANS = {
    (derivatives, "frame_jet"): "derivatives.frame_jet",
    (streaming, "coefficients_from_jet"): "streaming.coefficients_from_jet",
    (streaming, "grad_mu"): "streaming.grad_mu",
    (streaming, "grad_omega"): "streaming.grad_omega",
    (catalog, "catalog_coefficients"): "catalog.catalog_coefficients",
    (verification, "ray_oracle"): "verification.ray_oracle",
    (curvature, "parallel_transport_holonomy"):
        "curvature.parallel_transport_holonomy",
    (verification, "conservation_check"): "verification.conservation_check",
    (verification, "run_checks"): "verification.run_checks",
    (cli, "main"): "cli.main",
}
ROOT_SPAN = "bench.pass"
HOLONOMY = "curvature.parallel_transport_holonomy"

# Span name -> the per-layer metrics reported for it.
_LAYER_METRICS = (
    ("frames.raw.dual", ("calls", "us_per_call")),
    ("frames.raw.float", ("calls", "us_per_call")),
    ("frames.FramePoint.loose", ("calls", "self_s")),
    ("derivatives.frame_jet.dual", ("calls", "self_s", "us_per_call")),
    ("derivatives.frame_jet.fd", ("calls", "self_s", "us_per_call")),
    ("streaming.coefficients_from_jet", ("calls", "self_s", "us_per_call")),
    ("streaming.grad_mu", ("busy_s",)),
    ("streaming.grad_omega", ("busy_s",)),
    ("catalog.catalog_coefficients", ("calls", "us_per_call")),
    ("verification.ray_oracle", ("calls", "self_s", "us_per_call")),
    (HOLONOMY, ("calls", "busy_s")),
    ("verification.conservation_check", ("busy_s",)),
    ("verification.run_checks", ("self_s",)),
    ("cli.main", ("self_s",)),
)


def _loop_steps(loop) -> int:
    """Steps of a holonomy loop, closing it the way the function does."""
    pts = np.asarray(loop, dtype=float)
    closed = float(np.linalg.norm(pts[0] - pts[-1])) <= 1e-9
    return len(pts) - 1 if closed else len(pts)


class Tracer:
    """Span and counter store for the traced passes of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("l")
        self.parent = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self._restore: list = []
        self.errors = {cls.__name__: 0 for cls in _COUNTED}
        self.holonomy_steps = 0
        self._jet_points: set = set()
        self.distinct_jet_points = 0
        self.passes = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _count(self, exc: BaseException) -> None:
        # An exception crosses several wrappers; count it at the first.
        if getattr(exc, "_bench_counted", False):
            return
        exc._bench_counted = True
        for cls in _COUNTED:
            if isinstance(exc, cls):
                self.errors[cls.__name__] += 1

    def _wrap(self, fn, classify):
        """Wrap ``fn`` in a span whose name id ``classify(args, kwargs)``
        picks before the clock starts."""
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(classify(args, kwargs))
            self.parent.append(stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except _COUNTED as exc:
                self._count(exc)
                raise
            finally:
                t1 = perf()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
        return wrapper

    def _classifier(self, name: str):
        if name == "derivatives.frame_jet":
            ids = {"dual": self._id(name + ".dual"),
                   "fd": self._id(name + ".fd")}
            points = self._jet_points

            def classify(args, kwargs):
                cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
                r = args[1] if len(args) > 1 else kwargs["r"]
                points.add(np.asarray(r, dtype=float).tobytes())
                return ids[cfg.engine if cfg is not None
                           else _DEFAULT_ENGINE]
            return classify
        nid = self._id(name)
        if name == HOLONOMY:
            def classify(args, kwargs):
                loop = args[1] if len(args) > 1 else kwargs["loop"]
                self.holonomy_steps += _loop_steps(loop)
                return nid
            return classify
        return lambda args, kwargs: nid

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_raw(self, field) -> None:
        dual_id = self._id("frames.raw.dual")
        float_id = self._id("frames.raw.float")
        self._patch(field, "raw", self._wrap(
            field.raw,
            lambda args, kwargs: dual_id if isinstance(args[0], Dual)
            else float_id))

    def _install(self, fields) -> None:
        for (home, fname), name in _SPANS.items():
            orig = getattr(home, fname)
            wrapped = self._wrap(orig, self._classifier(name))
            for mod in _MODULES:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, attr, wrapped)

        loose = vars(frames.FramePoint)["loose"]
        loose_id = self._id("frames.FramePoint.loose")
        self._patch(frames.FramePoint, "loose", classmethod(
            self._wrap(loose.__func__, lambda args, kwargs: loose_id)))

        orig_builtin = frames.builtin_frame

        def builtin_frame(fid):
            field = orig_builtin(fid)
            self._wrap_raw(field)
            return field
        for mod in _MODULES:
            for attr, val in list(vars(mod).items()):
                if val is orig_builtin:
                    self._patch(mod, attr, builtin_frame)
        for field in fields:
            self._wrap_raw(field)

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def traced_pass(self, fields=()):
        """Install the wrappers, record one pass under a root span, and
        remove the wrappers again.  ``fields`` are frame fields the
        workload built before tracing started."""
        self._install(fields)
        idx = len(self.start)
        self.name_id.append(self._id(ROOT_SPAN))
        self.parent.append(-1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            self._uninstall()
            self.distinct_jet_points += len(self._jet_points)
            self._jet_points.clear()
            self.passes += 1

    def arrays(self) -> dict:
        """Spans as numpy arrays: name id, parent index, start, end."""
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int_),
                "parent": np.frombuffer(self.parent, dtype=np.int_),
                "start": np.frombuffer(self.start, dtype=float),
                "end": np.frombuffer(self.end, dtype=float)}

    def layer_totals(self) -> dict:
        """name -> (calls, busy seconds, self seconds) over all spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        covered = np.zeros_like(dur)
        child = a["parent"] >= 0
        np.add.at(covered, a["parent"][child], dur[child])
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        busy = np.bincount(a["name_id"], weights=dur, minlength=k)
        selft = np.bincount(a["name_id"], weights=own, minlength=k)
        return {name: (int(calls[i]), float(busy[i]), float(selft[i]))
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write every span and the name table to a compressed .npz."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, output_bytes: float,
                      overhead_frac: float) -> dict:
        """Per-layer metrics; counts and seconds are per traced pass."""
        totals = self.layer_totals()
        per = max(self.passes, 1)
        out = {}
        for name, kinds in _LAYER_METRICS:
            calls, busy, own = totals.get(name, (0, 0.0, 0.0))
            values = {"calls": calls / per, "busy_s": busy / per,
                      "self_s": own / per,
                      "us_per_call": 1e6 * busy / calls if calls else 0.0}
            for kind in kinds:
                out[f"{name}.{kind}"] = values[kind]
        busy = totals.get(HOLONOMY, (0, 0.0, 0.0))[1]
        out[HOLONOMY + ".us_per_step"] = (
            1e6 * busy / self.holonomy_steps if self.holonomy_steps else 0.0)
        jets = sum(totals.get(f"derivatives.frame_jet.{engine}", (0,))[0]
                   for engine in ("dual", "fd"))
        out["derivatives.jet_reuse"] = (
            self.distinct_jet_points / jets if jets else 0.0)
        for name, error in (
                ("derivatives.degenerate_rejections", "DegeneratePoint"),
                ("derivatives.evaluation_failures", "EvaluationFailure"),
                ("streaming.foliation_missing", "FoliationMissing")):
            out[name] = self.errors[error] / per
        out["cli.output_bytes"] = float(output_bytes)
        out["trace.overhead_frac"] = overhead_frac
        return out
