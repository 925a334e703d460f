"""Outside-in layer tracing for the rapd benchmark.

The tracer wraps the public functions each rapd layer exposes and records
one span per call: name, start, end and the span that caused it.  Spans of
one solve share the index of their top-level span as identifier.  Spans
stay in memory in flat arrays and are written out once, when the benchmark
ends.  A span's self time is its duration minus the durations of its direct
children.

Wrapped while a :class:`Tracer` is active (and restored afterwards):

- the problem instance's ``grad_y``, ``grad_y_incremental``,
  ``grad_x_block`` and ``phi_value``;
- ``bregman_prox`` as ``rapd.solver`` and ``rapd.baselines`` import it,
  split into dual and primal calls by the geometry it is called with;
- ``sample_index`` as ``rapd.solver`` imports it;
- ``StepSchedule.advance``;
- ``lagrangian_gap`` as ``rapd.harness.metrics`` and ``rapd.baselines``
  expose it;
- the constructors of the concrete problem classes (``problem.build``).

Top-level calls (``run``, ``pdhg_run``, ``mirror_prox_run``,
``solve_high_accuracy`` and the instance builders) are wrapped by the
workloads through :meth:`Tracer.call`.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

import rapd.baselines
import rapd.harness.metrics
import rapd.kernel_learning
import rapd.problem
import rapd.solver
from rapd.stepsize import StepSchedule

_ABSENT = object()


class NoTrace:
    """Stand-in used by untraced runs: calls go straight through."""

    def call(self, label, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def instrument(self, problem):
        pass


class Tracer:
    """In-memory span recorder that patches rapd's layer boundaries."""

    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.label_id = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._open = [-1]
        self._saved: list = []
        self._dual_geometries: list = []

    # -- recording -------------------------------------------------------

    def _id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def _span(self, lid: int, fn, args, kwargs):
        idx = len(self.start)
        self.label_id.append(lid)
        self.parent.append(self._open[-1])
        self.end.append(0)
        self._open.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._open.pop()

    def call(self, label, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``label``."""
        return self._span(self._id(label), fn, args, kwargs)

    def wrap(self, label, fn):
        lid = self._id(label)

        def traced(*args, **kwargs):
            return self._span(lid, fn, args, kwargs)
        return traced

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, new)

    def __enter__(self):
        for cls in (rapd.problem.BilinearProblem, rapd.problem.QuadraticGameProblem,
                    rapd.kernel_learning.KernelProblem):
            self._patch(cls, "__init__", self.wrap("problem.build", cls.__init__))
        self._patch(rapd.solver, "sample_index",
                    self.wrap("rng.sample_index", rapd.solver.sample_index))
        self._patch(StepSchedule, "advance",
                    self.wrap("stepsize.advance", StepSchedule.advance))
        gap = self.wrap("harness.metrics.lagrangian_gap", rapd.harness.metrics.lagrangian_gap)
        self._patch(rapd.harness.metrics, "lagrangian_gap", gap)
        self._patch(rapd.baselines, "lagrangian_gap", gap)
        dual_id = self._id("bregman.dual_prox")
        primal_id = self._id("bregman.primal_prox")
        for module in (rapd.solver, rapd.baselines):
            def prox(geom, f, t, s, xbar, _orig=module.bregman_prox):
                dual = any(geom is g for g in self._dual_geometries)
                return self._span(dual_id if dual else primal_id, _orig,
                                  (geom, f, t, s, xbar), {})
            self._patch(module, "bregman_prox", prox)
        return self

    def instrument(self, problem):
        """Wrap the coupling oracles of one problem instance; prox calls
        against its dual geometry count as dual proxes from now on."""
        for name in ("grad_y", "grad_y_incremental", "grad_x_block", "phi_value"):
            fn = getattr(problem, name)
            if fn is not None:
                self._patch(problem, name, self.wrap(f"problem.{name}", fn))
        self._dual_geometries.append(problem.dual_geometry)

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self._saved):
            if old is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._saved.clear()
        self._dual_geometries.clear()
        return False

    # -- analysis --------------------------------------------------------

    def spans(self) -> dict:
        """Spans as numpy arrays: label id, parent, start and end (ns),
        duration and self time (ns), and the label of each span's
        top-level span."""
        label = np.array(self.label_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start, dtype=np.int64)
        end = np.array(self.end, dtype=np.int64)
        dur = end - start
        nested = parent >= 0
        child_ns = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        root = np.where(nested, parent, np.arange(dur.size))
        while np.any(parent[root] >= 0):
            root = np.where(parent[root] >= 0, parent[root], root)
        return {"label": label, "parent": parent, "start": start, "end": end,
                "dur": dur, "self": dur - child_ns, "root_label": label[root]}

    def is_label(self, ids: np.ndarray, label: str) -> np.ndarray:
        return ids == self._ids.get(label, -1)

    def write(self, path) -> None:
        """Write every span to an ``.npz`` file."""
        sp = self.spans()
        np.savez(path, labels=np.array(self.labels), label=sp["label"],
                 parent=sp["parent"], start_ns=sp["start"], end_ns=sp["end"])


def layer_metrics(tracer: Tracer, rapd_iters: int, baseline_iters: dict,
                  grad_bytes: tuple) -> dict:
    """Per-layer counts and self times of one traced set-up and pass.

    Per-iteration figures divide by the rapd iterations of the pass and
    count only spans whose top-level span is ``solver.run``; a layer that
    is never called reports 0.  ``grad_bytes`` holds the coupling bytes
    one full ``grad_y`` and one ``grad_x_block`` read.
    """
    sp = tracer.spans()

    def is_(label):
        return tracer.is_label(sp["label"], label)

    in_rapd = tracer.is_label(sp["root_label"], "solver.run")

    def per_call_us(label):
        mask = is_(label) & in_rapd
        return float(sp["self"][mask].mean()) / 1e3 if mask.any() else 0.0

    def calls_per_iter(label):
        return float(np.count_nonzero(is_(label) & in_rapd)) / rapd_iters

    def seconds(label):
        return float(sp["dur"][is_(label)].sum()) / 1e9

    def self_us_per_iter(label, iters):
        return float(sp["self"][is_(label)].sum()) / 1e3 / iters if iters else 0.0

    gy_bytes, gx_bytes = grad_bytes
    gap = is_("harness.metrics.lagrangian_gap")
    in_oracle = tracer.is_label(sp["root_label"], "oracle.solve_high_accuracy")
    return {
        "problem.grad_y.calls_per_iter": calls_per_iter("problem.grad_y"),
        "problem.grad_y.us_per_call": per_call_us("problem.grad_y"),
        "problem.grad_y.bytes_per_iter": calls_per_iter("problem.grad_y") * gy_bytes,
        "problem.grad_y_incremental.calls_per_iter":
            calls_per_iter("problem.grad_y_incremental"),
        "problem.grad_y_incremental.us_per_call": per_call_us("problem.grad_y_incremental"),
        "problem.grad_x_block.calls_per_iter": calls_per_iter("problem.grad_x_block"),
        "problem.grad_x_block.us_per_call": per_call_us("problem.grad_x_block"),
        "problem.grad_x_block.bytes_per_call": float(gx_bytes),
        "problem.phi_value.calls": float(np.count_nonzero(is_("problem.phi_value") & in_rapd)),
        "problem.build_s": seconds("problem.build"),
        "bregman.dual_prox.us_per_call": per_call_us("bregman.dual_prox"),
        "bregman.primal_prox.us_per_call": per_call_us("bregman.primal_prox"),
        "rng.sample_index.us_per_call": per_call_us("rng.sample_index"),
        "stepsize.advance.us_per_call": per_call_us("stepsize.advance"),
        "solver.self_us_per_iter": self_us_per_iter("solver.run", rapd_iters),
        "harness.metrics.lagrangian_gap.calls": float(np.count_nonzero(gap)),
        "harness.metrics.lagrangian_gap.ms_per_call":
            float(sp["dur"][gap].mean()) / 1e6 if gap.any() else 0.0,
        "oracle.solve_high_accuracy.s": seconds("oracle.solve_high_accuracy"),
        "oracle.solve_high_accuracy.grad_evals":
            float(np.count_nonzero(is_("problem.grad_y") & in_oracle)),
        "kernel_learning.build_s": seconds("kernel_learning.build"),
        "baselines.pdhg_run.self_us_per_iter":
            self_us_per_iter("baselines.pdhg_run", baseline_iters.get("pdhg", 0)),
        "baselines.mirror_prox_run.self_us_per_iter":
            self_us_per_iter("baselines.mirror_prox_run", baseline_iters.get("mirror_prox", 0)),
        "trace.span_count": float(sp["dur"].size),
    }
