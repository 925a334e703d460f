"""Randomized accelerated primal-dual main loop.

One iteration, from state ``(x^k, y^k)`` with cached ``g_prev =
grad_y(x^{k-1}, y^{k-1})``:

1. momentum direction  ``s^k = (1 + m theta^k) g_k - m theta^k g_prev``
2. dual ascent prox    ``y^{k+1} = argmin_y h(y) - <s^k, y - y^k>
                          + D_Y(y, y^k)/sigma^k``
3. sample one block    ``i_k`` (uniform or per given probabilities)
4. primal block prox   on block ``i_k`` only, at ``grad_{x_i} phi(x^k, y^{k+1})``

then the dual-gradient cache moves forward and the schedule advances.
The convention ``(x^{-1}, y^{-1}) = (x^0, y^0)`` makes ``s^0 = g_0``.

Per-iteration cost: one block gradient, two proxes and one cache update.
A coupling separable across blocks (bilinear) updates the cache from the
changed block alone, at O(block) cost, and recomputes it in full every
``CACHE_RESYNC_SWEEPS * m`` iterations; any other coupling moves it
forward with one full dual gradient at the new iterate.

The bookkeeping around an iteration (start point, ergodic sums,
divergence guard, record points, stopping rules, the final trace) lives
in ``_Monitor``, which the deterministic baselines share.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .blockcore import BlockPartition, weighted_norm_sq_raw
from .bregman import bregman_prox
from .exceptions import DivergenceError, ParameterError, RegimeError
from .harness import metrics
from .problem import SaddleProblem
from .rng import CounterRng, sample_index
from .stepsize import StepSchedule

DIVERGENCE_LIMIT = 1e12
#: an incrementally updated dual-gradient cache is recomputed in full and
#: checked for drift every CACHE_RESYNC_SWEEPS * m iterations
CACHE_RESYNC_SWEEPS = 64


# ---------------------------------------------------------------------------
# single-step operations
# ---------------------------------------------------------------------------

def dual_step(problem: SaddleProblem, y: np.ndarray, s: np.ndarray,
              sigma: float) -> np.ndarray:
    """Dual prox-ascent step: maximize along ``s`` against ``h`` and the
    dual geometry."""
    return bregman_prox(problem.dual_geometry, problem.h, sigma, -s, y)


def primal_block_step(problem: SaddleProblem, x: np.ndarray, y_next: np.ndarray,
                      i: int, tau_i: float) -> np.ndarray:
    """Prox-descent on block ``i`` only; other blocks are returned
    bit-identical."""
    if not tau_i > 0:
        raise ParameterError(f"primal step must be > 0, got {tau_i}")
    sl = problem.partition.block_slice(i)
    g = problem.grad_x_block(i, x, y_next)
    out = x.copy()
    out[sl] = bregman_prox(problem.primal_geometry[i], problem.f[i], tau_i, g, x[sl])
    return out


def ergodic_average(xs_sum: np.ndarray, ys_sum: np.ndarray, count: int):
    """Uniform averages of the post-update iterates."""
    if count < 1:
        raise ParameterError("ergodic average needs at least one iteration")
    return xs_sum / count, ys_sum / count


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

@dataclass
class TraceRecord:
    """Snapshot after ``k`` completed updates."""

    k: int
    wall_s: float
    i_k: int
    sigma: float
    theta: float
    tau_min: float
    tau_max: float
    t: float
    gap: float = np.nan
    dist_sq: float = np.nan
    dy: float = np.nan
    # 0.5 * ||x^k - x*||^2 weighted by T^{k-1} + (1 - 1/m) M, and the
    # matching weight t^{k-1}; these feed the accelerated-rate bound
    wdist_sq: float = np.nan
    t_prev: float = np.nan


@dataclass
class RunTrace:
    """Per-run record collection plus terminal iterates and averages."""

    method: str
    seed: int | None
    partition: BlockPartition
    records: list = field(default_factory=list)
    final_x: np.ndarray | None = None
    final_y: np.ndarray | None = None
    ergodic_x: np.ndarray | None = None
    ergodic_y: np.ndarray | None = None
    iterations: int = 0
    wall_total_s: float = 0.0
    geometry_note: str = ""

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records], dtype=float)

    def at(self, k: int) -> TraceRecord:
        for r in self.records:
            if r.k == k:
                return r
        raise KeyError(f"no trace record at k={k}")


@dataclass
class RunOptions:
    """Knobs for :func:`run` that are not part of the algorithm itself."""

    record_at: list | None = None      # update counts to snapshot; None = ends only
    reference: object | None = None    # SaddleCertificate for error metrics
    debug_cache_every: int = 0         # every k iterations, check the dual-gradient
                                       # cache against a fresh one; never moves the iterates
    time_budget_s: float | None = None # stop early at a record point
    stop_when: object | None = None    # callable(x, y) -> bool, checked at records
    iterate_hook: object | None = None # callable(k_done, x, y), for tests


class _Monitor:
    """Bookkeeping shared by :func:`run` and the deterministic baselines.

    A loop starts from ``monitor.start``, calls :meth:`step` once per
    completed iteration and returns :meth:`finish`.  The monitor keeps the
    ergodic sums, guards against divergence, calls the iterate hook, and
    at record points (``record_at`` and the last iteration) appends the
    loop's ``describe(k, wall_s)`` record, filled in with the metrics
    against the reference, then checks ``stop_when`` and the time budget.
    """

    def __init__(self, problem: SaddleProblem, method: str, K: int, x0, y0,
                 describe, options: RunOptions, seed: int | None = None):
        if K < 1:
            raise ParameterError(f"need K >= 1, got {K}")
        self.problem = problem
        self.K = K
        self.describe = describe
        self.opts = options
        self.record_at = set() if options.record_at is None else {
            int(r) for r in options.record_at}
        self.start = problem.initial_point(x0, y0)
        self.x_sum = np.zeros_like(self.start[0])
        self.y_sum = np.zeros_like(self.start[1])
        self.done = 0
        self.trace = RunTrace(method=method, seed=seed, partition=problem.partition,
                              geometry_note=_geometry_note(problem))
        self.tic = time.perf_counter()

    def step(self, x: np.ndarray, y: np.ndarray, x_avg: np.ndarray | None = None,
             y_avg: np.ndarray | None = None) -> bool:
        """Account for one iteration ending at ``(x, y)``; the ergodic sums
        take ``(x_avg, y_avg)`` instead when given.  Returns True when the
        loop should stop before ``K``."""
        self.done = done = self.done + 1
        self.x_sum += x if x_avg is None else x_avg
        self.y_sum += y if y_avg is None else y_avg

        nx, ny = float(np.linalg.norm(x)), float(np.linalg.norm(y))
        if not (np.isfinite(nx) and np.isfinite(ny)) or max(nx, ny) > DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"iterate norm {max(nx, ny):.3e} exceeded {DIVERGENCE_LIMIT:.1e} "
                f"at iteration {done} (method {self.trace.method}, seed {self.trace.seed})")

        opts = self.opts
        if opts.iterate_hook is not None:
            opts.iterate_hook(done, x, y)

        if done not in self.record_at and done != self.K:
            return False
        rec = self.describe(done, time.perf_counter() - self.tic)
        ref = opts.reference
        if ref is not None:
            # looked up at call time, so a wrapped metric sees every call
            rec.gap = metrics.lagrangian_gap(self.problem, self.x_sum / done,
                                             self.y_sum / done, ref)
            rec.dist_sq = float(np.sum((x - ref.x_star) ** 2))
            rec.dy = self.problem.dual_geometry.dist(ref.y_star, y)
        self.trace.records.append(rec)
        if opts.stop_when is not None and opts.stop_when(x, y):
            return True
        return (opts.time_budget_s is not None
                and time.perf_counter() - self.tic > opts.time_budget_s)

    def finish(self, x: np.ndarray, y: np.ndarray) -> RunTrace:
        trace = self.trace
        trace.final_x, trace.final_y = x, y
        trace.ergodic_x, trace.ergodic_y = ergodic_average(self.x_sum, self.y_sum, self.done)
        trace.iterations = self.done
        trace.wall_total_s = time.perf_counter() - self.tic
        return trace


def _check_cache(cached: np.ndarray, fresh: np.ndarray, k: int) -> None:
    """Raise :class:`RegimeError` when the dual-gradient cache has drifted
    from a freshly computed gradient by more than 1e-10 relatively."""
    drift = float(np.linalg.norm(fresh - cached))
    if drift > 1e-10 * max(1.0, float(np.linalg.norm(fresh))):
        raise RegimeError(f"dual-gradient cache drifted by {drift:.3e} at k={k}")


def _geometry_note(problem) -> str:
    kinds = {g.kind for g in problem.primal_geometry}
    return f"primal={'/'.join(sorted(kinds))}, dual={problem.dual_geometry.kind}"


# ---------------------------------------------------------------------------
# main loop
# ---------------------------------------------------------------------------

def run(problem: SaddleProblem, schedule: StepSchedule, K: int, seed: int,
        x0: np.ndarray | None = None, y0: np.ndarray | None = None,
        options: RunOptions | None = None) -> RunTrace:
    """Execute ``K`` iterations and return the trace.

    Blocks are sampled with the schedule's probabilities ``schedule.p``
    (uniform when ``None``).  Metrics that need a saddle point (gap,
    distances) are recorded only when ``options.reference`` is supplied.
    """
    opts = options or RunOptions()
    part = problem.partition
    m = part.m
    if schedule.m != m:
        raise RegimeError(f"schedule built for m={schedule.m}, problem has m={m}")
    if schedule.regime == "part2":
        if np.any(problem.constants.mu <= 0) or problem.constants.L_yy != 0:
            raise RegimeError("accelerated schedule needs mu_i > 0 and L_yy = 0")
        for g in problem.primal_geometry:
            if g.kind != "euclidean":
                raise RegimeError("accelerated schedule is proven for the "
                                  "euclidean primal geometry only")
    p_arr = schedule.p

    ref = opts.reference
    mu = problem.constants.mu

    def describe(k, wall_s):
        rec = TraceRecord(k=k, wall_s=wall_s, i_k=i_k, sigma=sched.sigma,
                          theta=sched.theta, tau_min=float(sched.tau.min()),
                          tau_max=float(sched.tau.max()), t=sched.t)
        if ref is not None:
            w = 1.0 / tau_used + (1.0 - 1.0 / m) * mu
            rec.wdist_sq = 0.5 * weighted_norm_sq_raw(x - ref.x_star, part, w)
            rec.t_prev = t_used
        return rec

    monitor = _Monitor(problem, f"rapd-{schedule.regime}", K, x0, y0, describe,
                       opts, seed=seed)
    x, y = monitor.start
    rng = CounterRng(seed)
    sched = schedule
    g_cur = g_prev = problem.grad_y(x, y)
    incr = problem.grad_y_incremental
    resync_every = CACHE_RESYNC_SWEEPS * m

    for done in range(1, K + 1):
        # momentum direction s^k = (1 + m theta) g_k - m theta g_{k-1}
        s = (1.0 + m * sched.theta) * g_cur - (m * sched.theta) * g_prev
        y_new = dual_step(problem, y, s, sched.sigma)
        i_k = sample_index(rng, m, p_arr)
        sl = part.block_slice(i_k)
        old_block = x[sl].copy()
        x_new = primal_block_step(problem, x, y_new, i_k, float(sched.tau[i_k]))

        g_prev = g_cur
        if incr is not None:
            g_cur = incr(g_cur, i_k, old_block, x_new[sl], y_new)
        else:
            g_cur = problem.grad_y(x_new, y_new)

        x, y = x_new, y_new
        tau_used, t_used = sched.tau, sched.t
        sched = sched.advance()

        if incr is not None and done % resync_every == 0:
            fresh = problem.grad_y(x, y)
            _check_cache(g_cur, fresh, done)
            g_cur = fresh
        elif opts.debug_cache_every and done % opts.debug_cache_every == 0:
            _check_cache(g_cur, problem.grad_y(x, y), done)

        if monitor.step(x, y):
            break

    return monitor.finish(x, y)
