"""Randomized accelerated primal-dual main loop.

One iteration, from state ``(x^k, y^k)`` with cached ``g_prev =
grad_y(x^{k-1}, y^{k-1})``:

1. momentum direction  ``s^k = (1 + m theta^k) g_k - m theta^k g_prev``
2. dual ascent prox    ``y^{k+1} = argmin_y h(y) - <s^k, y - y^k>
                          + D_Y(y, y^k)/sigma^k``, bound once per run
3. sample one block    ``i_k`` (uniform or per given probabilities; a run
                       draws its indices ``DRAW_CHUNK`` at a time)
4. primal block prox   on block ``i_k`` only, at ``grad_{x_i} phi(x^k, y^{k+1})``,
                       written into ``x`` in place

then the dual-gradient cache moves forward and the schedule advances.
The convention ``(x^{-1}, y^{-1}) = (x^0, y^0)`` makes ``s^0 = g_0``.

Per-iteration cost: O(block) for the primal side plus the dual prox on
the whole of ``y`` (one fused step on the kernel dual) and O(1) Python
work; the dual step's checks run once, at the start (``bregman_prox``
is the checked public entry).  ``run`` keeps the coupling's linear
primal product ``w = K x`` (see ``SaddleProblem``), updates it from the
changed block alone, reads the dual gradient and the block gradient off
it, and recomputes it and checks the cached gradient against a fresh one
every ``CACHE_RESYNC_SWEEPS * m`` iterations.  The bookkeeping is O(block)
too: a running ``||x||^2`` for the divergence guard, moved by one dot
per iteration, and ergodic sums that bring a block up to date only when
it changes or when an average is read.  The accelerated schedule
advances as Python floats (``part2_scalars``), with no validation after
the first state; an iteration computes only the sampled block's step,
and a record reads the step vector off ``part2_tau``.

The bookkeeping around an iteration (start point, ergodic sums,
divergence guard, record points, stopping rules, the final trace) lives
in ``_Monitor``, which the deterministic baselines share.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .blockcore import BlockPartition, weighted_norm_sq_raw
# bregman_prox stays importable from here: the benchmark's tracer wraps it
from .bregman import ProductGeometry, bregman_prox  # noqa: F401
from .exceptions import DivergenceError, ParameterError, RegimeError
from .harness import metrics
from .problem import SaddleProblem
# sample_index stays importable from here: the benchmark's tracer wraps it
from .rng import sample_index, sample_indices  # noqa: F401
from .stepsize import StepSchedule, part2_scalars, part2_tau

DIVERGENCE_LIMIT = 1e12
#: an incrementally updated dual-gradient cache is recomputed in full and
#: checked for drift every CACHE_RESYNC_SWEEPS * m iterations
CACHE_RESYNC_SWEEPS = 64
#: relative drift of the cached dual gradient that fails a run
CACHE_DRIFT_LIMIT = 1e-10
#: block indices drawn at a time
DRAW_CHUNK = 1024


# ---------------------------------------------------------------------------
# single-step operations
# ---------------------------------------------------------------------------

def primal_block_step(problem: SaddleProblem, x: np.ndarray, y_next: np.ndarray,
                      i: int, tau_i: float) -> np.ndarray:
    """Prox-descent on block ``i`` only, as a new vector; other blocks are
    returned bit-identical.  ``run`` makes the same step in place."""
    if not tau_i > 0:
        raise ParameterError(f"primal step must be > 0, got {tau_i}")
    sl = problem.partition.block_slice(i)
    out = x.copy()
    out[sl] = problem.block_prox(i, tau_i, problem.grad_x_block(i, x, y_next), x[sl])
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
    cache_resyncs: int = 0          # full recomputations of the primal product
    max_cache_drift: float = 0.0    # largest relative drift found at a resync

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
    iterate_hook: object | None = None # callable(k_done, x, y); x and y are the live
                                       # iterates, valid until the next iteration:
                                       # copy what you keep


class _Monitor:
    """Bookkeeping shared by :func:`run` and the deterministic baselines.

    A loop starts from ``monitor.start`` and calls :meth:`step` (or, when
    each iteration changes one block of the live iterate, :meth:`step_block`;
    not a mix) once per completed iteration, then returns :meth:`finish`.
    The monitor keeps the ergodic sums, guards against divergence, calls
    the iterate hook, and at record points (``record_at`` and the last
    iteration) appends the loop's ``describe(k, wall_s)`` record, filled in
    with the metrics against the reference, then checks ``stop_when`` and
    the time budget.

    The primal ergodic sum is lazy: ``x_sum`` holds block ``j``'s iterates
    up to iteration ``last[j]``, and the block has not changed since, so
    it is brought up to date when the block changes and, for every block,
    when an average is read.  ``x_sq`` is a running ``||x||^2`` for the
    divergence guard, moved by one dot per block step against the block
    norms ``block_sq``; both are recomputed every
    ``CACHE_RESYNC_SWEEPS * m`` iterations.
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
        x = self.start[0]
        self.x_sum = np.zeros_like(x)
        self.y_sum = np.zeros_like(self.start[1])
        part = problem.partition
        self.slices = part.slices()
        self.sizes = part.sizes
        self.last = [0] * part.m
        self._norms(x)
        self.resync_every = CACHE_RESYNC_SWEEPS * part.m
        self.done = 0
        self.trace = RunTrace(method=method, seed=seed, partition=part,
                              geometry_note=_geometry_note(problem))
        self.tic = time.perf_counter()

    def step(self, x: np.ndarray, y: np.ndarray, x_avg: np.ndarray | None = None,
             y_avg: np.ndarray | None = None) -> bool:
        """Account for one iteration ending at ``(x, y)``; the ergodic sums
        take ``(x_avg, y_avg)`` instead when given.  Returns True when the
        loop should stop before ``K``."""
        self.done += 1
        self.x_sum += x if x_avg is None else x_avg
        self.last = [self.done] * len(self.sizes)
        self.x_sq = float(x @ x)
        return self._close(x, y, y if y_avg is None else y_avg)

    def step_block(self, x: np.ndarray, y: np.ndarray, i: int, old: np.ndarray,
                   new: np.ndarray) -> bool:
        """Account for one iteration that changed only block ``i`` of the
        live iterate ``x``, from ``old`` to ``new``, and moved ``y``."""
        pending = self.done - self.last[i]
        if pending:
            self.x_sum[self.slices[i]] += pending * old
        self.last[i] = self.done
        self.done += 1
        if self.done % self.resync_every == 0:
            self._norms(x)
        else:
            new_sq = float(new @ new)
            self.x_sq += new_sq - self.block_sq[i]
            self.block_sq[i] = new_sq
        return self._close(x, y, y)

    def _norms(self, x: np.ndarray) -> None:
        self.x_sq = float(x @ x)
        self.block_sq = [float(x[sl] @ x[sl]) for sl in self.slices]

    def _close(self, x, y, y_avg) -> bool:
        done = self.done
        self.y_sum += y_avg
        y_sq = float(y @ y)
        if not (self.x_sq <= DIVERGENCE_LIMIT ** 2 and y_sq <= DIVERGENCE_LIMIT ** 2):
            raise DivergenceError(
                f"iterate norms ||x|| = {abs(self.x_sq) ** 0.5:.3e}, ||y|| = "
                f"{y_sq ** 0.5:.3e}: one is not finite or exceeded "
                f"{DIVERGENCE_LIMIT:.1e} at iteration {done} "
                f"(method {self.trace.method}, seed {self.trace.seed})")

        opts = self.opts
        if opts.iterate_hook is not None:
            opts.iterate_hook(done, x, y)

        if done not in self.record_at and done != self.K:
            return False
        rec = self.describe(done, time.perf_counter() - self.tic)
        ref = opts.reference
        if ref is not None:
            self._flush(x)
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

    def _flush(self, x: np.ndarray) -> None:
        """Bring every block of the primal ergodic sum up to date."""
        pending = self.done - np.array(self.last)
        self.x_sum += np.repeat(pending, self.sizes) * x
        self.last = [self.done] * len(self.sizes)

    def finish(self, x: np.ndarray, y: np.ndarray) -> RunTrace:
        self._flush(x)
        trace = self.trace
        trace.final_x, trace.final_y = x, y
        trace.ergodic_x, trace.ergodic_y = ergodic_average(self.x_sum, self.y_sum, self.done)
        trace.iterations = self.done
        trace.wall_total_s = time.perf_counter() - self.tic
        return trace


def _cache_drift(cached: np.ndarray, fresh: np.ndarray, k: int) -> float:
    """Relative drift of the cached dual gradient from a fresh one; raises
    :class:`RegimeError` past ``CACHE_DRIFT_LIMIT``."""
    drift = float(np.linalg.norm(fresh - cached)) / max(1.0, float(np.linalg.norm(fresh)))
    if drift > CACHE_DRIFT_LIMIT:
        raise RegimeError(f"dual-gradient cache drifted by {drift:.3e} (relative) at k={k}")
    return drift


def _geometry_note(problem) -> str:
    dual = problem.dual_geometry
    parts = dual.parts if isinstance(dual, ProductGeometry) else [dual]
    return f"primal=euclidean, dual={'+'.join(g.kind for g in parts)}"


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
    # constant steps stay as given, accelerated tau_i only grow in
    # reciprocal and sigma only grows, so the first state's checks cover
    # every iteration
    if not np.all(schedule.tau > 0):
        raise ParameterError(f"primal steps must be > 0, got {schedule.tau}")
    if not schedule.sigma > 0:
        raise ParameterError(f"dual step must be > 0, got {schedule.sigma}")
    p_arr = schedule.p

    ref = opts.reference
    mu = problem.constants.mu
    accelerated = schedule.regime == "part2"
    # the current state as scalars; part2 advances them and a record reads
    # the step vector off part2_tau
    theta, sigma, taut, t = schedule.theta, schedule.sigma, schedule.tau_tilde, schedule.t
    clamped = schedule.theta_clamped
    used = None         # the scalars of the state the last iteration used; None = schedule
    tau0 = schedule.tau.tolist()
    scale = None        # 1 + 1/taut once the accelerated steps follow from taut
    if accelerated:
        mu_p, mu_s = schedule.mu_p.tolist(), schedule.mu.tolist()

    def describe(k, wall_s):
        tau = part2_tau(schedule, taut) if accelerated else schedule.tau
        rec = TraceRecord(k=k, wall_s=wall_s, i_k=i_k, sigma=sigma, theta=theta,
                          tau_min=float(tau.min()), tau_max=float(tau.max()), t=t)
        if ref is not None:
            # the state the last iteration used
            tau_prev, t_prev = (schedule.tau, schedule.t) if used is None else (
                part2_tau(schedule, used[2]), used[3])
            weights = 1.0 / tau_prev + (1.0 - 1.0 / m) * mu
            rec.wdist_sq = 0.5 * weighted_norm_sq_raw(x - ref.x_star, part, weights)
            rec.t_prev = t_prev
        return rec

    monitor = _Monitor(problem, f"rapd-{schedule.regime}", K, x0, y0, describe,
                       opts, seed=seed)
    trace = monitor.trace
    x, y = monitor.start
    slices = part.slices()
    grad_block = problem.grad_x_block_cached
    block_prox = problem.block_prox
    grad_y_at = problem.grad_y_cached
    incr = problem.grad_y_incremental
    dual_step = problem.dual_geometry.stepper(problem.h)
    # the primal product w = K x, moved forward block by block
    w = problem.primal_product(x)
    g_cur = g_prev = grad_y_at(w, x, y)
    s, s_prev = np.empty_like(g_cur), np.empty_like(g_cur)
    resync_every = CACHE_RESYNC_SWEEPS * m

    for done, i_k in enumerate(_block_draws(seed, m, K, p_arr), start=1):
        # momentum direction s^k = (1 + m theta) g_k - m theta g_{k-1}
        np.multiply(g_cur, 1.0 + m * theta, out=s)
        np.subtract(s, np.multiply(g_prev, m * theta, out=s_prev), out=s)
        y = dual_step(sigma, -s, y)
        sl = slices[i_k]
        old = x[sl].copy()
        tau_i = tau0[i_k] if scale is None else 1.0 / (mu_p[i_k] * scale - mu_s[i_k])
        new = block_prox(i_k, tau_i, grad_block(i_k, w, x, y), old)
        x[sl] = new
        incr(w, i_k, new - old)
        g_prev, g_cur = g_cur, grad_y_at(w, x, y)

        if accelerated:
            used = (theta, sigma, taut, t, clamped)
            theta, sigma, taut, clamped = part2_scalars(sigma, taut, m, clamped)
            t /= theta
            scale = 1.0 + 1.0 / taut

        if done % resync_every == 0:
            # the fresh gradient comes from the stateless oracle, so the
            # check covers the product and the read-off alike
            fresh = problem.grad_y(x, y)
            trace.max_cache_drift = max(trace.max_cache_drift,
                                        _cache_drift(g_cur, fresh, done))
            trace.cache_resyncs += 1
            w = problem.primal_product(x)
            g_cur = fresh
        elif opts.debug_cache_every and done % opts.debug_cache_every == 0:
            _cache_drift(g_cur, problem.grad_y(x, y), done)

        if monitor.step_block(x, y, i_k, old, new):
            break

    return monitor.finish(x, y)


def _block_draws(seed: int, m: int, K: int, p: np.ndarray | None):
    """The ``K`` block indices of a run, the stream of ``sample_index`` on
    a fresh ``CounterRng(seed)``, drawn ``DRAW_CHUNK`` at a time."""
    for start in range(0, K, DRAW_CHUNK):
        yield from sample_indices(seed, m, min(DRAW_CHUNK, K - start), p,
                                  start=start).tolist()
