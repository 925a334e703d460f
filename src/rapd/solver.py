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
per iteration and recomputed at those resyncs (``_Monitor.resync``), and
ergodic sums that bring a block up to date only when it changes or when
an average is read.  The accelerated schedule advances as Python floats
(``part2_scalars``), with no check after the first state's momentum
bound; an iteration computes only the sampled block's step, and a record
reads the step vector off ``part2_tau``.

The bookkeeping around an iteration (start point, ergodic sums,
divergence guard, record points, stopping rules, the final trace) lives
in ``_Monitor``, which the deterministic baselines share.  ``_lockstep``,
``run``'s seed-batched twin for the rate suites, batches only the three
read-offs of the primal product; its schedule checks, records, drift
check, divergence error and trace closing are ``run``'s own functions.
"""

from __future__ import annotations

import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from operator import attrgetter

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


_FIELDS = tuple(f.name for f in fields(TraceRecord))
_ROW = attrgetter(*_FIELDS)


class RecordLog(Sequence):
    """A run's records packed as doubles, one row of ``_FIELDS`` each, so a
    kept trace costs 8 bytes per field rather than a Python object per
    value.  Reads build fresh :class:`TraceRecord` copies."""

    def __init__(self):
        self.buf = array("d")

    def __len__(self) -> int:
        return len(self.buf) // len(_FIELDS)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        n, i = len(_FIELDS), range(len(self))[i]
        k, wall_s, i_k, *rest = self.buf[i * n:(i + 1) * n]
        return TraceRecord(int(k), wall_s, int(i_k), *rest)

    def append(self, rec: TraceRecord) -> None:
        self.buf.extend(_ROW(rec))


@dataclass
class RunTrace:
    """Per-run record collection plus terminal iterates and averages."""

    method: str
    seed: int | None
    partition: BlockPartition
    records: RecordLog = field(default_factory=RecordLog)
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
        return np.array(self.records.buf[_FIELDS.index(name)::len(_FIELDS)], dtype=float)

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
    with the metrics against the reference, then checks ``stop_when``.

    The primal ergodic sum is lazy: ``x_sum`` holds block ``j``'s iterates
    up to iteration ``last[j]``, and the block has not changed since, so
    it is brought up to date when the block changes and, for every block,
    when an average is read.  ``x_sq`` is a running ``||x||^2`` for the
    divergence guard, moved by one dot per block step against the block
    norms ``block_sq``; :meth:`resync` recomputes both, at the start and
    whenever the loop resyncs its own caches.
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
        self.start = x, y = problem.initial_point(x0, y0)
        self.x_sum, self.y_sum = np.zeros_like(x), np.zeros_like(y)
        part = problem.partition
        self.slices = part.slices()
        self.sizes = part.sizes
        self.last = [0] * part.m
        self.resync(x)
        self.done = 0
        self.trace = _new_trace(problem, method, seed)
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
        new_sq = float(new.dot(new))
        self.x_sq += new_sq - self.block_sq[i]
        self.block_sq[i] = new_sq
        return self._close(x, y, y)

    def resync(self, x: np.ndarray) -> None:
        """Recompute ``x_sq`` and ``block_sq``, before an iteration's :meth:`step_block`."""
        self.x_sq = float(x @ x)
        self.block_sq = [float(x[sl] @ x[sl]) for sl in self.slices]

    def _close(self, x, y, y_avg) -> bool:
        done = self.done
        self.y_sum += y_avg
        y_sq = float(y.dot(y))
        if not (self.x_sq <= DIVERGENCE_LIMIT ** 2 and y_sq <= DIVERGENCE_LIMIT ** 2):
            raise _divergence(self.x_sq, y_sq, done, self.trace.method, self.trace.seed)

        opts = self.opts
        if opts.iterate_hook is not None:
            opts.iterate_hook(done, x, y)

        if done not in self.record_at and done != self.K:
            return False
        rec = self.describe(done, time.perf_counter() - self.tic)
        if opts.reference is not None:
            self._flush(x)
            _measure(rec, self.problem, opts.reference, x, y, self.x_sum / done,
                     self.y_sum / done)
        self.trace.records.append(rec)
        return opts.stop_when is not None and bool(opts.stop_when(x, y))

    def _flush(self, x: np.ndarray) -> None:
        """Bring every block of the primal ergodic sum up to date."""
        pending = self.done - np.array(self.last)
        self.x_sum += np.repeat(pending, self.sizes) * x
        self.last = [self.done] * len(self.sizes)

    def finish(self, x: np.ndarray, y: np.ndarray) -> RunTrace:
        self._flush(x)
        return _close_trace(self.trace, x, y, self.x_sum, self.y_sum, self.done, self.tic)


def _new_trace(problem: SaddleProblem, method: str, seed: int | None) -> RunTrace:
    dual = problem.dual_geometry
    parts = dual.parts if isinstance(dual, ProductGeometry) else [dual]
    return RunTrace(method=method, seed=seed, partition=problem.partition,
                    geometry_note=f"primal=euclidean, dual={'+'.join(g.kind for g in parts)}")


def _close_trace(trace: RunTrace, x, y, x_sum, y_sum, done: int, tic: float) -> RunTrace:
    """``trace`` ended at ``(x, y)`` after ``done`` iterations, on up-to-date sums."""
    trace.final_x, trace.final_y = x, y
    trace.ergodic_x, trace.ergodic_y = ergodic_average(x_sum, y_sum, done)
    trace.iterations = done
    trace.wall_total_s = time.perf_counter() - tic
    return trace


def _divergence(x_sq, y_sq, k: int, method: str, seed) -> DivergenceError:
    """The error for squared iterate norms that failed the guard at iteration ``k``."""
    return DivergenceError(f"iterate norms ||x|| = {abs(x_sq) ** 0.5:.3e}, ||y|| = "
                           f"{y_sq ** 0.5:.3e}: one is not finite or exceeded "
                           f"{DIVERGENCE_LIMIT:.1e} at iteration {k} "
                           f"(method {method}, seed {seed})")


def _measure(rec: TraceRecord, problem: SaddleProblem, ref, x, y, x_avg, y_avg) -> None:
    """Fill in ``rec``'s metrics against ``ref`` at ``(x, y)`` and the averages."""
    # looked up at call time, so a wrapped metric sees every call
    rec.gap = metrics.lagrangian_gap(problem, x_avg, y_avg, ref)
    rec.dist_sq = float(np.sum((x - ref.x_star) ** 2))
    rec.dy = problem.dual_geometry.dist(ref.y_star, y)


def _rapd_record(problem: SaddleProblem, schedule: StepSchedule, ref, k: int, wall_s: float,
                 i_k: int, state: tuple, used, x: np.ndarray) -> TraceRecord:
    """A rapd record after ``k`` updates, the last on block ``i_k``, at the
    scalars ``state = (theta, sigma, taut, t)``, the iterate ``x`` and the
    ``(taut, t)`` the last update ``used`` (None: the schedule's own)."""
    theta, sigma, taut, t = state
    tau = part2_tau(schedule, taut) if schedule.regime == "part2" else schedule.tau
    rec = TraceRecord(k=k, wall_s=wall_s, i_k=i_k, sigma=sigma, theta=theta,
                      tau_min=float(tau.min()), tau_max=float(tau.max()), t=t)
    if ref is not None:
        tau_prev, rec.t_prev = (schedule.tau, schedule.t) if used is None else (
            part2_tau(schedule, used[0]), used[1])
        weights = 1.0 / tau_prev + (1.0 - 1.0 / schedule.m) * problem.constants.mu
        rec.wdist_sq = 0.5 * weighted_norm_sq_raw(x - ref.x_star, problem.partition, weights)
    return rec


def _cache_drift(cached: np.ndarray, fresh: np.ndarray, k: int) -> float:
    """Relative drift of the cached dual gradient from a fresh one; raises
    :class:`RegimeError` past ``CACHE_DRIFT_LIMIT``."""
    drift = float(np.linalg.norm(fresh - cached)) / max(1.0, float(np.linalg.norm(fresh)))
    if drift > CACHE_DRIFT_LIMIT:
        raise RegimeError(f"dual-gradient cache drifted by {drift:.3e} (relative) at k={k}")
    return drift


def _resynced(trace: RunTrace, cached: np.ndarray, fresh: np.ndarray, k: int) -> np.ndarray:
    """``fresh``, once ``trace`` has counted the resync and its drift from ``cached``."""
    trace.max_cache_drift = max(trace.max_cache_drift, _cache_drift(cached, fresh, k))
    trace.cache_resyncs += 1
    return fresh


# ---------------------------------------------------------------------------
# main loop
# ---------------------------------------------------------------------------

def _start_state(problem: SaddleProblem, schedule: StepSchedule) -> tuple:
    """The scalar start ``(theta, sigma, taut, t)`` of ``schedule``, once it
    is checked against ``problem``."""
    m = problem.partition.m
    if schedule.m != m:
        raise RegimeError(f"schedule built for m={schedule.m}, problem has m={m}")
    if schedule.regime == "part2":
        if np.any(problem.constants.mu <= 0) or problem.constants.L_yy != 0:
            raise RegimeError("accelerated schedule needs mu_i > 0 and L_yy = 0")
        # theta never decreases along the recursion, so theta^1 bounds them all
        taut = schedule.tau_tilde
        if not (taut is not None and taut > 0 and 1.0 / np.sqrt(1.0 + taut) >= 1.0 - 1.0 / m):
            raise RegimeError(f"accelerated schedule with taut = {taut!r}: the momentum "
                              f"1/sqrt(1 + taut) falls below 1 - 1/m = {1.0 - 1.0 / m!r}")
    # constant steps stay as given, accelerated tau_i only grow in
    # reciprocal and sigma only grows, so the first state's checks cover
    # every iteration
    if not np.all(schedule.tau > 0):
        raise ParameterError(f"primal steps must be > 0, got {schedule.tau}")
    if not schedule.sigma > 0:
        raise ParameterError(f"dual step must be > 0, got {schedule.sigma}")
    return schedule.theta, schedule.sigma, schedule.tau_tilde, schedule.t


def run(problem: SaddleProblem, schedule: StepSchedule, K: int, seed: int,
        x0: np.ndarray | None = None, y0: np.ndarray | None = None,
        options: RunOptions | None = None) -> RunTrace:
    """Execute ``K`` iterations and return the trace.

    Blocks are sampled with the schedule's probabilities ``schedule.p``
    (uniform when ``None``).  Metrics that need a saddle point (gap,
    distances) are recorded only when ``options.reference`` is supplied.
    """
    opts = options or RunOptions()
    m = problem.partition.m

    accelerated = schedule.regime == "part2"
    # the current state as scalars; part2 advances them and a record reads
    # the step vector off part2_tau
    theta, sigma, taut, t = _start_state(problem, schedule)
    used = None         # (taut, t) of the state the last iteration used; None = schedule
    tau0 = schedule.tau.tolist()
    scale = None        # 1 + 1/taut once the accelerated steps follow from taut
    if accelerated:
        mu_p, mu_s = schedule.mu_p.tolist(), schedule.mu.tolist()

    def describe(k, wall_s):
        return _rapd_record(problem, schedule, opts.reference, k, wall_s, i_k,
                            (theta, sigma, taut, t), used, x)

    monitor = _Monitor(problem, f"rapd-{schedule.regime}", K, x0, y0, describe,
                       opts, seed=seed)
    x, y = monitor.start
    slices = problem.partition.slices()
    grad_x_at = problem.grad_x_cached
    block_prox = problem.block_prox
    grad_y_at = problem.grad_y_cached
    incr = problem.grad_y_incremental
    dual_step = problem.dual_geometry.stepper(problem.h)
    # the primal product w = K x, moved forward block by block
    w = problem.primal_product(x)
    g_cur = g_prev = grad_y_at(w, x, y)
    neg_s, scratch = np.empty_like(g_cur), np.empty_like(g_cur)
    resync_every = CACHE_RESYNC_SWEEPS * m

    for done, i_k in enumerate(_block_draws(seed, m, K, schedule.p), start=1):
        # -s^k = m theta g_{k-1} - (1 + m theta) g_k, the bits of -(s^k) up to
        # a zero's sign: IEEE subtraction is antisymmetric
        np.multiply(g_prev, m * theta, out=neg_s)
        np.subtract(neg_s, np.multiply(g_cur, 1.0 + m * theta, out=scratch), out=neg_s)
        y = dual_step(sigma, neg_s, y)
        sl = slices[i_k]
        old = x[sl].copy()
        tau_i = tau0[i_k] if scale is None else 1.0 / (mu_p[i_k] * scale - mu_s[i_k])
        new = block_prox(i_k, tau_i, grad_x_at(w, x, y, sl), old)
        x[sl] = new
        incr(w, i_k, new - old)
        g_prev, g_cur = g_cur, grad_y_at(w, x, y)

        if accelerated:
            used = (taut, t)
            theta, sigma, taut, t = part2_scalars(sigma, taut, t)
            scale = 1.0 + 1.0 / taut

        if done % resync_every == 0:
            # a fresh product and its read-off, the bits of the stateless
            # grad_y: the check measures how far the moved product drifted
            w = problem.primal_product(x)
            g_cur = _resynced(monitor.trace, g_cur, grad_y_at(w, x, y), done)
            monitor.resync(x)
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


def _lockstep(problem, schedule: StepSchedule, K: int, seeds, x0, y0, record_at,
              ref) -> list:
    """The traces of ``run(problem, schedule, K, s, x0=x0, y0=y0, options=
    RunOptions(record_at=record_at, reference=ref))`` for ``s`` in ``seeds``,
    the seeds advancing in lockstep on ``(S, n)`` and ``(S, d)`` arrays.  Only
    the three read-offs of ``w = K x`` are batched, for a
    :class:`QuadraticGameProblem` on an even partition (the suites' instances)."""
    theta, sigma, taut, t = _start_state(problem, schedule)
    part, d, S = problem.partition, problem.dual_dim, len(seeds)
    m, b = part.m, part.sizes[0]
    # cols[i] = K[:, sl_i] for K = [C; P]: a stacked matmul makes the BLAS call
    # (gemv) of run's read-off on each seed's matrix, so the bits are run's
    cols = np.vstack([problem.C, problem.P]).reshape(-1, m, b).transpose(1, 0, 2).copy()
    p_blk, curved = problem.p.reshape(m, b), problem.Q.any()

    def dual_readoff(W, Y):
        g = W[:, :d] - (problem.Q @ Y[:, :, None])[:, :, 0] if curved else W[:, :d]
        return g - problem.q

    x, y = problem.initial_point(x0, y0)
    X, Y, W = (np.tile(v, (S, 1)) for v in (x, y, problem.primal_product(x)))
    X_blk, W_blk = X.reshape(S, m, b), W[:, d:].reshape(S, m, b)   # views
    X_sum, Y_sum, rows = np.zeros_like(X), np.zeros_like(Y), np.arange(S)
    # run's lazy ergodic sums: block i of seed s is summed up to iteration last[s, i]
    Xs_blk, last = X_sum.reshape(S, m, b), np.zeros((S, m), int)
    g_cur = g_prev = dual_readoff(W, Y)
    dual_step = problem.dual_geometry.stepper(problem.h)
    draws = np.stack([sample_indices(s, m, K, schedule.p) for s in seeds], axis=1)
    traces = [_new_trace(problem, f"rapd-{schedule.regime}", s) for s in seeds]
    accelerated, used, tic = schedule.regime == "part2", None, time.perf_counter()
    for done, i in enumerate(draws, start=1):
        neg_s = m * theta * g_prev - (1.0 + m * theta) * g_cur
        Y[:] = [dual_step(sigma, ns, y_s) for ns, y_s in zip(neg_s, Y)]
        K_i, old = cols[i], X_blk[rows, i]
        grad = W_blk[rows, i] + p_blk[i] + (K_i[:, :d].swapaxes(1, 2) @ Y[:, :, None])[:, :, 0]
        tau = (part2_tau(schedule, taut) if accelerated else schedule.tau)[i][:, None]
        new = problem.f_whole.prox_euclidean(tau, old - tau * grad)
        X_blk[rows, i] = new
        Xs_blk[rows, i] += (done - 1 - last[rows, i])[:, None] * old
        last[rows, i] = done - 1
        W += (K_i @ (new - old)[:, :, None])[:, :, 0]
        g_prev, g_cur = g_cur, dual_readoff(W, Y)
        if accelerated:
            used = (taut, t)
            theta, sigma, taut, t = part2_scalars(sigma, taut, t)
        if done % (CACHE_RESYNC_SWEEPS * m) == 0:
            W[:] = [problem.primal_product(x_s) for x_s in X]
            g_cur = np.array([_resynced(tr, c, g, done)
                              for tr, c, g in zip(traces, g_cur, dual_readoff(W, Y))])
        Y_sum += Y
        x_sq, y_sq = np.einsum("ij,ij->i", X, X), np.einsum("ij,ij->i", Y, Y)
        if not (x_sq.max() <= DIVERGENCE_LIMIT ** 2 and y_sq.max() <= DIVERGENCE_LIMIT ** 2):
            s = int(np.argmax(np.maximum(x_sq, y_sq)))   # the first NaN, if any
            raise _divergence(x_sq[s], y_sq[s], done, traces[s].method, seeds[s])
        if done in record_at or done == K:
            if ref is not None:
                X_sum += np.repeat(done - last, b, axis=1) * X
                last[:] = done
            for s, tr in enumerate(traces):
                rec = _rapd_record(problem, schedule, ref, done, time.perf_counter() - tic,
                                   int(i[s]), (theta, sigma, taut, t), used, X[s])
                if ref is not None:
                    _measure(rec, problem, ref, X[s], Y[s], X_sum[s] / done, Y_sum[s] / done)
                tr.records.append(rec)
    X_sum += np.repeat(K - last, b, axis=1) * X
    return [_close_trace(tr, X[s], Y[s], X_sum[s], Y_sum[s], K, tic)
            for s, tr in enumerate(traces)]
