"""Deterministic reference methods.

``pdhg_run`` is the classical extrapolated primal-dual iteration (the
whole primal updated every iteration, momentum weight 1); on bilinear
couplings it coincides iterate-for-iterate with the randomized solver at
m = 1, which the tests exploit as an oracle.

``mirror_prox_run`` is the composite extra-gradient scheme: a proximal
half-step at the current point, then a proximal correction step from the
original point using the half-point's gradients, both with step 1/L; the
ergodic average of the half-points is the rate-carrying output.

Both make full passes with one call per oracle: the primal product
``w = K x`` once per point, both gradients read off it, and one
:meth:`SaddleProblem.primal_prox`.
"""

from __future__ import annotations

import numpy as np

# bregman_prox stays importable from here: the benchmark's tracer wraps it
from .bregman import bregman_prox  # noqa: F401
from .exceptions import ParameterError
from .problem import SaddleProblem, estimate_operator_lipschitz
from .solver import RunOptions, RunTrace, TraceRecord, _Monitor


def _constant_steps(tau: float, sigma: float):
    """Trace-record maker for a method with fixed steps and no sampling."""
    return lambda k, wall_s: TraceRecord(k=k, wall_s=wall_s, i_k=-1, sigma=sigma,
                                         theta=1.0, tau_min=tau, tau_max=tau, t=1.0)


def pdhg_run(problem: SaddleProblem, tau: float, sigma: float, K: int,
             x0: np.ndarray | None = None, y0: np.ndarray | None = None,
             record_at=None, reference=None, iterate_hook=None) -> RunTrace:
    """Extrapolated primal-dual with constant steps.

    Dual ascent at the extrapolated dual gradient ``2 g_k - g_{k-1}``,
    then a full primal prox-descent at ``grad_x phi(x^k, y^{k+1})``; both
    gradients are read off one primal product at ``x^k``.
    Initialization uses ``g_{-1} = g_0``.
    """
    if not (tau > 0 and sigma > 0):
        raise ParameterError(f"steps must be positive, got tau={tau}, sigma={sigma}")
    monitor = _Monitor(problem, "pdhg", K, x0, y0, _constant_steps(tau, sigma),
                       RunOptions(record_at=record_at, reference=reference,
                                  iterate_hook=iterate_hook))
    x, y = monitor.start
    dual_step = problem.dual_geometry.stepper(problem.h)
    g_prev = None
    for _ in range(K):
        w = problem.primal_product(x)
        g = problem.grad_y_cached(w, x, y)
        if g_prev is None:
            g_prev = g
        s = 2.0 * g - g_prev
        y = dual_step(sigma, -s, y)
        x = problem.primal_prox(tau, problem.grad_x_cached(w, x, y), x)
        g_prev = g
        monitor.step(x, y)
    return monitor.finish(x, y)


def mirror_prox_run(problem: SaddleProblem, L: float | None, K: int,
                    x0: np.ndarray | None = None, y0: np.ndarray | None = None,
                    record_at=None, reference=None) -> RunTrace:
    """Composite mirror-prox with both prox steps at 1/L.

    The gap metric is evaluated at the ergodic average of the half
    points, which is the sequence the O(L/k) rate speaks about.
    """
    if L is None:
        L = estimate_operator_lipschitz(problem)
    if not 0 < L < np.inf:   # every prox step is 1/L, which must be > 0
        raise ParameterError(f"need finite L > 0, got {L}")
    eta = 1.0 / float(L)
    monitor = _Monitor(problem, "mirror_prox", K, x0, y0, _constant_steps(eta, eta),
                       RunOptions(record_at=record_at, reference=reference))
    x, y = monitor.start
    dual_step = problem.dual_geometry.stepper(problem.h)
    for _ in range(K):
        # half step at the current point
        w = problem.primal_product(x)
        xh = problem.primal_prox(eta, problem.grad_x_cached(w, x, y), x)
        yh = dual_step(eta, -problem.grad_y_cached(w, x, y), y)
        # correction step from the current point, gradients at the half point
        wh = problem.primal_product(xh)
        x = problem.primal_prox(eta, problem.grad_x_cached(wh, xh, yh), x)
        y = dual_step(eta, -problem.grad_y_cached(wh, xh, yh), y)
        monitor.step(x, y, xh, yh)
    return monitor.finish(x, y)
