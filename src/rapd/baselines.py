"""Deterministic reference methods.

``pdhg_run`` is the classical extrapolated primal-dual iteration (the
whole primal updated every iteration, momentum weight 1); on bilinear
couplings it coincides iterate-for-iterate with the randomized solver at
m = 1, which the tests exploit as an oracle.

``mirror_prox_run`` is the composite extra-gradient scheme: a proximal
half-step at the current point, then a proximal correction step from the
original point using the half-point's gradients, both with step 1/L; the
ergodic average of the half-points is the rate-carrying output.
"""

from __future__ import annotations

import numpy as np

from .bregman import bregman_prox
from .exceptions import ParameterError
from .problem import SaddleProblem, power_norm
from .solver import RunOptions, RunTrace, TraceRecord, _Monitor


def _full_primal_prox(problem, x, grad, tau):
    out = np.empty_like(x)
    for i, sl in enumerate(problem.partition.slices()):
        out[sl] = bregman_prox(problem.primal_geometry[i], problem.f[i],
                               tau, grad[sl], x[sl])
    return out


def _constant_steps(tau: float, sigma: float):
    """Trace-record maker for a method with fixed steps and no sampling."""
    return lambda k, wall_s: TraceRecord(k=k, wall_s=wall_s, i_k=-1, sigma=sigma,
                                         theta=1.0, tau_min=tau, tau_max=tau, t=1.0)


def pdhg_run(problem: SaddleProblem, tau: float, sigma: float, K: int,
             x0: np.ndarray | None = None, y0: np.ndarray | None = None,
             record_at=None, reference=None, iterate_hook=None) -> RunTrace:
    """Extrapolated primal-dual with constant steps.

    Dual ascent at the extrapolated dual gradient ``2 g_k - g_{k-1}``,
    then a full primal prox-descent at ``grad_x phi(x^k, y^{k+1})``.
    Initialization uses ``g_{-1} = g_0``.
    """
    if not (tau > 0 and sigma > 0):
        raise ParameterError(f"steps must be positive, got tau={tau}, sigma={sigma}")
    monitor = _Monitor(problem, "pdhg", K, x0, y0, _constant_steps(tau, sigma),
                       RunOptions(record_at=record_at, reference=reference,
                                  iterate_hook=iterate_hook))
    x, y = monitor.start
    g_prev = problem.grad_y(x, y)
    for _ in range(K):
        g = problem.grad_y(x, y)
        s = 2.0 * g - g_prev
        y = bregman_prox(problem.dual_geometry, problem.h, sigma, -s, y)
        x = _full_primal_prox(problem, x, problem.grad_x(x, y), tau)
        g_prev = g
        monitor.step(x, y)
    return monitor.finish(x, y)


def estimate_operator_lipschitz(problem: SaddleProblem) -> float:
    """Lipschitz constant of the first-order map for (bi)linear-quadratic
    couplings, via the spectral norm of the linearization."""
    if hasattr(problem, "A"):
        return power_norm(problem.A)
    if hasattr(problem, "P"):
        top = np.hstack([problem.P, problem.C.T])
        bot = np.hstack([-problem.C, problem.Q])
        return power_norm(np.vstack([top, bot]))
    raise ParameterError("no built-in Lipschitz estimate for this coupling; "
                         "pass L explicitly")


def mirror_prox_run(problem: SaddleProblem, L: float | None, K: int,
                    x0: np.ndarray | None = None, y0: np.ndarray | None = None,
                    record_at=None, reference=None) -> RunTrace:
    """Composite mirror-prox with both prox steps at 1/L.

    The gap metric is evaluated at the ergodic average of the half
    points, which is the sequence the O(L/k) rate speaks about.
    """
    if L is None:
        L = estimate_operator_lipschitz(problem)
    if not L > 0:
        raise ParameterError(f"need L > 0, got {L}")
    eta = 1.0 / float(L)
    monitor = _Monitor(problem, "mirror_prox", K, x0, y0, _constant_steps(eta, eta),
                       RunOptions(record_at=record_at, reference=reference))
    x, y = monitor.start
    for _ in range(K):
        # half step at the current point
        xh = _full_primal_prox(problem, x, problem.grad_x(x, y), eta)
        yh = bregman_prox(problem.dual_geometry, problem.h, eta, -problem.grad_y(x, y), y)
        # correction step from the current point, gradients at the half point
        x = _full_primal_prox(problem, x, problem.grad_x(xh, yh), eta)
        y = bregman_prox(problem.dual_geometry, problem.h, eta, -problem.grad_y(xh, yh), y)
        monitor.step(x, y, xh, yh)
    return monitor.finish(x, y)
