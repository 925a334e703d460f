"""High-accuracy reference saddle points and the natural-residual metric.

The certification metric is the unit-step prox fixed-point residual

    ||x - prox_f(x - grad_x phi(x, y))|| + ||y - prox_h(y + grad_y phi(x, y))||

which is computable for nonsmooth f, h and vanishes exactly at saddle
points of the supported problem classes.

Every point costs one primal product ``w = K x``, off which both
gradients are read, and one prox per side: the primal side's is
:meth:`SaddleProblem.primal_prox`.  The extragradient oracle computes the
residual only where its half step bounds it below the tolerance.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .bregman import _norm
from .exceptions import ConfigError, ParameterError
from .problem import SaddleProblem, estimate_operator_lipschitz


@dataclass
class SaddleCertificate:
    x_star: np.ndarray
    y_star: np.ndarray
    kkt_residual: float
    method: str                 # "linear-solve" | "extragradient"
    tol: float
    certified: bool = True
    iterations: int = 0


def kkt_residual(problem: SaddleProblem, x: np.ndarray, y: np.ndarray) -> float:
    """Unit-step natural residual at ``(x, y)`` (Euclidean proxes)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return _residual(problem, x, y, *_gradients(problem, x, y))


def _certify_closed_form(problem: SaddleProblem, x_star, y_star) -> SaddleCertificate:
    """A saddle point known in closed form, certified at its own residual."""
    res = kkt_residual(problem, x_star, y_star)
    return SaddleCertificate(x_star=x_star, y_star=y_star, kkt_residual=res,
                             method="linear-solve", tol=max(res, 1e-12))


def _gradients(problem: SaddleProblem, x: np.ndarray, y: np.ndarray):
    """``(grad_x, grad_y)`` at ``(x, y)``, read off one primal product."""
    w = problem.primal_product(x)
    return problem.grad_x_cached(w, x, y, slice(None)), problem.grad_y_cached(w, x, y)


def _residual(problem, x, y, gx, gy) -> float:
    """The natural residual at ``(x, y)`` from the gradients there."""
    rx = x - problem.primal_prox(1.0, gx, x)
    ry = y - problem.h.prox_euclidean(1.0, y + gy)
    return _norm(rx) + _norm(ry)


def solve_quadratic_game_exact(P, Q, C, p, q) -> SaddleCertificate:
    """Saddle point of the unconstrained quadratic game by a dense solve.

    Stationarity is the linear system ``[P, C'; C, -Q] (x; y) = (-p; q)``;
    valid for f = h = 0 and a nonsingular system.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    n = C.shape[1]
    top = np.hstack([P, C.T])
    bot = np.hstack([C, -Q])
    M = np.vstack([top, bot])
    rhs = np.concatenate([-p, q])
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise ParameterError(
            "stationarity system is singular; use solve_high_accuracy instead"
        ) from exc
    x, y = sol[:n], sol[n:]
    res = float(np.linalg.norm(P @ x + p + C.T @ y)
                + np.linalg.norm(C @ x - Q @ y - q))
    return SaddleCertificate(x_star=x, y_star=y, kkt_residual=res,
                             method="linear-solve", tol=max(res, 1e-12))


#: the step is valid when eta * ||F(z) - F(zhat)|| <= _NU * ||z - zhat||,
#: the contraction premise of the extragradient step at the local
#: Lipschitz constant of the smooth map F
_NU = 0.9
#: consecutive validated steps before the step doubles
_GROW_AFTER = 20
#: the smallest certifiable tolerance relative to the iterate's scale:
#: float64 resolves a residual at ``(x, y)`` only down to about
#: ``eps * max(|x|, |y|)``, and this keeps a 45x margin above it
_ATTAINABLE = 1e-14


def solve_high_accuracy(problem: SaddleProblem, tol: float = 1e-10,
                        max_iters: int = 2_000_000, L: float | None = None,
                        x0: np.ndarray | None = None,
                        y0: np.ndarray | None = None) -> SaddleCertificate:
    """Deterministic extragradient with a safeguarded step.

    Steps start at ``1/L`` when a constant is known (or supplied) and at
    1e-2 otherwise.  A contraction test guards every step: the half step
    is rejected and the step halved (floor 1e-12) whenever
    ``eta * ||F(z) - F(zhat)|| > 0.9 * ||z - zhat||``, i.e. whenever the
    step exceeds the local inverse Lipschitz constant of the smooth map.
    After 20 consecutive validated steps the step doubles, past its start
    too, since the test validates each step however it was reached; a
    ceiling of 1e12 keeps it finite where the map is constant and no step
    is ever rejected.

    The half step bounds the residual it starts from, so no iteration
    computes one: for a convex ``g``, ``||z - prox_tg(z - t F(z))||`` grows
    with ``t`` and the same norm over ``t`` shrinks (Beck, *First-Order
    Methods in Optimization*, 2017, Thm 10.9), on each side, so the
    unit-step residual at ``z`` is at most
    ``max(1, 1/eta) * (||xhat - x|| + ||yhat - y||)``.  Once that bound is
    at most ``tol`` the exact residual is computed, from the gradients
    already at hand, and the loop stops when it is at most ``tol`` too.
    The last iterate is returned with its exact residual: validated
    extragradient steps are Fejer-monotone, so it is the iterate nearest
    the saddle points.  It is flagged ``certified=False`` when
    ``max_iters`` ran out first, or when float64 cannot resolve ``tol``
    at the point's scale (``tol < 1e-14 * max(|x|, |y|)``): an iterate
    that escapes to infinity, where no saddle point exists, rounds
    ``x - prox(x - g)`` to 0, and that zero is not a certificate.
    """
    if tol < _ATTAINABLE:
        raise ParameterError(f"tolerance {tol} below attainable accuracy")
    x, y = problem.initial_point(x0, y0)
    # start inside the domains
    x = problem.f_whole.project_domain(x)
    y = problem.h.project_domain(y)

    if L is None:
        try:
            L = estimate_operator_lipschitz(problem)
        except ParameterError:
            L = None
    eta = 1.0 / L if (L is not None and L > 0) else 1e-2
    floor, ceiling = 1e-12, 1e12

    # the gradients at the current point serve its half step and its residual
    gx, gy = _gradients(problem, x, y)
    streak = 0
    it = 0
    while it < max_iters:
        xh = problem.primal_prox(eta, gx, x)
        yh = problem.h.prox_euclidean(eta, y + eta * gy)
        dx, dy = xh - x, yh - y
        dx2, dy2 = float(dx.dot(dx)), float(dy.dot(dy))
        if max(1.0, 1.0 / eta) * (math.sqrt(dx2) + math.sqrt(dy2)) <= tol:
            res = _residual(problem, x, y, gx, gy)
            if res <= tol:
                break
        it += 1
        gxh, gyh = _gradients(problem, xh, yh)
        ex, ey = gxh - gx, gyh - gy
        move = math.sqrt(dx2 + dy2)
        drift = math.sqrt(float(ex.dot(ex)) + float(ey.dot(ey)))
        if eta * drift > _NU * move and eta > floor and move > 0:
            eta = max(eta * 0.5, floor)
            streak = 0
            continue
        x = problem.primal_prox(eta, gxh, x)
        y = problem.h.prox_euclidean(eta, y + eta * gyh)
        gx, gy = _gradients(problem, x, y)
        streak += 1
        if streak >= _GROW_AFTER and eta < ceiling:
            eta = min(eta * 2.0, ceiling)
            streak = 0
    else:
        res = _residual(problem, x, y, gx, gy)

    scale = max(float(np.max(np.abs(x), initial=0.0)), float(np.max(np.abs(y), initial=0.0)))
    return SaddleCertificate(x_star=x, y_star=y, kkt_residual=res,
                             method="extragradient", tol=tol,
                             certified=bool(res <= tol) and _ATTAINABLE * scale <= tol,
                             iterations=it)


def save_certificate(path, cert: SaddleCertificate) -> None:
    """Write ``cert`` at ``path`` as given; ``np.savez`` would append ``.npz``."""
    with open(path, "wb") as fh:
        np.savez(fh, x_star=cert.x_star, y_star=cert.y_star,
                 kkt_residual=cert.kkt_residual, method=cert.method,
                 tol=cert.tol, certified=cert.certified, iterations=cert.iterations)


def load_certificate(path) -> SaddleCertificate:
    """Read a certificate written by :func:`save_certificate`; a missing
    or malformed file raises ``ConfigError`` naming the path."""
    try:
        with open(path, "rb") as fh:
            data = np.load(fh, allow_pickle=False)
            return SaddleCertificate(x_star=data["x_star"], y_star=data["y_star"],
                                     kkt_residual=float(data["kkt_residual"]),
                                     method=str(data["method"]), tol=float(data["tol"]),
                                     certified=bool(data["certified"]),
                                     iterations=int(data["iterations"]))
    except (OSError, EOFError, ValueError, KeyError, IndexError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"cannot read certificate {path}: {exc}") from exc
