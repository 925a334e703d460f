"""High-accuracy reference saddle points and the natural-residual metric.

The certification metric is the unit-step prox fixed-point residual

    ||x - prox_f(x - grad_x phi(x, y))|| + ||y - prox_h(y + grad_y phi(x, y))||

which is computable for nonsmooth f, h and vanishes exactly at saddle
points of the supported problem classes.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, ParameterError
from .problem import SaddleProblem


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
    rx = x - _prox_f_blocks(problem.f, problem.partition.slices(), x,
                            problem.grad_x(x, y), 1.0)
    ry = y - problem.h.prox_euclidean(1.0, y + problem.grad_y(x, y))
    return float(np.linalg.norm(rx) + np.linalg.norm(ry))


def _prox_f_blocks(f: list, slices: list, x: np.ndarray, grad: np.ndarray,
                   step: float) -> np.ndarray:
    """Blockwise Euclidean ``prox_{step f_i}(x_i - step grad_i)``, as a new array."""
    out = np.empty_like(x)
    for fi, sl in zip(f, slices):
        out[sl] = fi.prox_euclidean(step, x[sl] - step * grad[sl])
    return out


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
#: consecutive validated steps before the step is allowed to grow back
_GROW_AFTER = 50


def solve_high_accuracy(problem: SaddleProblem, tol: float = 1e-10,
                        max_iters: int = 2_000_000, L: float | None = None,
                        x0: np.ndarray | None = None,
                        y0: np.ndarray | None = None) -> SaddleCertificate:
    """Deterministic extragradient with a safeguarded step.

    Steps start at ``1/L`` when a constant is known (or supplied) and at
    1e-2 otherwise.  A trial halving test guards each iteration: the half
    step is rejected and the step halved (floor 1e-12) whenever
    ``eta * ||F(z) - F(zhat)|| > 0.9 * ||z - zhat||``, i.e. whenever the
    step exceeds the local inverse Lipschitz constant of the smooth map;
    after 50 consecutive validated steps the step may double back toward
    its initial value.  The natural residual certifies the answer and the
    best point seen is returned, flagged ``certified=False`` when
    ``max_iters`` ran out first.
    """
    if tol < 1e-14:
        raise ParameterError(f"tolerance {tol} below attainable accuracy")
    slices = problem.partition.slices()
    x, y = problem.initial_point(x0, y0)
    # start inside the domains
    for i, sl in enumerate(slices):
        x[sl] = problem.f[i].project_domain(x[sl])
    y = problem.h.project_domain(y)

    if L is None:
        try:
            from .baselines import estimate_operator_lipschitz
            L = estimate_operator_lipschitz(problem)
        except ParameterError:
            L = None
    eta0 = 1.0 / L if (L is not None and L > 0) else 1e-2
    eta = eta0
    floor = 1e-12

    res = kkt_residual(problem, x, y)
    best = (res, x.copy(), y.copy())
    streak = 0
    it = 0
    while it < max_iters and best[0] > tol:
        it += 1
        gx, gy = problem.grad_x(x, y), problem.grad_y(x, y)
        xh = _prox_f_blocks(problem.f, slices, x, gx, eta)
        yh = problem.h.prox_euclidean(eta, y + eta * gy)
        gxh, gyh = problem.grad_x(xh, yh), problem.grad_y(xh, yh)
        move = np.sqrt(np.sum((xh - x) ** 2) + np.sum((yh - y) ** 2))
        drift = np.sqrt(np.sum((gxh - gx) ** 2) + np.sum((gyh - gy) ** 2))
        if eta * drift > _NU * move and eta > floor and move > 0:
            eta = max(eta * 0.5, floor)
            streak = 0
            continue
        x = _prox_f_blocks(problem.f, slices, x, gxh, eta)
        y = problem.h.prox_euclidean(eta, y + eta * gyh)
        res = kkt_residual(problem, x, y)
        if res < best[0]:
            best = (res, x.copy(), y.copy())
        streak += 1
        if streak >= _GROW_AFTER and eta < eta0:
            eta = min(eta * 2.0, eta0)
            streak = 0

    res, x, y = best
    return SaddleCertificate(x_star=x, y_star=y, kkt_residual=res,
                             method="extragradient", tol=tol,
                             certified=bool(res <= tol), iterations=it)


def save_certificate(path, cert: SaddleCertificate) -> None:
    np.savez(path, x_star=cert.x_star, y_star=cert.y_star,
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
