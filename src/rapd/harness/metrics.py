"""Error metrics and rate bounds.

The Lagrangian gap ``L(xbar, y*) - L(x*, ybar)`` is nonnegative for any
pair of feasible points and vanishes exactly at saddle points; the two
``Delta`` functionals are the initial-condition constants in the O(m/K)
and O(m/K^2) bounds, evaluated with the schedule actually used.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ..blockcore import weighted_norm_sq_raw
from ..exceptions import ParameterError, RegimeError
from ..problem import SaddleProblem
from ..stepsize import StepSchedule

log = logging.getLogger(__name__)

#: indicator-domain violations larger than this are projected out (and
#: logged); ergodic averages of feasible points can only drift below it
FEAS_DRIFT_TOL = 1e-9


def _feasible(problem: SaddleProblem, x: np.ndarray, y: np.ndarray):
    """Snap floating-point domain drift back before evaluating values."""
    return (_snap(problem.f_whole, np.asarray(x, dtype=float), "primal"),
            _snap(problem.h, np.asarray(y, dtype=float), "dual"))


def _snap(f, v: np.ndarray, side: str) -> np.ndarray:
    """``v`` projected onto the domain of ``f`` if it lies outside it,
    logged when the violation exceeds :data:`FEAS_DRIFT_TOL`."""
    gap = f.feasibility_gap(v)
    if gap > 0.0:
        if gap > FEAS_DRIFT_TOL:
            log.warning("%s point violated its domain by %.3e; projecting", side, gap)
        v = f.project_domain(v)
    return v


def lagrangian_gap(problem: SaddleProblem, xbar: np.ndarray, ybar: np.ndarray,
                   certificate) -> float:
    """``L(xbar, y*) - L(x*, ybar)`` against a reference saddle point."""
    xbar, ybar = _feasible(problem, xbar, ybar)
    xs = np.asarray(certificate.x_star, dtype=float)
    ys = np.asarray(certificate.y_star, dtype=float)
    return problem.lagrangian(xbar, ys) - problem.lagrangian(xs, ybar)


def rate_bound_delta1(problem: SaddleProblem, schedule: StepSchedule,
                      x0: np.ndarray, y0: np.ndarray, certificate) -> float:
    """Initial constant of the ergodic O(m/K) bound:

        0.5 ||x* - x0||^2_{T0}
        + (1/(m sigma0) + (1 - 1/m) L_yy) D_Y(y*, y0)
        + (1 - 1/m) (L(x0, y*) - L(x*, y*))
    """
    if schedule.regime != "part1":
        raise RegimeError("delta1 is defined for the constant-step regime")
    m = problem.partition.m
    xs = np.asarray(certificate.x_star, dtype=float)
    ys = np.asarray(certificate.y_star, dtype=float)
    w = 1.0 / schedule.tau
    term_x = 0.5 * weighted_norm_sq_raw(xs - x0, problem.partition, w)
    term_y = (1.0 / (m * schedule.sigma) + (1.0 - 1.0 / m) * problem.constants.L_yy) \
        * problem.dual_geometry.dist(ys, y0)
    term_l = (1.0 - 1.0 / m) * (problem.lagrangian(x0, ys) - problem.lagrangian(xs, ys))
    return float(term_x + term_y + term_l)


def rate_bound_delta2(problem: SaddleProblem, schedule: StepSchedule,
                      x0: np.ndarray, y0: np.ndarray, certificate) -> float:
    """Initial constant of the accelerated bound:

        0.5 ||x* - x0||^2_{T0 + (1 - 1/m) M}
        + (1/(m sigma0)) D_Y(y*, y0)
        + (1 - 1/m) (L(x0, y*) - L(x*, y*))
    """
    if schedule.regime != "part2":
        raise RegimeError("delta2 is defined for the accelerated regime")
    m = problem.partition.m
    xs = np.asarray(certificate.x_star, dtype=float)
    ys = np.asarray(certificate.y_star, dtype=float)
    w = 1.0 / schedule.tau + (1.0 - 1.0 / m) * problem.constants.mu
    term_x = 0.5 * weighted_norm_sq_raw(xs - x0, problem.partition, w)
    term_y = problem.dual_geometry.dist(ys, y0) / (m * schedule.sigma)
    term_l = (1.0 - 1.0 / m) * (problem.lagrangian(x0, ys) - problem.lagrangian(xs, ys))
    return float(term_x + term_y + term_l)


def fit_loglog(ks, values):
    """Least-squares line through ``(log k, log v)``; returns
    ``(slope, intercept, r2)``."""
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = (ks > 0) & (values > 0) & np.isfinite(values)
    if keep.sum() < 2:
        raise ParameterError("need at least two positive points for a log-log fit")
    lx, ly = np.log(ks[keep]), np.log(values[keep])
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2


def slope_fit(traces, metric: str, k_range) -> tuple:
    """Log-log slope of the seed-averaged metric over ``k_range``.

    Requires at least one trace and 10 recorded K points spanning two
    decades inside the range; the ensemble is averaged pointwise across
    traces first.
    """
    lo, hi = float(k_range[0]), float(k_range[1])
    ks = None
    rows = []
    for tr in traces:
        tk = tr.column("k")
        tv = tr.column(metric)
        keep = (tk >= lo) & (tk <= hi)
        if ks is None:
            ks = tk[keep]
        elif not np.array_equal(ks, tk[keep]):
            raise ParameterError("traces record different K grids")
        rows.append(tv[keep])
    if ks is None:
        raise ParameterError("slope_fit needs at least one trace, got none")
    if ks.size < 10:
        raise ParameterError(f"need >= 10 K points in range, got {ks.size}")
    if ks.max() / max(ks.min(), 1.0) < 99.0:
        raise ParameterError("K points must span at least two decades")
    mean = np.mean(rows, axis=0)
    slope, _, r2 = fit_loglog(ks, mean)
    return slope, r2


@dataclass
class RateReport:
    """Outcome of one benchmark suite."""

    suite: str
    method: str
    seeds: int
    checkpoints: list
    mean_metric: list                  # seed-mean metric per checkpoint
    bound: list                        # theoretical curve per checkpoint
    slack_factor: float                # statistical cushion 1 + 3/sqrt(S)
    slope: float | None = None
    slope_r2: float | None = None
    slope_threshold: float | None = None
    extras: dict = field(default_factory=dict)

    @property
    def bound_ok(self) -> bool:
        return all(mv <= b * self.slack_factor + 1e-15
                   for mv, b in zip(self.mean_metric, self.bound))

    @property
    def slope_ok(self) -> bool:
        if self.slope is None or self.slope_threshold is None:
            return True
        return self.slope <= self.slope_threshold

    @property
    def passed(self) -> bool:
        checks = [self.bound_ok, self.slope_ok]
        checks += [bool(v) for k, v in self.extras.items() if k.endswith("_ok")]
        return all(checks)

    def lines(self):
        out = [f"suite={self.suite} method={self.method} seeds={self.seeds}"]
        for K, mv, b in zip(self.checkpoints, self.mean_metric, self.bound):
            mark = "ok" if mv <= b * self.slack_factor + 1e-15 else "VIOLATED"
            out.append(f"  K={K:>6d}  mean={mv:.6e}  bound={b:.6e} "
                       f"(x{self.slack_factor:.3f})  {mark}")
        if self.slope is not None:
            mark = "ok" if self.slope_ok else "VIOLATED"
            out.append(f"  slope={self.slope:.4f} (r2={self.slope_r2:.4f}, "
                       f"threshold {self.slope_threshold})  {mark}")
        for k, v in self.extras.items():
            out.append(f"  {k}={v}")
        out.append(f"  result: {'PASS' if self.passed else 'FAIL'}")
        return out

    def __str__(self):
        return "\n".join(self.lines())
