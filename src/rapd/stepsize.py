"""Step-size schedules for the two convergence regimes.

Regime ``part1`` keeps all parameters constant and yields the O(m/K)
ergodic-gap bound.  Regime ``part2`` (all moduli positive, coupling
linear in the dual) runs the accelerated recursion

    tau_i^k   = (mu_i p_i (1 + 1/taut^k) - mu_i)^(-1)
    theta^(k+1) = 1/sqrt(1 + taut^k)
    sigma^(k+1) = sigma^k / theta^(k+1)
    taut^(k+1)  = theta^(k+1) * taut^k

with ``t^(k+1) theta^(k+1) = t^k`` and gives the O(m/K^2) distance decay.
``p_i`` is the block-sampling probability (1/m when uniform).

The :func:`check_assumption2` diagnostic replays a schedule prefix
against the step-size condition; for non-uniform sampling the per-block
inequalities use the sampling-weighted constants ``m p_i alpha`` and
``(1 - p_i)``, which reduce to the uniform condition at ``p_i = 1/m``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ParameterError, RegimeError
from .problem import LipschitzConstants


def default_alpha(constants: LipschitzConstants) -> float:
    """Default coupling weight: the largest per-block dual constant."""
    return float(constants.L_yx.max())


@dataclass(frozen=True)
class StepSchedule:
    """Parameter state of one iteration (immutable; constant steps
    advance to themselves, the accelerated recursion to a new state)."""

    regime: str                 # "part1" | "part2"
    tau: np.ndarray             # per-block primal steps (values, not reciprocals)
    sigma: float                # dual step
    theta: float                # momentum weight
    t: float                    # acceleration weight, t^0 = 1
    alpha: float                # certificate alpha^k for the condition checker
    beta: float                 # certificate beta^k
    c_tau: float
    c_sigma: float
    tau_tilde: float | None = None   # part2 only
    mu: np.ndarray | None = None     # part2 only (moduli drive the recursion)
    p: np.ndarray | None = None      # sampling probabilities; None = uniform
    theta_clamped: bool = False      # True if the momentum floor ever bound
    # mu_i p_i, which the accelerated recursion scales every step
    mu_p: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.mu is not None:
            object.__setattr__(self, "mu_p", self.mu * self.probabilities())

    @property
    def m(self) -> int:
        return self.tau.size

    def probabilities(self) -> np.ndarray:
        if self.p is None:
            return np.full(self.m, 1.0 / self.m)
        return self.p

    def advance(self) -> "StepSchedule":
        """State for iteration k+1."""
        if self.regime == "part1":
            return self
        return part2_advance(self)


def _validate_probabilities(p, m) -> np.ndarray | None:
    if p is None:
        return None
    p = np.asarray(p, dtype=float)
    if p.shape != (m,) or np.any(p <= 0) or abs(p.sum() - 1.0) > 1e-12:
        raise ParameterError(f"invalid probability vector for m={m}: {p}")
    return p


def part1_schedule(constants: LipschitzConstants, m: int, alpha: float,
                   c_tau: float = 0.99, c_sigma: float = 0.99) -> StepSchedule:
    """Constant steps:

        tau_i = c_tau / (L_xx_i + L_yx_i^2/alpha),
        sigma = c_sigma / (m (alpha + 2 L_yy)),  theta = t = 1.

    Satisfies the step-size condition with certificates ``alpha^k = alpha``
    and ``beta^k = L_yy``.
    """
    return _constant_schedule(constants, m, alpha, None, c_tau, c_sigma)


def _constant_schedule(constants, m, alpha, p, c_tau, c_sigma) -> StepSchedule:
    """Constant steps for both public constructors; ``p = None`` is uniform
    sampling, whose factor ``m p_i = 1`` stays out of ``tau`` bit for bit."""
    if not alpha > 0:
        raise ParameterError(f"alpha must be > 0, got {alpha}")
    if not (0 < c_tau <= 1 and 0 < c_sigma <= 1):
        raise ParameterError("c_tau, c_sigma must lie in (0, 1]")
    coupling = constants.L_yx ** 2 / alpha if p is None else \
        constants.L_yx ** 2 / (p * m * alpha)
    tau = c_tau / (constants.L_xx + coupling)
    sigma = c_sigma / (m * (alpha + 2.0 * constants.L_yy))
    return StepSchedule(regime="part1", tau=tau, sigma=float(sigma), theta=1.0,
                        t=1.0, alpha=float(alpha), beta=constants.L_yy,
                        c_tau=c_tau, c_sigma=c_sigma, mu=constants.mu.copy(), p=p)


def part2_init(constants: LipschitzConstants, m: int, alpha: float,
               c_sigma: float = 0.99, p=None) -> StepSchedule:
    """Initial state of the accelerated recursion.

        taut^0 = min_i mu_i p_i (L_xx_i + L_yx_i^2/(p_i m alpha)
                                  + (1 - p_i) mu_i)^(-1)
        sigma^0 = c_sigma / (m alpha),  theta^0 = t^0 = 1.

    Requires every modulus positive and a coupling linear in the dual.
    """
    if not alpha > 0:
        raise ParameterError(f"alpha must be > 0, got {alpha}")
    if not 0 < c_sigma <= 1:
        raise ParameterError("c_sigma must lie in (0, 1]")
    if np.any(constants.mu <= 0):
        raise RegimeError("accelerated regime needs mu_i > 0 for every block")
    if constants.L_yy != 0:
        raise RegimeError("accelerated regime needs a coupling linear in y (L_yy = 0)")
    p_arr = _validate_probabilities(p, m)
    pi = np.full(m, 1.0 / m) if p_arr is None else p_arr
    mu = constants.mu
    taut0 = float(np.min(mu * pi / (constants.L_xx + constants.L_yx ** 2 / (pi * m * alpha)
                                    + (1.0 - pi) * mu)))
    sigma0 = c_sigma / (m * alpha)
    sched = StepSchedule(regime="part2", tau=_part2_tau(mu, pi, taut0),
                         sigma=float(sigma0), theta=1.0, t=1.0,
                         alpha=float(alpha), beta=0.0, c_tau=1.0,
                         c_sigma=c_sigma, tau_tilde=taut0, mu=mu.copy(),
                         p=p_arr)
    return sched


def _part2_tau(mu: np.ndarray, pi: np.ndarray, taut: float) -> np.ndarray:
    denom = mu * pi * (1.0 + 1.0 / taut) - mu
    if np.any(denom <= 0):
        raise RegimeError("accelerated step recursion produced a nonpositive "
                          "reciprocal step; taut must stay below p_i/(1-p_i)")
    return 1.0 / denom


def part2_scalars(sigma: float, taut: float, m: int, clamped: bool) -> tuple:
    """The scalar step of the accelerated recursion: from ``sigma^k``,
    ``taut^k`` and whether the momentum floor has bound so far, returns
    ``(theta^(k+1), sigma^(k+1), taut^(k+1), clamped)``."""
    theta_next = 1.0 / math.sqrt(1.0 + taut)
    floor = 1.0 - 1.0 / m
    if theta_next < floor:
        # the recursion keeps theta above 1 - 1/m for every taut^0 it can
        # produce itself; the clamp guards externally constructed states
        theta_next = floor
        clamped = True
    return theta_next, sigma / theta_next, theta_next * taut, clamped


def part2_state(s0: StepSchedule, theta: float, sigma: float, taut: float, t: float,
                clamped: bool) -> StepSchedule:
    """The part2 state with the given scalars; every other field carries
    over from ``s0``, ``mu_p`` included, and the steps follow from ``taut``.

    The reciprocal steps are not checked again: ``taut`` only decreases,
    so the positivity that :func:`part2_init` checked at ``taut^0`` holds
    at every later state.
    """
    m = s0.tau.size
    # a frozen-dataclass copy without __init__
    nxt = object.__new__(StepSchedule)
    nxt.__dict__.update(s0.__dict__)
    nxt.__dict__.update(
        tau=1.0 / (s0.mu_p * (1.0 + 1.0 / taut) - s0.mu), sigma=sigma,
        theta=theta, t=t, alpha=s0.c_sigma / (m * theta * sigma), tau_tilde=taut,
        theta_clamped=clamped)
    return nxt


def part2_advance(s: StepSchedule) -> StepSchedule:
    """One step of the accelerated recursion (returns a new state)."""
    if s.regime != "part2":
        raise RegimeError("part2_advance needs a part2 schedule")
    theta, sigma, taut, clamped = part2_scalars(s.sigma, s.tau_tilde, s.tau.size,
                                                s.theta_clamped)
    return part2_state(s, theta, sigma, taut, s.t / theta, clamped)


def nonuniform_weights(constants: LipschitzConstants, m: int, alpha: float,
                       p, regime: str = "part1", c_tau: float = 1.0,
                       c_sigma: float = 1.0) -> StepSchedule:
    """Schedule for sampling block ``i`` with probability ``p_i``.

    part1:  tau_i = c_tau (L_xx_i + L_yx_i^2/(p_i m alpha))^(-1),
            sigma = c_sigma/(m alpha).
    part2:  the accelerated recursion seeded with the p-weighted taut^0.

    Both require a coupling linear in the dual; uniform probabilities
    reproduce the corresponding uniform schedules exactly.
    """
    p_arr = _validate_probabilities(p, m)
    if p_arr is None:
        raise ParameterError("nonuniform_weights needs an explicit probability vector")
    if regime == "part2":
        return part2_init(constants, m, alpha, c_sigma=c_sigma, p=p_arr)
    if constants.L_yy != 0:
        raise RegimeError("non-uniform constant steps are defined for L_yy = 0")
    return _constant_schedule(constants, m, alpha, p_arr, c_tau, c_sigma)


def schedule_prefix(s0: StepSchedule, length: int) -> list:
    """States ``k = 0 .. length`` obtained by repeated advancing."""
    out = [s0]
    for _ in range(length):
        out.append(out[-1].advance())
    return out


@dataclass
class Assumption2Report:
    satisfied: bool
    worst_slack: dict
    first_violation: tuple | None  # (k, inequality-name) or None

    def __str__(self):
        status = "satisfied" if self.satisfied else f"violated at {self.first_violation}"
        worst = ", ".join(f"{k}={v:.3e}" for k, v in self.worst_slack.items())
        return f"step-size condition {status}; worst slack: {worst}"


def check_assumption2(prefix: list, constants: LipschitzConstants, m: int,
                      eq_tol: float = 1e-12) -> Assumption2Report:
    """Replay a schedule prefix against the step-size condition.

    Checks, for every k with a successor state in the prefix (blockwise,
    with sampling weights; ``0^2/0 = 0`` when the dual constant and beta
    both vanish):

    - primal:    1/tau_i^k >= L_xx_i + L_yx_i^2 / (m p_i alpha^{k+1})
    - dual:      1/sigma^k >= m theta^k (alpha^k + beta^k)
                              + m L_yy^2 / beta^{k+1}
    - telescope: t^k (1/tau_i^k + mu_i)
                   >= t^{k+1} (1/tau_i^{k+1} + (1 - p_i) mu_i)
    - ratio:     t^k / sigma^k >= t^{k+1} / sigma^{k+1}
    - weight:    t^{k+1} theta^{k+1} = t^k   (up to eq_tol, relative)
    - momentum:  theta^k in [1 - 1/m, 1]

    The telescope and ratio slacks are normalized by the magnitude of
    their left sides (which grow like k^2 under the accelerated
    recursion, so an absolute slack would drown in float error).
    """
    names = ["primal", "dual", "telescope", "ratio", "weight", "momentum"]
    worst = {name: np.inf for name in names}
    first = None

    def record(name, k, slack):
        nonlocal first
        worst[name] = min(worst[name], float(slack))
        if slack < -1e-10 and first is None:
            first = (k, name)

    for k, s in enumerate(prefix):
        pi = s.probabilities()
        record("momentum", k, min(s.theta - (1.0 - 1.0 / m), 1.0 - s.theta))
        if k + 1 >= len(prefix):
            break
        s_next = prefix[k + 1]
        alpha_blocks = m * pi * s_next.alpha
        primal = 1.0 / s.tau - constants.L_xx - constants.L_yx ** 2 / alpha_blocks
        record("primal", k, primal.min())
        if constants.L_yy == 0.0 and s_next.beta == 0.0:
            dual_tail = 0.0  # the 0^2/0 = 0 convention
        elif s_next.beta == 0.0:
            dual_tail = np.inf
        else:
            dual_tail = m * constants.L_yy ** 2 / s_next.beta
        record("dual", k, 1.0 / s.sigma - m * s.theta * (s.alpha + s.beta) - dual_tail)
        mu = constants.mu
        lhs_tele = s.t * (1.0 / s.tau + mu)
        tele = lhs_tele - s_next.t * (1.0 / s_next.tau + (1.0 - pi) * mu)
        record("telescope", k, tele.min() / max(1.0, float(lhs_tele.max())))
        lhs_ratio = s.t / s.sigma
        record("ratio", k, (lhs_ratio - s_next.t / s_next.sigma) / max(1.0, lhs_ratio))
        wt = abs(s_next.t * s_next.theta - s.t) / max(abs(s.t), 1.0)
        record("weight", k, eq_tol - wt)

    satisfied = first is None
    return Assumption2Report(satisfied=satisfied, worst_slack=worst,
                             first_violation=first)
