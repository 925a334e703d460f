"""Benchmark suites, config-driven problem construction, and trace output.

Four named suites:

- ``bilinear``: sanity of the deterministic baselines (single-block
  equivalence, extra-gradient ergodic rate) on interior-saddle bilinear
  games.
- ``quadratic``: the ergodic O(m/K) bound and its empirical slope on a
  blockwise-l1, ball-constrained quadratic game ensemble.
- ``strongly-convex``: the accelerated O(m/K^2) bound and distance slope.
  Both rate suites step their seeds together (``solver._lockstep``).
- ``kernel``: the multiple-kernel SVM desk instance against the
  extragradient certificate.
"""

from __future__ import annotations

import datetime
import sys
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ..baselines import mirror_prox_run, pdhg_run
from ..blockcore import BlockPartition
from ..bregman import (IndicatorBall, IndicatorNonneg, IndicatorSimplex, L1,
                       SquaredL2, Zero)
from ..exceptions import ConfigError, DimensionError, ParameterError
from ..kernel_learning import (KERNELS, build_kernel_problem, dual_start, gram_matrix,
                               kernel_desk, normalize_gram, synth_dataset)
from ..oracle import (SaddleCertificate, kkt_residual, load_certificate,
                      solve_high_accuracy, solve_quadratic_game_exact)
from ..problem import (build_bilinear_erm, build_constrained, build_quadratic_game,
                       grad_check)
from ..solver import RunOptions, RunTrace, _lockstep, run
from ..stepsize import default_alpha, part1_schedule, part2_init
from .config import ExperimentConfig
from .metrics import (RateReport, lagrangian_gap, rate_bound_delta1,
                      rate_bound_delta2, slope_fit)

CSV_COLUMNS = ("k", "wall_s", "i_k", "sigma", "theta", "tau_min", "tau_max",
               "t", "gap", "dist_sq", "dy")


# ---------------------------------------------------------------------------
# deterministic instance builders
# ---------------------------------------------------------------------------

def random_spd(rng, n: int, eig_lo: float, eig_hi: float) -> np.ndarray:
    """SPD matrix with eigenvalues uniform in [eig_lo, eig_hi]."""
    Qm, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(eig_lo, eig_hi, size=n)
    return (Qm * eigs) @ Qm.T


def _quadratic_game_data(rng, n: int, d: int, strongly_convex: bool):
    """``(P, Q, C, p, q)`` of a random quadratic game, drawn in that order;
    strongly convex means a flatter ``P`` and ``Q = 0``."""
    if strongly_convex:
        P, Q = random_spd(rng, n, 0.2, 1.0), np.zeros((d, d))
    else:
        P, Q = random_spd(rng, n, 0.5, 2.0), random_spd(rng, d, 0.5, 2.0)
    C = rng.standard_normal((d, n)) / np.sqrt(n)
    return P, Q, C, rng.standard_normal(n), rng.standard_normal(d)


def part1_suite_problem():
    """Quadratic game with l1 blocks and a dual ball (instance seed 11);
    strongly monotone, so the extragradient oracle certifies quickly."""
    n, d, m = 32, 8, 8
    rng = np.random.default_rng(11)
    P, Q, C, p, q = _quadratic_game_data(rng, n, d, strongly_convex=False)
    part = BlockPartition.even(n, m)
    f = [L1(0.1) for _ in range(m)]
    h = IndicatorBall(1.0)
    problem = build_quadratic_game(P, Q, C, p, q, part, f=f, h=h)
    return problem, np.zeros(n), np.zeros(d)


def part2_suite_problem():
    """Coupling linear in the dual with unit-modulus quadratic blocks
    (instance seed 12); the saddle point is available exactly by folding
    the quadratics into the stationarity system."""
    n, d, m = 32, 8, 8
    rng = np.random.default_rng(12)
    P, Q, C, p, q = _quadratic_game_data(rng, n, d, strongly_convex=True)
    part = BlockPartition.even(n, m)
    f = [SquaredL2(0.5) for _ in range(m)]   # modulus 1 per block
    h = SquaredL2(0.5)
    problem = build_quadratic_game(P, Q, C, p, q * 0.5, part, f=f, h=h)
    return problem, np.full(n, 1.0), np.zeros(d)


def part2_suite_certificate(problem) -> SaddleCertificate:
    """Exact saddle by folding the quadratic f and h into the system."""
    n = problem.partition.n
    d = problem.dual_dim
    P_fold = problem.P + np.eye(n) * problem.f[0].modulus
    Q_fold = problem.Q + np.eye(d) * problem.h.modulus
    cert = solve_quadratic_game_exact(P_fold, Q_fold, problem.C, problem.p, problem.q)
    res = kkt_residual(problem, cert.x_star, cert.y_star)
    return SaddleCertificate(x_star=cert.x_star, y_star=cert.y_star,
                             kkt_residual=res, method="linear-solve",
                             tol=max(res, 1e-12))


def bilinear_game(instance_seed: int, n: int = 8, m: int = 1):
    """Bilinear game with linear terms and an interior saddle point known
    in closed form; ball constraints keep both domains compact."""
    rng = np.random.default_rng(instance_seed)
    A = rng.standard_normal((n, n)) + np.eye(n) * 2.0
    p = rng.standard_normal(n) * 0.5
    q = rng.standard_normal(n) * 0.5
    x_star = np.linalg.solve(A, q)
    y_star = -np.linalg.solve(A.T, p)
    rx = 2.0 * float(np.linalg.norm(x_star)) + 1.0
    ry = 2.0 * float(np.linalg.norm(y_star)) + 1.0
    part = BlockPartition.even(n, m)
    A_blocks = [A[:, sl] for sl in part.slices()]
    f = [IndicatorBall(rx / np.sqrt(m)) for _ in range(m)]
    problem = build_bilinear_erm(A_blocks, f, IndicatorBall(ry), partition=part,
                                 p=p, q=q)
    res = kkt_residual(problem, x_star, y_star)
    cert = SaddleCertificate(x_star=x_star, y_star=y_star, kkt_residual=res,
                             method="linear-solve", tol=max(res, 1e-12))
    return problem, cert


# ---------------------------------------------------------------------------
# trace CSV / summary output
# ---------------------------------------------------------------------------

def record_points(K: int, cadence: int = 0) -> list:
    """Update counts at which to snapshot metrics: every ``cadence``
    iterations, or, when cadence is 0, 60 log-spaced points over
    ``[1, K]`` (fewer after rounding merges the smallest): about 15 per
    decade at K = 1e4.  ``K`` itself is always in."""
    if cadence > 0:
        pts = list(range(cadence, K + 1, cadence))
    else:
        pts = np.unique(np.round(np.logspace(0, np.log10(max(K, 2)), 60)).astype(int))
        pts = [int(v) for v in pts if 1 <= v <= K]
    if K not in pts:
        pts.append(K)
    return sorted(set(pts))


def write_trace_csv(path, trace: RunTrace) -> None:
    """Write one run as CSV, its floats round-trip exact (17 digits).

    The body is bitwise reproducible for a fixed seed: measured wall time
    lives in ``#`` header comments and the ``wall_s`` body column is zeroed.
    """
    lines = [f"# method={trace.method} seed={trace.seed} iterations={trace.iterations}",
             f"# geometry: {trace.geometry_note}",
             f"# wall_total_s={trace.wall_total_s:.6f}",
             f"# cache_resyncs={trace.cache_resyncs} "
             f"max_cache_drift={trace.max_cache_drift:.3e}",
             f"# written_at={datetime.datetime.now().isoformat()}",
             ",".join(CSV_COLUMNS)]
    cell = {"k": str, "wall_s": lambda v: "0.000000", "i_k": str}
    for r in trace.records:
        lines.append(",".join(cell.get(c, "{:.17g}".format)(getattr(r, c)) for c in CSV_COLUMNS))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary(path, entries: dict) -> None:
    """key=value summary file, one entry per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, v in entries.items():
            fh.write(f"{k}={v}\n")


# ---------------------------------------------------------------------------
# config-driven construction
# ---------------------------------------------------------------------------

def make_block_functions(kind: str, param: float, partition: BlockPartition):
    makers = {
        "zero": lambda: Zero(),
        "l1": lambda: L1(param),
        "sql2": lambda: SquaredL2(param),
        "nonneg": lambda: IndicatorNonneg(),
    }
    if kind not in makers:
        raise ConfigError(f"unknown block function kind {kind!r}")
    return [makers[kind]() for _ in partition.sizes]


def make_dual_function(kind: str, param: float):
    makers = {
        "zero": lambda: Zero(),
        "ball": lambda: IndicatorBall(param),
        "sql2": lambda: SquaredL2(param),
        "simplex": lambda: IndicatorSimplex(param),
        "nonneg": lambda: IndicatorNonneg(),
    }
    if kind not in makers:
        raise ConfigError(f"unknown dual function kind {kind!r}")
    return makers[kind]()


def build_problem_from_config(cfg: ExperimentConfig):
    """Instantiate the configured problem; returns (problem, x0, y0).  It
    has one block under pdhg and mirror_prox, which read no block count."""
    v = cfg.values
    kind = v["problem.type"]
    rng = np.random.default_rng(v["problem.seed"])
    m = v["problem.blocks"] if v["method.name"] in ("rapd1", "rapd2") else 1
    n, d = v["problem.n"], v["problem.d"]
    part = BlockPartition.even(n, m)

    if kind == "kernel":
        ds = synth_dataset(n_tr=n, d=d, seed=v["problem.seed"],
                           separation=v["problem.separation"])
        problem = build_kernel_problem(
            ds, lam=v["problem.lam"],
            B=v["problem.B"] if v["problem.B"] > 0 else None,
            m_blocks=m, bandwidth=v["problem.bandwidth"],
            dual_geometry=v["problem.dual_geometry"])
        return problem, np.zeros(n), dual_start(problem)

    f = make_block_functions(v["problem.f"], v["problem.f_param"], part)
    if kind == "quadratic_game":
        h = make_dual_function(v["problem.h"], v["problem.h_param"])
        P, Q, C, p, q = _quadratic_game_data(rng, n, d, v["problem.strongly_convex"])
        problem = build_quadratic_game(P, Q, C, p, q, part, f=f, h=h)
        return problem, np.zeros(n), _dual_feasible_start(problem)

    if kind == "bilinear_erm":
        A = rng.standard_normal((d, n)) / np.sqrt(n)
        h = make_dual_function(v["problem.h"], v["problem.h_param"])
        problem = build_bilinear_erm([A[:, sl] for sl in part.slices()], f, h,
                                     partition=part)
        return problem, np.zeros(n), _dual_feasible_start(problem)

    # constrained
    Pg = random_spd(rng, n, 0.2, 1.0)
    pg = rng.standard_normal(n)
    AG = rng.standard_normal((d, n)) / np.sqrt(n)
    bG = -np.abs(rng.standard_normal(d))  # strictly feasible at 0
    B = v["problem.B"] if v["problem.B"] > 0 else 10.0
    problem = build_constrained(Pg, pg, AG, bG, B, part, f=f)
    return problem, np.zeros(n), np.zeros(d)


def _dual_feasible_start(problem):
    y = np.zeros(problem.dual_dim)
    return problem.h.project_domain(y)


def make_schedule_from_config(cfg: ExperimentConfig, problem):
    """The configured schedule and the constants that certify it.

    pdhg is rapd1 at m = 1: its schedule has one block, on the constants
    of its instance, built as one block.  Its steps default to
    rapd1's there; a given ``method.tau`` or ``method.sigma`` is used as
    given.  Its ``alpha`` is the geometric mean of the bounds
    ``L_yx^2 / (1/tau - L_xx)`` and ``1/sigma - 2 L_yy`` of the m = 1
    condition (infinite unless both are positive), so
    :func:`check_assumption2` passes exactly when the steps satisfy it.
    """
    v = cfg.values
    if v["method.name"] == "pdhg":
        c1 = problem.constants
        s1 = part1_schedule(c1, 1, default_alpha(c1))
        tau, sigma = v["method.tau"] or float(s1.tau[0]), v["method.sigma"] or s1.sigma
        gap_x, gap_y = 1.0 / tau - c1.L_xx[0], 1.0 / sigma - 2.0 * c1.L_yy
        alpha = (np.sqrt(c1.L_yx[0] ** 2 / gap_x * gap_y)
                 if gap_x > 0 and gap_y > 0 else np.inf)
        return replace(s1, tau=np.array([tau]), sigma=sigma, alpha=float(alpha)), c1
    m = problem.partition.m
    alpha = v["method.alpha"] if v["method.alpha"] > 0 else default_alpha(problem.constants)
    p = cfg.probabilities(m)
    if v["method.name"] == "rapd2":
        sched = part2_init(problem.constants, m, alpha, c_sigma=v["method.c_sigma"], p=p)
    else:
        sched = part1_schedule(problem.constants, m, alpha, c_tau=v["method.c_tau"],
                               c_sigma=v["method.c_sigma"], p=p)
    return sched, problem.constants


def run_from_config(cfg: ExperimentConfig, seed: int) -> RunTrace:
    """One configured run (any method) with metrics when a certificate
    path is configured."""
    v = cfg.values
    problem, x0, y0 = build_problem_from_config(cfg)
    reference = None
    if v["run.certificate"]:
        reference = load_certificate(v["run.certificate"])
        shapes = (reference.x_star.shape, reference.y_star.shape)
        if shapes != ((problem.partition.n,), (problem.dual_dim,)):
            raise DimensionError(f"certificate {v['run.certificate']} has shapes {shapes}, "
                                 f"the problem needs {(problem.partition.n, problem.dual_dim)}")
    K = v["run.K"]
    pts = record_points(K, v["run.metric_cadence"])
    name = v["method.name"]
    if name in ("rapd1", "rapd2"):
        sched, _ = make_schedule_from_config(cfg, problem)
        opts = RunOptions(record_at=pts, reference=reference)
        return run(problem, sched, K, seed, x0=x0, y0=y0, options=opts)
    if name == "pdhg":
        s1, _ = make_schedule_from_config(cfg, problem)
        return pdhg_run(problem, float(s1.tau[0]), s1.sigma, K, x0=x0, y0=y0,
                        record_at=pts, reference=reference)
    L = v["method.L"] if v["method.L"] > 0 else None
    return mirror_prox_run(problem, L, K, x0=x0, y0=y0, record_at=pts,
                           reference=reference)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _slack(S: int) -> float:
    # Chebyshev-style cushion for testing an expectation bound with S samples
    return 1.0 + 3.0 / np.sqrt(S)


#: iteration counts at which the rate suites read their bounds; the last
#: one is the horizon
_CHECKPOINTS = (10, 100, 1000, 10_000)
#: log-spaced record points over [1e2, 1e4] for the slope fits
_SLOPE_POINTS = sorted({int(v) for v in np.round(np.logspace(2, 4, 13))})


def _rate_ensemble(S, build, certify, schedule, delta_of, *, shift, metric,
                   slope_metric, weight, extras, **report) -> RateReport:
    """The pipeline of both rate suites: instance, certificate, schedule at
    the default coupling weight and ``Delta = delta_of(...)``, then ``S``
    seeds recorded at the checkpoints plus ``shift``.  Reports the seed
    mean of the record field ``metric`` and the bound ``m / weight * Delta``
    (``weight`` a field of seed 0's record) at those points, the slope of
    ``slope_metric``, and ``extras(Delta, traces)`` with the oracle residual.
    The seeds advance in lockstep (:func:`_lockstep`)."""
    if S < 1:
        raise ParameterError(f"a rate ensemble needs S >= 1 seeds, got S = {S}")
    problem, x0, y0 = build()
    cert = certify(problem)
    m = problem.partition.m
    sched = schedule(problem.constants, m, default_alpha(problem.constants))
    delta = delta_of(problem, sched, x0, y0, cert)
    K = _CHECKPOINTS[-1]
    reads = [Kc + shift for Kc in _CHECKPOINTS]
    traces = _lockstep(problem, sched, K + shift, range(S), x0, y0,
                       set(reads) | set(_SLOPE_POINTS), cert)
    slope, r2 = slope_fit(traces, slope_metric, (100, K))
    return RateReport(
        seeds=S, checkpoints=list(_CHECKPOINTS),
        mean_metric=[float(np.mean([getattr(tr.at(k), metric) for tr in traces]))
                     for k in reads],
        bound=[m / getattr(traces[0].at(k), weight) * delta for k in reads],
        slack_factor=_slack(S), slope=slope, slope_r2=r2,
        extras={**extras(delta, traces), "oracle_residual": cert.kkt_residual}, **report)


def quadratic_game_suite(S: int = 50) -> RateReport:
    """Ergodic-gap bound and slope for the constant-step regime."""
    def extras(delta1, traces):
        min_gap = min(float(tr.column("gap").min()) for tr in traces)
        return {"delta1": delta1, "min_gap": min_gap, "gap_nonneg_ok": min_gap >= -1e-9}

    # the O(m/K) bound: the weight is the record's own k
    return _rate_ensemble(S, part1_suite_problem, partial(solve_high_accuracy, tol=1e-10),
                          part1_schedule, rate_bound_delta1, shift=0, metric="gap",
                          slope_metric="gap", weight="k", extras=extras,
                          suite="quadratic", method="rapd1", slope_threshold=-0.8)


def strongly_convex_suite(S: int = 50) -> RateReport:
    """Weighted-distance bound at ``x^{K+1}`` and the distance slope for
    the accelerated regime."""
    return _rate_ensemble(S, part2_suite_problem, part2_suite_certificate, part2_init,
                          rate_bound_delta2, shift=1, metric="wdist_sq",
                          slope_metric="dist_sq", weight="t_prev",
                          extras=lambda delta2, traces: {"delta2": delta2},
                          suite="strongly-convex", method="rapd2", slope_threshold=-1.7)


def bilinear_suite() -> RateReport:
    """Single-block equivalence against the deterministic baseline on 20
    games of 100 iterations, plus the extra-gradient ergodic slope.

    The slope is fitted on the quadratic-game instance: a bilinear game
    with an interior saddle has an identically zero Lagrangian gap (the
    Lagrangian is affine in each argument with vanishing slope at the
    saddle), so it cannot exhibit a rate.
    """
    games, K = 20, 100
    worst_dev = 0.0
    for g in range(games):
        problem, cert = bilinear_game(instance_seed=100 + g)
        m = problem.partition.m
        sched = part1_schedule(problem.constants, m, default_alpha(problem.constants))
        tr_r = run(problem, sched, K, seed=0,
                   options=RunOptions(record_at=[K]))
        tr_b = pdhg_run(problem, float(sched.tau[0]), sched.sigma, K)
        dev = max(float(np.abs(tr_r.final_x - tr_b.final_x).max()),
                  float(np.abs(tr_r.final_y - tr_b.final_y).max()))
        worst_dev = max(worst_dev, dev)

    problem, _, _ = part1_suite_problem()
    cert = solve_high_accuracy(problem, tol=1e-10)
    K_mp = _CHECKPOINTS[-1]
    tr_mp = mirror_prox_run(problem, None, K_mp, record_at=_SLOPE_POINTS, reference=cert)
    slope, r2 = slope_fit([tr_mp], "gap", (100, K_mp))
    gaps = tr_mp.column("gap")
    best = np.minimum.accumulate(gaps)
    monotone_ok = bool(np.all(np.diff(best) <= 1e-9))
    return RateReport(suite="bilinear", method="pdhg/mirror_prox", seeds=games,
                      checkpoints=[K], mean_metric=[worst_dev], bound=[1e-12],
                      slack_factor=1.0, slope=slope, slope_r2=r2,
                      slope_threshold=-0.8,
                      extras={"equivalence_max_dev": worst_dev,
                              "equivalence_ok": worst_dev <= 1e-12,
                              "best_gap_monotone_ok": monotone_ok})


#: the relative distance to ``x*`` that ends a time-to-target run, and its
#: wall-clock budget in seconds
TARGET_REL_ERR, TARGET_BUDGET_S = 1e-3, 60.0


class _TargetCheck(Exception):
    """Leaves :func:`run` from the iterate hook of :func:`time_to_target`."""


def time_to_target(problem, schedule, x_star, seed: int, x0, y0):
    """Run ``schedule`` from ``(x0, y0)`` until ``||x - x*|| <= TARGET_REL_ERR
    ||x*||`` or until ``TARGET_BUDGET_S`` seconds have passed, checked every
    ``m`` iterations (every epoch).  Returns iterations, seconds, final ``x``."""
    m = problem.partition.m
    radius = TARGET_REL_ERR * float(np.linalg.norm(x_star))
    tic = time.perf_counter()

    def check(k, x, y):
        if k % m == 0 and (float(np.linalg.norm(x - x_star)) <= radius
                           or time.perf_counter() - tic > TARGET_BUDGET_S):
            raise _TargetCheck(k, x.copy())

    # the draws come DRAW_CHUNK at a time, so only the check ends the run
    try:
        run(problem, schedule, sys.maxsize, seed, x0=x0, y0=y0,
            options=RunOptions(iterate_hook=check))
    except _TargetCheck as stop:
        return stop.args[0], time.perf_counter() - tic, stop.args[1]


@dataclass
class KernelSuiteResult:
    oracle: SaddleCertificate
    oracle_seconds: float
    region_radius: float                              # B, the ball the constants hold on
    rel_err: dict = field(default_factory=dict)       # method -> reached rel error
    seconds: dict = field(default_factory=dict)       # method -> seconds used
    iterations: dict = field(default_factory=dict)
    mapping_fidelity: float = 0.0
    grad_check_err: float = 0.0
    target: float = TARGET_REL_ERR

    @property
    def passed(self) -> bool:
        return (self.oracle.certified
                and all(v <= self.target for v in self.rel_err.values())
                and self.mapping_fidelity <= 1e-10
                and self.grad_check_err <= 1e-6)

    def lines(self):
        out = [f"suite=kernel B={self.region_radius:.4g} "
               f"||x*||={float(np.linalg.norm(self.oracle.x_star)):.4g} "
               f"oracle_res={self.oracle.kkt_residual:.3e} "
               f"({self.oracle_seconds:.1f}s, certified={self.oracle.certified})"]
        for name in self.rel_err:
            out.append(f"  {name}: rel_err={self.rel_err[name]:.3e} "
                       f"in {self.seconds[name]:.1f}s / {self.iterations[name]} iters "
                       f"({'ok' if self.rel_err[name] <= self.target else 'VIOLATED'})")
        out.append(f"  mapping_fidelity={self.mapping_fidelity:.3e} "
                   f"grad_check={self.grad_check_err:.3e}")
        out.append(f"  result: {'PASS' if self.passed else 'FAIL'}")
        return out

    def __str__(self):
        return "\n".join(self.lines())


def kernel_suite() -> KernelSuiteResult:
    """The kernel desk (:func:`kernel_desk`): certify a 1e-10 reference,
    then run both step regimes at seed 1 through :func:`time_to_target`."""
    problem, x0, y0, ds = kernel_desk()
    tic = time.perf_counter()
    cert = solve_high_accuracy(problem, tol=1e-10, x0=x0, y0=y0)
    oracle_seconds = time.perf_counter() - tic
    xn = float(np.linalg.norm(cert.x_star))
    result = KernelSuiteResult(oracle=cert, oracle_seconds=oracle_seconds,
                               region_radius=problem.B,
                               mapping_fidelity=_mapping_fidelity(problem, ds),
                               grad_check_err=grad_check(problem, num_points=5,
                                                         epsilon=1e-5))
    c, m = problem.constants, problem.partition.m
    alpha = default_alpha(c)
    for name, sched in (("rapd1", part1_schedule(c, m, alpha)),
                        ("rapd2", part2_init(c, m, alpha))):
        result.iterations[name], result.seconds[name], x = time_to_target(
            problem, sched, cert.x_star, 1, x0, y0)
        result.rel_err[name] = float(np.linalg.norm(x - cert.x_star)) / xn
    return result


def _mapping_fidelity(problem, ds) -> float:
    """Compare the assembled coupling against the formula evaluated from
    raw ingredients (independent arithmetic path) at 20 random points."""
    grams = [normalize_gram(gram_matrix(kind, ds.points)) for kind in KERNELS]
    b = ds.labels
    r = np.array([np.trace(K) for K in grams])
    c = float(r.sum())
    signed = [b[:, None] * K * b for K in grams]   # diag(b) K diag(b)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        x = np.abs(rng.standard_normal(ds.n_tr))
        y = rng.dirichlet(np.ones(len(grams)))
        z = float(rng.standard_normal())
        expect = -2.0 * x.sum() + z * float(b @ x)
        for l, G in enumerate(signed):
            expect += (c / r[l]) * y[l] * float(x @ (G @ x))
        got = problem.phi_value(x, np.concatenate([y, [z]]))
        worst = max(worst, abs(got - expect) / max(1.0, abs(expect)))
    return worst


def suite_by_name(name: str):
    """Run a named suite."""
    suites = {"bilinear": bilinear_suite, "quadratic": quadratic_game_suite,
              "strongly-convex": strongly_convex_suite, "kernel": kernel_suite}
    if name not in suites:
        raise ConfigError(f"unknown suite {name!r} ({' | '.join(suites)})")
    return suites[name]()
