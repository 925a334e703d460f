"""Benchmark suites, config-driven problem construction, and trace output.

Four named suites:

- ``bilinear``: sanity of the deterministic baselines (single-block
  equivalence, extra-gradient ergodic rate) on interior-saddle bilinear
  games.
- ``quadratic``: the ergodic O(m/K) bound and its empirical slope on a
  blockwise-l1, ball-constrained quadratic game ensemble.
- ``strongly-convex``: the accelerated O(m/K^2) bound and distance slope.
- ``kernel``: the multiple-kernel SVM desk instance against the
  extragradient certificate.
"""

from __future__ import annotations

import datetime
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..baselines import mirror_prox_run, pdhg_run
from ..blockcore import BlockPartition
from ..bregman import (IndicatorBall, IndicatorNonneg, IndicatorSimplex, L1,
                       SquaredL2, Zero)
from ..exceptions import ConfigError, DimensionError, ParameterError
from ..kernel_learning import (build_kernel_problem, dual_start, synth_dataset)
from ..oracle import (SaddleCertificate, kkt_residual, load_certificate,
                      solve_high_accuracy, solve_quadratic_game_exact)
from ..problem import (build_bilinear_erm, build_constrained, build_quadratic_game,
                       grad_check)
from ..solver import RunOptions, RunTrace, run
from ..stepsize import (default_alpha, nonuniform_weights, part1_schedule,
                        part2_init)
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


def part1_suite_problem(instance_seed: int = 11, n: int = 32, d: int = 8,
                        m: int = 8):
    """Quadratic game with l1 blocks and a dual ball; strongly monotone,
    so the extragradient oracle certifies quickly."""
    rng = np.random.default_rng(instance_seed)
    P = random_spd(rng, n, 0.5, 2.0)
    Q = random_spd(rng, d, 0.5, 2.0)
    C = rng.standard_normal((d, n)) / np.sqrt(n)
    p = rng.standard_normal(n)
    q = rng.standard_normal(d)
    part = BlockPartition.even(n, m)
    f = [L1(0.1) for _ in range(m)]
    h = IndicatorBall(1.0)
    problem = build_quadratic_game(P, Q, C, p, q, part, f=f, h=h)
    return problem, np.zeros(n), np.zeros(d)


def part2_suite_problem(instance_seed: int = 12, n: int = 32, d: int = 8,
                        m: int = 8):
    """Coupling linear in the dual with unit-modulus quadratic blocks;
    the saddle point is available exactly by folding the quadratics into
    the stationarity system."""
    rng = np.random.default_rng(instance_seed)
    P = random_spd(rng, n, 0.2, 1.0)
    Q = np.zeros((d, d))
    C = rng.standard_normal((d, n)) / np.sqrt(n)
    p = rng.standard_normal(n)
    q = rng.standard_normal(d) * 0.5
    part = BlockPartition.even(n, m)
    f = [SquaredL2(0.5) for _ in range(m)]   # modulus 1 per block
    h = SquaredL2(0.5)
    problem = build_quadratic_game(P, Q, C, p, q, part, f=f, h=h)
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
    f = [IndicatorBall(rx) for _ in range(m)] if m == 1 else \
        [IndicatorBall(rx / np.sqrt(m)) for _ in range(m)]
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
    iterations, or ~16 log-spaced points per decade when cadence is 0."""
    if cadence > 0:
        pts = list(range(cadence, K + 1, cadence))
    else:
        pts = np.unique(np.round(np.logspace(0, np.log10(max(K, 2)), 60)).astype(int))
        pts = [int(v) for v in pts if 1 <= v <= K]
    if K not in pts:
        pts.append(K)
    return sorted(set(pts))


def format_float(v: float) -> str:
    if np.isnan(v):
        return "nan"
    return format(float(v), ".17g")


def write_trace_csv(path, trace: RunTrace) -> None:
    """Write one run as CSV.

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
    for r in trace.records:
        row = [str(r.k), "0.000000", str(r.i_k), format_float(r.sigma),
               format_float(r.theta), format_float(r.tau_min),
               format_float(r.tau_max), format_float(r.t), format_float(r.gap),
               format_float(r.dist_sq), format_float(r.dy)]
        lines.append(",".join(row))
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
    """Instantiate the configured problem, its smoothness constants
    multiplied by ``method.lipschitz_scale``; returns (problem, x0, y0)."""
    problem, x0, y0 = _build_unscaled(cfg)
    problem.constants = problem.constants.scaled(cfg["method.lipschitz_scale"])
    return problem, x0, y0


def _build_unscaled(cfg: ExperimentConfig):
    v = cfg.values
    kind = v["problem.type"]
    rng = np.random.default_rng(v["problem.seed"])
    n, d, m = v["problem.n"], v["problem.d"], v["problem.blocks"]
    part = BlockPartition.even(n, m)

    if kind == "quadratic_game":
        f = make_block_functions(v["problem.f"], v["problem.f_param"], part)
        h = make_dual_function(v["problem.h"], v["problem.h_param"])
        if v["problem.strongly_convex"]:
            P = random_spd(rng, n, 0.2, 1.0)
            Q = np.zeros((d, d))
        else:
            P = random_spd(rng, n, 0.5, 2.0)
            Q = random_spd(rng, d, 0.5, 2.0)
        C = rng.standard_normal((d, n)) / np.sqrt(n)
        p = rng.standard_normal(n)
        q = rng.standard_normal(d)
        problem = build_quadratic_game(P, Q, C, p, q, part, f=f, h=h)
        return problem, np.zeros(n), _dual_feasible_start(problem)

    if kind == "bilinear_erm":
        A = rng.standard_normal((d, n)) / np.sqrt(n)
        f = make_block_functions(v["problem.f"], v["problem.f_param"], part)
        h = make_dual_function(v["problem.h"], v["problem.h_param"])
        problem = build_bilinear_erm([A[:, sl] for sl in part.slices()], f, h,
                                     partition=part)
        return problem, np.zeros(n), _dual_feasible_start(problem)

    if kind == "constrained":
        Pg = random_spd(rng, n, 0.2, 1.0)
        pg = rng.standard_normal(n)
        AG = rng.standard_normal((d, n)) / np.sqrt(n)
        bG = -np.abs(rng.standard_normal(d))  # strictly feasible at 0
        B = v["problem.B"] if v["problem.B"] > 0 else 10.0
        f = make_block_functions(v["problem.f"], v["problem.f_param"], part)
        problem = build_constrained(Pg, pg, AG, bG, B, part, f=f)
        return problem, np.zeros(n), np.zeros(d)

    # kernel
    ds = synth_dataset(n_tr=n, d=d, seed=v["problem.seed"],
                       separation=v["problem.separation"])
    problem = build_kernel_problem(
        ds, lam=v["problem.lam"],
        B=v["problem.B"] if v["problem.B"] > 0 else None,
        m_blocks=m, bandwidth=v["problem.bandwidth"],
        dual_geometry=v["problem.dual_geometry"])
    return problem, np.zeros(n), dual_start(problem)


def _dual_feasible_start(problem):
    y = np.zeros(problem.dual_dim)
    return problem.h.project_domain(y)


def make_schedule_from_config(cfg: ExperimentConfig, problem):
    v = cfg.values
    m = problem.partition.m
    alpha = v["method.alpha"] if v["method.alpha"] > 0 else default_alpha(problem.constants)
    p = cfg.probabilities(m)
    name = v["method.name"]
    if name == "rapd1":
        if p is None:
            return part1_schedule(problem.constants, m, alpha,
                                  c_tau=v["method.c_tau"], c_sigma=v["method.c_sigma"])
        return nonuniform_weights(problem.constants, m, alpha, p, regime="part1",
                                  c_tau=v["method.c_tau"], c_sigma=v["method.c_sigma"])
    if name == "rapd2":
        return part2_init(problem.constants, m, alpha,
                          c_sigma=v["method.c_sigma"], p=p)
    raise ConfigError(f"no schedule for method {name!r}")


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
        sched = make_schedule_from_config(cfg, problem)
        opts = RunOptions(record_at=pts, reference=reference)
        return run(problem, sched, K, seed, x0=x0, y0=y0, options=opts)
    if name == "pdhg":
        alpha = v["method.alpha"] if v["method.alpha"] > 0 else default_alpha(problem.constants)
        s1 = part1_schedule(problem.constants, problem.partition.m, alpha,
                            c_tau=v["method.c_tau"], c_sigma=v["method.c_sigma"])
        tau = v["method.tau"] if v["method.tau"] > 0 else float(s1.tau.min())
        sigma = v["method.sigma"] if v["method.sigma"] > 0 else s1.sigma * problem.partition.m
        return pdhg_run(problem, tau, sigma, K, x0=x0, y0=y0, record_at=pts,
                        reference=reference)
    L = v["method.L"] if v["method.L"] > 0 else None
    return mirror_prox_run(problem, L, K, x0=x0, y0=y0, record_at=pts,
                           reference=reference)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _slack(S: int) -> float:
    # Chebyshev-style cushion for testing an expectation bound with S samples
    return 1.0 + 3.0 / np.sqrt(S)


def _seed_worker(args):
    which, seed, K, record_at = args
    if which == "part1":
        problem, x0, y0 = part1_suite_problem()
        cert = _part1_certificate(problem)
        sched = part1_schedule(problem.constants, problem.partition.m,
                               default_alpha(problem.constants))
        opts = RunOptions(record_at=record_at, reference=cert)
        return run(problem, sched, K, seed, x0=x0, y0=y0, options=opts)
    problem, x0, y0 = part2_suite_problem()
    cert = part2_suite_certificate(problem)
    sched = part2_init(problem.constants, problem.partition.m,
                       default_alpha(problem.constants))
    opts = RunOptions(record_at=record_at, reference=cert)
    return run(problem, sched, K, seed, x0=x0, y0=y0, options=opts)


_part1_cert_cache: dict = {}


def _part1_certificate(problem) -> SaddleCertificate:
    # the suite problem is deterministic, so one certificate serves all seeds
    if "cert" not in _part1_cert_cache:
        _part1_cert_cache["cert"] = solve_high_accuracy(problem, tol=1e-10)
    return _part1_cert_cache["cert"]


def _fanout(which, seeds, K, record_at, jobs):
    tasks = [(which, s, K, record_at) for s in seeds]
    if jobs and jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_seed_worker, tasks))
    return [_seed_worker(t) for t in tasks]


def quadratic_game_suite(S: int = 50, K: int = 10_000,
                         checkpoints=(10, 100, 1000, 10_000),
                         jobs: int = 1) -> RateReport:
    """Ergodic-gap bound and slope for the constant-step regime."""
    problem, x0, y0 = part1_suite_problem()
    cert = _part1_certificate(problem)
    m = problem.partition.m
    sched = part1_schedule(problem.constants, m, default_alpha(problem.constants))
    delta1 = rate_bound_delta1(problem, sched, x0, y0, cert)
    slope_pts = [int(v) for v in np.unique(np.round(np.logspace(2, np.log10(K), 13)))]
    record_at = sorted(set(list(checkpoints) + slope_pts))
    traces = _fanout("part1", range(S), K, record_at, jobs)
    mean_gap = [float(np.mean([tr.at(Kc).gap for tr in traces])) for Kc in checkpoints]
    bound = [m / Kc * delta1 for Kc in checkpoints]
    slope, r2 = slope_fit(traces, "gap", (100, K))
    min_gap = min(float(tr.column("gap").min()) for tr in traces)
    return RateReport(suite="quadratic", method="rapd1", seeds=S,
                      checkpoints=list(checkpoints), mean_metric=mean_gap,
                      bound=bound, slack_factor=_slack(S), slope=slope,
                      slope_r2=r2, slope_threshold=-0.8,
                      extras={"delta1": delta1, "min_gap": min_gap,
                              "gap_nonneg_ok": min_gap >= -1e-9,
                              "oracle_residual": cert.kkt_residual})


def strongly_convex_suite(S: int = 50, K_checkpoints=(10, 100, 1000, 10_000),
                          jobs: int = 1) -> RateReport:
    """Weighted-distance bound at ``x^{K+1}`` and the distance slope for
    the accelerated regime."""
    problem, x0, y0 = part2_suite_problem()
    cert = part2_suite_certificate(problem)
    m = problem.partition.m
    sched = part2_init(problem.constants, m, default_alpha(problem.constants))
    delta2 = rate_bound_delta2(problem, sched, x0, y0, cert)
    K_max = max(K_checkpoints)
    slope_pts = [int(v) for v in np.unique(np.round(np.logspace(2, np.log10(K_max), 13)))]
    record_at = sorted(set([k + 1 for k in K_checkpoints] + slope_pts))
    traces = _fanout("part2", range(S), K_max + 1, record_at, jobs)
    mean_w = [float(np.mean([tr.at(Kc + 1).wdist_sq for tr in traces]))
              for Kc in K_checkpoints]
    t_at = {Kc: traces[0].at(Kc + 1).t_prev for Kc in K_checkpoints}
    bound = [m / t_at[Kc] * delta2 for Kc in K_checkpoints]
    slope, r2 = slope_fit(traces, "dist_sq", (100, K_max))
    return RateReport(suite="strongly-convex", method="rapd2", seeds=S,
                      checkpoints=list(K_checkpoints), mean_metric=mean_w,
                      bound=bound, slack_factor=_slack(S), slope=slope,
                      slope_r2=r2, slope_threshold=-1.7,
                      extras={"delta2": delta2,
                              "oracle_residual": cert.kkt_residual})


def bilinear_suite(games: int = 20, K: int = 100) -> RateReport:
    """Single-block equivalence against the deterministic baseline, plus
    the extra-gradient ergodic slope.

    The slope is fitted on the quadratic-game instance: a bilinear game
    with an interior saddle has an identically zero Lagrangian gap (the
    Lagrangian is affine in each argument with vanishing slope at the
    saddle), so it cannot exhibit a rate.
    """
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
    cert = _part1_certificate(problem)
    K_mp = 10_000
    pts = [int(v) for v in np.unique(np.round(np.logspace(2, 4, 13)))]
    tr_mp = mirror_prox_run(problem, None, K_mp, record_at=pts, reference=cert)
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


@dataclass
class KernelSuiteResult:
    oracle: SaddleCertificate
    oracle_seconds: float
    rel_err: dict = field(default_factory=dict)       # method -> reached rel error
    seconds: dict = field(default_factory=dict)       # method -> seconds used
    iterations: dict = field(default_factory=dict)
    mapping_fidelity: float = 0.0
    grad_check_err: float = 0.0
    target: float = 1e-3

    @property
    def passed(self) -> bool:
        return (self.oracle.certified
                and all(v <= self.target for v in self.rel_err.values())
                and self.mapping_fidelity <= 1e-10
                and self.grad_check_err <= 1e-6)

    def lines(self):
        out = [f"suite=kernel oracle_res={self.oracle.kkt_residual:.3e} "
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


def kernel_suite(n_tr: int = 200, d: int = 10, lam: float = 1.0,
                 m_blocks: int = 10, instance_seed: int = 7,
                 time_budget_s: float = 60.0, target: float = 1e-3,
                 oracle_tol: float = 1e-10, lipschitz_scale: float = 0.1,
                 dual_geometry: str = "entropy") -> KernelSuiteResult:
    """Desk-scale kernel experiment: certify a reference, then time both
    step regimes to the relative-error target.

    The suite deflates the global coupling constants by 0.1 for larger
    steps (the configuration the original experiment ran); the library
    default elsewhere stays at 1.0, which keeps the step-size condition
    intact.
    """
    ds = synth_dataset(n_tr=n_tr, d=d, seed=instance_seed)
    problem = build_kernel_problem(ds, lam=lam, m_blocks=m_blocks,
                                   dual_geometry=dual_geometry,
                                   lipschitz_scale=lipschitz_scale)
    x0 = np.zeros(problem.partition.n)
    y0 = dual_start(problem)
    tic = time.perf_counter()
    cert = solve_high_accuracy(problem, tol=oracle_tol, x0=x0, y0=y0)
    oracle_seconds = time.perf_counter() - tic
    xn = float(np.linalg.norm(cert.x_star))
    result = KernelSuiteResult(oracle=cert, oracle_seconds=oracle_seconds,
                               target=target,
                               mapping_fidelity=_mapping_fidelity(problem, ds),
                               grad_check_err=grad_check(problem, num_points=5,
                                                         epsilon=1e-5))
    m = problem.partition.m
    alpha = default_alpha(problem.constants)
    for name in ("rapd1", "rapd2"):
        sched = (part1_schedule(problem.constants, m, alpha) if name == "rapd1"
                 else part2_init(problem.constants, m, alpha))
        opts = RunOptions(record_at=record_points(4_000_000, cadence=0),
                          reference=None, time_budget_s=time_budget_s,
                          stop_when=lambda x, y: float(np.linalg.norm(x - cert.x_star))
                          <= target * xn)
        tr = run(problem, sched, 4_000_000, seed=1, x0=x0, y0=y0, options=opts)
        result.rel_err[name] = float(np.linalg.norm(tr.final_x - cert.x_star)) / xn
        result.seconds[name] = tr.wall_total_s
        result.iterations[name] = tr.iterations
    return result


def _mapping_fidelity(problem, ds, draws: int = 20, seed: int = 3) -> float:
    """Compare the assembled coupling against the formula evaluated from
    raw ingredients (independent arithmetic path)."""
    from ..kernel_learning import gram_matrix, normalize_gram
    grams = [normalize_gram(gram_matrix(kind, ds.points))
             for kind in ("poly2", "gauss", "linear")]
    b = ds.labels
    r = np.array([np.trace(K) for K in grams])
    c = float(r.sum())
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        x = np.abs(rng.standard_normal(ds.n_tr))
        y = rng.dirichlet(np.ones(len(grams)))
        z = float(rng.standard_normal())
        expect = -2.0 * x.sum() + z * float(b @ x)
        for l, K in enumerate(grams):
            G = np.diag(b) @ K @ np.diag(b)
            expect += (c / r[l]) * y[l] * float(x @ (G @ x))
        got = problem.phi_value(x, np.concatenate([y, [z]]))
        worst = max(worst, abs(got - expect) / max(1.0, abs(expect)))
    return worst


def suite_by_name(name: str, jobs: int = 1):
    """Run a named suite; only the quadratic and strongly-convex suites
    fan their seeds out over ``jobs`` worker processes."""
    if jobs > 1 and name in ("bilinear", "kernel"):
        raise ParameterError(f"suite {name!r} runs serially; --jobs > 1 applies only "
                             "to the quadratic and strongly-convex suites")
    if name == "bilinear":
        return bilinear_suite()
    if name == "quadratic":
        return quadratic_game_suite(jobs=jobs)
    if name == "strongly-convex":
        return strongly_convex_suite(jobs=jobs)
    if name == "kernel":
        return kernel_suite()
    raise ConfigError(f"unknown suite {name!r} (bilinear | quadratic | "
                      f"strongly-convex | kernel)")
