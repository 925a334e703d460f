"""The three rapd benchmark workloads.

Each workload is a closed loop: one caller runs one solve at a time, in
a single process.  A workload has a set-up (instance generation, problem
build with its Lipschitz constants, reference certificate), an untimed
warm-up and a solve pass made of timed phases.  Every phase is one or
more calls into rapd's public API (``run``, ``pdhg_run``,
``mirror_prox_run``); every call is an attempted operation, and so is
every correctness check.

Phase kinds:

- ``target``: ``run`` until ``||x - x*|| <= 1e-3 ||x*||``, checked at an
  evenly spaced cadence of reference-free records; the record timestamps
  give the per-iteration chunks and the time to the target;
- ``rate``: ``run`` for a fixed K with log-spaced records against the
  certificate (the rate-verification workflow);
- ``slice``: ``run`` for a fixed K with evenly spaced reference-free
  records, for more of a regime's per-iteration chunks than its target
  runs give, or for a regime that has no target run on the workload;
- ``baseline``: a deterministic baseline for a fixed K with evenly spaced
  reference-free records.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from rapd import (IndicatorSimplex, RunOptions, SquaredL2, build_bilinear_erm,
                  build_kernel_problem, default_alpha, kkt_residual,
                  mirror_prox_run, part1_schedule, part2_init, pdhg_run, run,
                  solve_high_accuracy, synth_dataset)
from rapd.baselines import estimate_operator_lipschitz
from rapd.blockcore import BlockPartition
from rapd.bregman import project_simplex
from rapd.harness.metrics import RateReport, rate_bound_delta1, rate_bound_delta2
from rapd.harness.suites import (_slack, part1_suite_problem, part2_suite_certificate,
                                 part2_suite_problem)
from rapd.kernel_learning import dual_start

#: relative distance to the reference primal solution that ends a target run
TARGET = 1e-3


@dataclass
class Phase:
    """One timed phase of a solve pass."""

    label: str            # rapd1 | rapd2 | pdhg | mirror_prox
    kind: str             # target | rate | slice | baseline
    seconds: float
    traces: list


@dataclass
class Checks:
    """Correctness checks; each one counts as an attempted operation."""

    items: list = field(default_factory=list)

    def add(self, name: str, ok, detail: str = "") -> None:
        self.items.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.items)


def chunk_us(trace) -> list:
    """Microseconds per iteration between consecutive records."""
    k = np.concatenate([[0.0], trace.column("k")])
    wall = np.concatenate([[0.0], trace.column("wall_s")])
    return list(np.diff(wall) / np.diff(k) * 1e6)


def rel_err(x, x_star) -> float:
    return float(np.linalg.norm(x - x_star) / np.linalg.norm(x_star))


def _phase(label, kind, fn) -> Phase:
    """Time ``fn``, which returns one trace or a list of them."""
    tic = time.perf_counter()
    out = fn()
    return Phase(label=label, kind=kind, seconds=time.perf_counter() - tic,
                 traces=out if isinstance(out, list) else [out])


def interleave(baseline, phases) -> list:
    """Put a baseline slice before, between and after ``phases`` so the
    baseline's samples spread over the whole pass.  Each phase is a
    function of the instance that returns a :class:`Phase`."""
    out = [baseline]
    for phase in phases:
        out += [phase, baseline]
    return out


def run_to_target(problem, sched, seed, x0, y0, x_star, cadence, k_max,
                  debug_cache_every=0):
    """``run`` that stops at the first record within TARGET of ``x_star``."""
    tol = TARGET * float(np.linalg.norm(x_star))
    opts = RunOptions(record_at=range(cadence, k_max + 1, cadence),
                      stop_when=lambda x, y: float(np.linalg.norm(x - x_star)) <= tol,
                      debug_cache_every=debug_cache_every)
    return run(problem, sched, k_max, seed, x0=x0, y0=y0, options=opts)


def target_checks(checks, phases, x_star, k0, problem) -> None:
    """Every target run reached TARGET, and every target and slice run
    lowered the start's residual."""
    for ph in phases:
        if ph.kind not in ("target", "slice"):
            continue
        if ph.kind == "target":
            errs = [rel_err(tr.final_x, x_star) for tr in ph.traces]
            checks.add(f"{ph.label}_reaches_1e-3", max(errs) <= TARGET,
                       f"max rel err {max(errs):.3e}")
        res = max(kkt_residual(problem, tr.final_x, tr.final_y) for tr in ph.traces)
        checks.add(f"{ph.label}_lowers_kkt", res < k0, f"{k0:.3e} -> {res:.3e}")


def start_checks(checks, name, problem, x0, y0, cert) -> float:
    """The start is not already a saddle point, and the certificate holds."""
    k0 = kkt_residual(problem, x0, y0)
    checks.add(f"{name}_start_kkt_positive", k0 > 0.0, f"kkt(x0, y0) = {k0:.3e}")
    checks.add(f"{name}_certified", cert.certified and cert.kkt_residual <= cert.tol,
               f"kkt(x*, y*) = {cert.kkt_residual:.3e}, tol {cert.tol:.0e}")
    return k0


# ---------------------------------------------------------------------------
# bilinear-large
# ---------------------------------------------------------------------------

def simplex_qp_dual(A, tol: float = 1e-15, max_iters: int = 10_000):
    """Minimize ``0.5 ||A' y||^2`` over the unit simplex by accelerated
    projected gradient; returns ``(y, ||A||_2)``."""
    G = A @ A.T
    L = float(np.linalg.eigvalsh(G)[-1])
    y = np.full(G.shape[0], 1.0 / G.shape[0])
    z, t = y.copy(), 1.0
    for _ in range(max_iters):
        y_next = project_simplex(z - (G @ z) / L)
        step = float(np.abs(y_next - y).max())
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = y_next + ((t - 1.0) / t_next) * (y_next - y)
        y, t = y_next, t_next
        if step <= tol:
            break
    return y, float(np.sqrt(L))


@dataclass
class Instance:
    """One saddle problem with its start and reference certificate."""

    problem: object
    x0: np.ndarray
    y0: np.ndarray
    cert: object
    A_norm: float = 0.0
    reference_s: float = 0.0    # bench-side reference work that setup_s leaves out


class SingleInstance:
    """Workload over one :class:`Instance`."""

    setup_slot_s = 1.0                      # set-up time per slot (at least one set-up)

    @staticmethod
    def problems(inst) -> list:
        return [inst.problem]

    @staticmethod
    def certificates(inst) -> list:
        return [inst.cert]


class BilinearLarge(SingleInstance):
    """``phi = <A x, y>`` with A Gaussian/sqrt(n), n=16384, d=512, m=256,
    ``f_i = SquaredL2(0.5)`` and ``h = IndicatorSimplex(1)``, started at
    x = 0 and the simplex centre.  The seed draws A and the sampling
    streams of the pass's rapd1 runs and of its rapd2 slices (mu_i = 1 and
    a coupling linear in y, so the accelerated regime applies)."""

    name = "bilinear-large"
    n, d, m = 16384, 512, 256
    runs = 3                                # rapd1 runs per pass, one sampling seed each
    cadence = 50
    cache_check_every = 1000
    k_max = 20_000
    rapd2_K = 1000                          # per rapd2 slice
    pdhg_K, pdhg_cadence = 100, 1           # per baseline slice

    def __init__(self, seed: int):
        self.seed = seed
        self._reference = None

    def setup(self, tr) -> Instance:
        rng = np.random.default_rng(self.seed)
        A = tr.call("bench.instance",
                    lambda: rng.standard_normal((self.d, self.n)) / np.sqrt(self.n))
        part = BlockPartition.even(self.n, self.m)
        problem = build_bilinear_erm([A[:, sl] for sl in part.slices()],
                                     [SquaredL2(0.5) for _ in range(self.m)],
                                     IndicatorSimplex(1.0), partition=part)
        tr.instrument(problem)
        # x* = -A'y* with y* the simplex QP dual; the oracle certifies it.
        # The QP dual is the benchmark's own work, so setup_s leaves it out;
        # it depends only on the seed, so later set-ups reuse it.
        tic = time.perf_counter()
        if self._reference is None:
            self._reference = tr.call("bench.reference", simplex_qp_dual, A)
        y_star, A_norm = self._reference
        reference_s = time.perf_counter() - tic
        cert = tr.call("oracle.solve_high_accuracy", solve_high_accuracy, problem,
                       tol=1e-10, L=A_norm, x0=-A.T @ y_star, y0=y_star)
        y0 = problem.h.project_domain(np.zeros(self.d))
        return Instance(problem, np.zeros(self.n), y0, cert, A_norm, reference_s)

    def _pdhg_steps(self, inst):
        step = 0.95 / inst.A_norm
        return step, step

    def warmup(self, inst) -> None:
        for regime in ("rapd1", "rapd2"):
            run(inst.problem, schedule(inst.problem, regime), 200, self.seed,
                x0=inst.x0, y0=inst.y0)
        pdhg_run(inst.problem, *self._pdhg_steps(inst), 5, x0=inst.x0, y0=inst.y0)

    def phases(self, tr) -> list:
        def baseline(inst):
            steps = self._pdhg_steps(inst)
            return _phase("pdhg", "baseline", lambda: tr.call(
                "baselines.pdhg_run", pdhg_run, inst.problem, *steps, self.pdhg_K,
                x0=inst.x0, y0=inst.y0,
                record_at=range(self.pdhg_cadence, self.pdhg_K + 1, self.pdhg_cadence)))

        def rapd1(seed):
            def phase(inst):
                sched = schedule(inst.problem, "rapd1")
                return _phase("rapd1", "target", lambda: tr.call(
                    "solver.run", run_to_target, inst.problem, sched, seed, inst.x0, inst.y0,
                    inst.cert.x_star, self.cadence, self.k_max,
                    debug_cache_every=self.cache_check_every))
            return phase

        def rapd2(inst):
            sched = schedule(inst.problem, "rapd2")
            opts = RunOptions(record_at=range(self.cadence, self.rapd2_K + 1, self.cadence),
                              debug_cache_every=self.cache_check_every)
            return _phase("rapd2", "slice", lambda: tr.call(
                "solver.run", run, inst.problem, sched, self.rapd2_K, self.seed, x0=inst.x0,
                y0=inst.y0, options=opts))
        # a rapd2 slice at each end of the pass, so a slow spell of the host
        # seldom covers all of a regime's chunks
        seeds = range(self.runs * self.seed, self.runs * (self.seed + 1))
        return interleave(baseline, [rapd2] + [rapd1(s) for s in seeds] + [rapd2])

    def check(self, inst, passes, checks) -> None:
        k0 = start_checks(checks, "bilinear", inst.problem, inst.x0, inst.y0, inst.cert)
        # the steps come from the benchmark's own ||A||; check them against rapd's
        tau, sigma = self._pdhg_steps(inst)
        prod = tau * sigma * estimate_operator_lipschitz(inst.problem) ** 2
        checks.add("pdhg_step_product_below_1", prod < 1.0, f"tau*sigma*||A||^2 = {prod:.4f}")
        for phases in passes:
            target_checks(checks, phases, inst.cert.x_star, k0, inst.problem)
            iters = [tr.iterations for ph in phases if ph.kind in ("target", "slice")
                     for tr in ph.traces]
            # run() raises on cache drift, so a run this long verified its cache
            checks.add("dual_gradient_cache_verified",
                       min(iters) >= self.cache_check_every,
                       f"every {self.cache_check_every} iterations, runs of {iters}")
            baseline_checks(checks, phases, inst.problem, k0)

    @staticmethod
    def grad_bytes(inst) -> tuple:
        """Bytes of coupling data read by one full ``grad_y`` and by one
        ``grad_x_block``."""
        p = inst.problem
        return p.A.nbytes, p.A.nbytes // p.partition.m


def schedule(problem, regime: str):
    """Initial step schedule of ``regime`` with the default coupling weight."""
    c, m = problem.constants, problem.partition.m
    if regime == "rapd1":
        return part1_schedule(c, m, default_alpha(c))
    return part2_init(c, m, default_alpha(c))


def baseline_checks(checks, phases, problem, k0) -> None:
    for ph in phases:
        if ph.kind == "baseline":
            tr = ph.traces[0]
            res = kkt_residual(problem, tr.final_x, tr.final_y)
            checks.add(f"{ph.label}_lowers_kkt", res < k0, f"{k0:.3e} -> {res:.3e}")


# ---------------------------------------------------------------------------
# kernel-desk
# ---------------------------------------------------------------------------

class KernelDesk(SingleInstance):
    """The multiple-kernel SVM desk instance: n_tr=200, d=10, M=3 kernels,
    m=10 blocks, lam=1, entropy dual, lipschitz_scale=0.1, dataset seed 7.
    The seed sets the sampling stream (run seed ``1 + seed``)."""

    name = "kernel-desk"
    dataset_seed = 7
    cadence = 100
    k_max = {"rapd1": 250_000, "rapd2": 100_000}
    rapd2_K = 6000                          # per rapd2 slice
    pdhg_K, pdhg_cadence = 1000, 20         # per baseline slice

    def __init__(self, seed: int):
        self.run_seed = 1 + seed

    def setup(self, tr) -> Instance:
        problem = tr.call("kernel_learning.build", self._build)
        tr.instrument(problem)
        x0 = np.zeros(problem.partition.n)
        y0 = dual_start(problem)
        cert = tr.call("oracle.solve_high_accuracy", solve_high_accuracy, problem,
                       tol=1e-10, x0=x0, y0=y0)
        return Instance(problem, x0, y0, cert)

    def _build(self):
        ds = synth_dataset(n_tr=200, d=10, seed=self.dataset_seed)
        return build_kernel_problem(ds, lam=1.0, m_blocks=10, dual_geometry="entropy",
                                    lipschitz_scale=0.1)

    @staticmethod
    def _pdhg_steps(inst):
        s1 = schedule(inst.problem, "rapd1")
        return float(s1.tau.min()), s1.sigma * inst.problem.partition.m

    def warmup(self, inst) -> None:
        for regime in ("rapd1", "rapd2"):
            run(inst.problem, schedule(inst.problem, regime), 2000, self.run_seed, x0=inst.x0, y0=inst.y0)
        pdhg_run(inst.problem, *self._pdhg_steps(inst), 100, x0=inst.x0, y0=inst.y0)

    def phases(self, tr) -> list:
        def target(regime):
            def phase(inst):
                sched = schedule(inst.problem, regime)
                return _phase(regime, "target", lambda: tr.call(
                    "solver.run", run_to_target, inst.problem, sched, self.run_seed, inst.x0,
                    inst.y0, inst.cert.x_star, self.cadence, self.k_max[regime]))
            return phase

        def rapd2(inst):
            sched = schedule(inst.problem, "rapd2")
            opts = RunOptions(record_at=range(self.cadence, self.rapd2_K + 1, self.cadence))
            return _phase("rapd2", "slice", lambda: tr.call(
                "solver.run", run, inst.problem, sched, self.rapd2_K, self.run_seed,
                x0=inst.x0, y0=inst.y0, options=opts))

        def baseline(inst):
            steps = self._pdhg_steps(inst)
            return _phase("pdhg", "baseline", lambda: tr.call(
                "baselines.pdhg_run", pdhg_run, inst.problem, *steps, self.pdhg_K,
                x0=inst.x0, y0=inst.y0,
                record_at=range(self.pdhg_cadence, self.pdhg_K + 1, self.pdhg_cadence)))
        # rapd2 on both sides of the long rapd1 run, so a slow spell of the
        # host seldom covers all of its chunks
        return interleave(baseline, [target("rapd2"), target("rapd1"), rapd2])

    def check(self, inst, passes, checks) -> None:
        k0 = start_checks(checks, "kernel", inst.problem, inst.x0, inst.y0, inst.cert)
        for phases in passes:
            target_checks(checks, phases, inst.cert.x_star, k0, inst.problem)
            baseline_checks(checks, phases, inst.problem, k0)

    @staticmethod
    def grad_bytes(inst) -> tuple:
        p = inst.problem
        n, n_i, M = p.partition.n, p.partition.sizes[0], len(p.G_list)
        return M * n * n * 8, M * n_i * n * 8


# ---------------------------------------------------------------------------
# quadratic-ensemble
# ---------------------------------------------------------------------------

@dataclass
class QuadraticInstances:
    part1: Instance
    part2: Instance
    reference_s: float = 0.0


class QuadraticEnsemble:
    """The rate-verification workflow on the two suite instances (n=32,
    d=8, m=8; part 1: l1 blocks and a dual ball, instance seed 11; part 2:
    SquaredL2 blocks and a coupling linear in y, instance seed 12).  The
    seed picks the sampling seeds of every ensemble.

    The pass is made of S rounds.  Each round runs one seed of each rate
    ensemble and T/S seeds of each time-to-target ensemble, alternating
    rapd1 and rapd2 seed by seed, so both regimes sample the host over the
    whole pass."""

    name = "quadratic-ensemble"
    setup_slot_s = 0.4                 # a set-up takes 0.05-0.1 s
    S = 8                              # seeds per rate ensemble, and rounds per pass
    K = 10_000
    checkpoints = (10, 100, 1000, 10_000)
    T = 160                            # seeds per time-to-target ensemble
    cadence = 10
    k_max = 20_000
    mp_K, mp_cadence = 1000, 20             # per baseline slice

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tr) -> QuadraticInstances:
        p1, x01, y01 = part1_suite_problem()
        tr.instrument(p1)
        cert1 = tr.call("oracle.solve_high_accuracy", solve_high_accuracy, p1, tol=1e-10)
        p2, x02, y02 = part2_suite_problem()
        tr.instrument(p2)
        cert2 = part2_suite_certificate(p2)
        return QuadraticInstances(Instance(p1, x01, y01, cert1),
                                  Instance(p2, x02, y02, cert2))

    @staticmethod
    def problems(inst) -> list:
        return [inst.part1.problem, inst.part2.problem]

    @staticmethod
    def certificates(inst) -> list:
        return [inst.part1.cert, inst.part2.cert]

    def _seeds(self, count):
        return range(count * self.seed, count * self.seed + count)

    def _rate_points(self, shift):
        # the suites' record points: the checkpoints (shifted to K+1 for
        # rapd2) and the log-spaced slope grid
        slope_pts = np.unique(np.round(np.logspace(2, np.log10(self.K), 13))).astype(int)
        return sorted({k + shift for k in self.checkpoints} | {int(k) for k in slope_pts})

    def warmup(self, inst) -> None:
        for q, regime in ((inst.part1, "rapd1"), (inst.part2, "rapd2")):
            run(q.problem, schedule(q.problem, regime), 1000, 0, x0=q.x0, y0=q.y0)
        mirror_prox_run(inst.part1.problem, None, 200, x0=inst.part1.x0, y0=inst.part1.y0)

    def phases(self, tr) -> list:
        def round_(i):
            # rapd1 on part 1 and rapd2 on part 2; the rate runs read part 2 at K+1
            rate_seed = self._seeds(self.S)[i]
            per_round = self.T // self.S
            target_seeds = self._seeds(self.T)[i * per_round:(i + 1) * per_round]

            def phase(inst):
                regimes = (("rapd1", inst.part1, 0), ("rapd2", inst.part2, 1))
                scheds = {r: schedule(q.problem, r) for r, q, _ in regimes}
                out = {(r, kind): Phase(r, kind, 0.0, []) for r, _, _ in regimes
                       for kind in ("rate", "target")}

                def timed(regime, kind, fn, *args, **kwargs):
                    ph = out[regime, kind]
                    tic = time.perf_counter()
                    ph.traces.append(tr.call("solver.run", fn, *args, **kwargs))
                    ph.seconds += time.perf_counter() - tic

                for r, q, part in regimes:
                    opts = RunOptions(record_at=self._rate_points(part), reference=q.cert)
                    timed(r, "rate", run, q.problem, scheds[r], self.K + part, rate_seed,
                          x0=q.x0, y0=q.y0, options=opts)
                for s in target_seeds:
                    for r, q, _ in regimes:
                        timed(r, "target", run_to_target, q.problem, scheds[r], s, q.x0,
                              q.y0, q.cert.x_star, self.cadence, self.k_max)
                return list(out.values())
            return phase

        def baseline(inst):
            p1 = inst.part1
            return _phase("mirror_prox", "baseline", lambda: tr.call(
                "baselines.mirror_prox_run", mirror_prox_run, p1.problem, None, self.mp_K,
                x0=p1.x0, y0=p1.y0,
                record_at=range(self.mp_cadence, self.mp_K + 1, self.mp_cadence)))
        return interleave(baseline, [round_(i) for i in range(self.S)])

    def check(self, inst, passes, checks) -> None:
        q1, q2 = inst.part1, inst.part2
        k01 = start_checks(checks, "part1", q1.problem, q1.x0, q1.y0, q1.cert)
        k02 = start_checks(checks, "part2", q2.problem, q2.x0, q2.y0, q2.cert)
        m = q1.problem.partition.m
        delta1 = rate_bound_delta1(q1.problem, schedule(q1.problem, "rapd1"),
                                   q1.x0, q1.y0, q1.cert)
        delta2 = rate_bound_delta2(q2.problem, schedule(q2.problem, "rapd2"),
                                   q2.x0, q2.y0, q2.cert)
        for phases in passes:
            rate1, rate2 = ([tr for ph in phases if ph.kind == "rate" and ph.label == r
                             for tr in ph.traces] for r in ("rapd1", "rapd2"))
            # criterion 1: mean ergodic gap under m/K * Delta1, as the quadratic
            # suite tests it; the accelerated weighted-distance bound at x^{K+1},
            # as the strongly-convex suite tests it; both with the S-slack
            gap = RateReport(
                suite="quadratic", method="rapd1", seeds=self.S,
                checkpoints=list(self.checkpoints),
                mean_metric=[float(np.mean([tr.at(Kc).gap for tr in rate1]))
                             for Kc in self.checkpoints],
                bound=[m / Kc * delta1 for Kc in self.checkpoints],
                slack_factor=_slack(self.S))
            wdist = RateReport(
                suite="strongly-convex", method="rapd2", seeds=self.S,
                checkpoints=list(self.checkpoints),
                mean_metric=[float(np.mean([tr.at(Kc + 1).wdist_sq for tr in rate2]))
                             for Kc in self.checkpoints],
                bound=[m / rate2[0].at(Kc + 1).t_prev * delta2
                       for Kc in self.checkpoints],
                slack_factor=_slack(self.S))
            for name, report in (("rapd1_mean_gap_bound", gap), ("rapd2_wdist_bound", wdist)):
                checks.add(name, report.bound_ok, "; ".join(
                    f"K={Kc} {mv:.3e} <= {b * report.slack_factor:.3e}" for Kc, mv, b
                    in zip(report.checkpoints, report.mean_metric, report.bound)))
            min_gap = min(float(tr.column("gap").min()) for tr in rate1)
            checks.add("rapd1_min_gap_nonneg", min_gap >= -1e-9, f"min gap {min_gap:.3e}")
            for q, regime, k0 in ((q1, "rapd1", k01), (q2, "rapd2", k02)):
                target_checks(checks, [ph for ph in phases if ph.label == regime],
                              q.cert.x_star, k0, q.problem)
            baseline_checks(checks, phases, q1.problem, k01)

    @staticmethod
    def grad_bytes(inst) -> tuple:
        p = inst.part1.problem
        n, d, n_i = p.partition.n, p.dual_dim, p.partition.sizes[0]
        return (d * n + d * d) * 8, (n_i * n + d * n_i) * 8


WORKLOADS = {w.name: w for w in (BilinearLarge, KernelDesk, QuadraticEnsemble)}
