"""``run`` against the paper's iteration written out from the stateless
oracles, iterate by iterate.

The textbook loop keeps no primal product, no cached gradients, no lazy
sums and no scalar schedule: each iteration evaluates ``grad_y`` at the
new point, takes the momentum direction, the checked ``bregman_prox``, a
``sample_index`` draw on ``CounterRng(seed)``, ``primal_block_step`` and
``StepSchedule.advance``.  Every speed-up of ``run`` must keep its
iterates within ``TOL`` of it, relative to the iterate's norm (the bound
of the m = 1 equivalence with the deterministic baseline).
"""

import numpy as np
import pytest

from rapd.blockcore import BlockPartition
from rapd.bregman import IndicatorBall, IndicatorSimplex, L1, SquaredL2, bregman_prox
from rapd.kernel_learning import build_kernel_problem, dual_start, synth_dataset
from rapd.problem import build_bilinear_erm, build_constrained, build_quadratic_game
from rapd.rng import CounterRng, sample_index
from rapd.solver import CACHE_RESYNC_SWEEPS, RunOptions, primal_block_step, run
from rapd.stepsize import default_alpha, part1_schedule, part2_init

TOL = 1e-12
M_BLOCKS = 4
#: past the first resync of the primal product, at CACHE_RESYNC_SWEEPS * m
K = 300
P_NONUNIFORM = np.array([0.4, 0.3, 0.2, 0.1])


def textbook_rapd(problem, schedule, K, seed, x0, y0):
    """The iterates ``(x^k, y^k)``, k = 1..K, of the paper's iteration."""
    m = problem.partition.m
    rng = CounterRng(seed)
    x, y = np.array(x0, dtype=float), np.array(y0, dtype=float)
    g_prev = g = problem.grad_y(x, y)
    out = []
    for _ in range(K):
        theta = schedule.theta
        s = (1.0 + m * theta) * g - m * theta * g_prev
        y = bregman_prox(problem.dual_geometry, problem.h, schedule.sigma, -s, y)
        i = sample_index(rng, m, schedule.p)
        x = primal_block_step(problem, x, y, i, schedule.tau[i])
        schedule = schedule.advance()
        g_prev, g = g, problem.grad_y(x, y)
        out.append(np.concatenate([x, y]))
    return out


def bilinear(rng):
    n, d = 12, 5
    part = BlockPartition.even(n, M_BLOCKS)
    A = rng.standard_normal((d, n))
    prob = build_bilinear_erm([A[:, sl] for sl in part.slices()],
                              [SquaredL2(0.5) for _ in range(M_BLOCKS)],
                              IndicatorSimplex(1.0), partition=part,
                              p=rng.standard_normal(n), q=rng.standard_normal(d))
    return prob, rng.standard_normal(n), np.full(d, 1.0 / d)


def quadratic(rng):
    n, d = 12, 5
    R, S = rng.standard_normal((n, n)), rng.standard_normal((d, d))
    prob = build_quadratic_game(R @ R.T / n, S @ S.T / d, rng.standard_normal((d, n)),
                                rng.standard_normal(n), rng.standard_normal(d),
                                BlockPartition.even(n, M_BLOCKS),
                                f=[L1(0.1) for _ in range(M_BLOCKS)], h=IndicatorBall(2.0))
    return prob, rng.standard_normal(n), np.zeros(d)


def constrained(rng):
    n, d = 12, 4
    R = rng.standard_normal((n, n))
    prob = build_constrained(R @ R.T / n, rng.standard_normal(n), rng.standard_normal((d, n)),
                             rng.standard_normal(d), 5.0, BlockPartition.even(n, M_BLOCKS),
                             f=[SquaredL2(0.5) for _ in range(M_BLOCKS)])
    return prob, rng.standard_normal(n), np.zeros(d)


def kernel(dual):
    def build(rng):
        prob = build_kernel_problem(synth_dataset(n_tr=40, d=3, seed=2), lam=1.0,
                                    m_blocks=M_BLOCKS, dual_geometry=dual)
        return prob, np.abs(rng.standard_normal(40)) * 0.1, dual_start(prob)
    return build


COUPLINGS = {"bilinear": bilinear, "quadratic": quadratic, "constrained": constrained,
             "kernel-entropy": kernel("entropy"), "kernel-euclidean": kernel("euclidean")}

# the quadratic game is curved in y (L_yy > 0): it has no accelerated regime
# and no non-uniform constant steps
CASES = [("quadratic", "rapd1", "uniform")] + [
    (coupling, regime, sampling)
    for coupling in ("bilinear", "constrained", "kernel-entropy", "kernel-euclidean")
    for regime in ("rapd1", "rapd2") for sampling in ("uniform", "nonuniform")]


def schedule_for(prob, regime, sampling):
    c, m = prob.constants, prob.partition.m
    alpha = default_alpha(c)
    if sampling == "nonuniform":
        return (part1_schedule(c, m, alpha, c_tau=1.0, c_sigma=1.0, p=P_NONUNIFORM)
                if regime == "rapd1" else part2_init(c, m, alpha, c_sigma=1.0, p=P_NONUNIFORM))
    return part1_schedule(c, m, alpha) if regime == "rapd1" else part2_init(c, m, alpha)


@pytest.mark.parametrize("coupling,regime,sampling", CASES,
                         ids=["-".join(case) for case in CASES])
def test_run_follows_the_textbook_loop(coupling, regime, sampling):
    assert K > CACHE_RESYNC_SWEEPS * M_BLOCKS
    prob, x0, y0 = COUPLINGS[coupling](np.random.default_rng(3))
    sched = schedule_for(prob, regime, sampling)
    seed = 17
    fast = []
    trace = run(prob, sched, K, seed, x0=x0, y0=y0, options=RunOptions(
        iterate_hook=lambda k, x, y: fast.append(np.concatenate([x, y]))))
    assert trace.cache_resyncs == 1
    ref = textbook_rapd(prob, sched, K, seed, x0, y0)
    assert len(fast) == len(ref) == K
    dev = [np.linalg.norm(a - b) / np.linalg.norm(b) for a, b in zip(fast, ref)]
    assert max(dev) <= TOL, (int(np.argmax(dev)) + 1, max(dev))
    # the run moved: a loop that stalls matches any other stalled loop
    assert np.linalg.norm(ref[-1] - np.concatenate([x0, y0])) > 1e-3
