"""Deterministic baselines: single-block equivalence and mirror-prox.

At m = 1 with momentum weight 1, the randomized method's dual-gradient
extrapolation collapses to the classical iterate extrapolation, so it
reproduces the deterministic extrapolated primal-dual method exactly.
Composite mirror-prox is the non-randomized reference for general
couplings: two prox steps per iteration at step 1/L.
"""

import numpy as np

from rapd import RunOptions, run
from rapd.baselines import mirror_prox_run, pdhg_run
from rapd.harness.metrics import slope_fit
from rapd.harness.suites import bilinear_game, part1_suite_problem
from rapd.oracle import solve_high_accuracy
from rapd.stepsize import default_alpha, part1_schedule

# 1. exact equivalence on a bilinear game
problem, cert = bilinear_game(instance_seed=1)
sched = part1_schedule(problem.constants, 1, default_alpha(problem.constants))
r_iter, b_iter = [], []
# the hook sees live iterates, so it keeps copies
run(problem, sched, 100, seed=0,
    options=RunOptions(iterate_hook=lambda k, x, y: r_iter.append((x.copy(), y.copy()))))
pdhg_run(problem, float(sched.tau[0]), sched.sigma, 100,
         iterate_hook=lambda k, x, y: b_iter.append((x.copy(), y.copy())))
dev = max(max(np.abs(xr - xb).max(), np.abs(yr - yb).max())
          for (xr, yr), (xb, yb) in zip(r_iter, b_iter))
print(f"randomized(m=1) vs deterministic primal-dual, 100 iterations: "
      f"max deviation {dev:.1e}")

# 2. mirror-prox on the quadratic game: ergodic O(L/k) decay
problem, _, _ = part1_suite_problem()
cert = solve_high_accuracy(problem, tol=1e-10)
pts = sorted(set(int(v) for v in np.round(np.logspace(1, 4, 16))))
tr = mirror_prox_run(problem, None, 10_000, record_at=pts, reference=cert)
slope, r2 = slope_fit([tr], "gap", (100, 10_000))
print(f"\nmirror-prox ergodic gap (half-point averages):")
print(f"{'k':>6} {'gap':>12}")
for k in (10, 100, 1000, 10000):
    print(f"{k:>6} {tr.at(k).gap:>12.4e}")
print(f"log-log slope over [1e2, 1e4]: {slope:.3f} (r2 = {r2:.4f}) "
      f"-- the O(L/k) ergodic rate")
