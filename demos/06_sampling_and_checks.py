"""Non-uniform block sampling and the step-size condition checker.

Blocks may be sampled with any positive probabilities; the step formulas
absorb p_i so the guarantees survive with different constants.  The
checker replays a schedule prefix against every inequality of the
step-size condition and pinpoints the first violation of a broken one.
"""

import numpy as np
from dataclasses import replace

from rapd import RunOptions, run
from rapd.harness.suites import part2_suite_certificate, part2_suite_problem
from rapd.stepsize import (check_assumption2, default_alpha,
                           nonuniform_weights, part1_schedule, schedule_prefix)

# non-uniform constant steps need a coupling linear in the dual (L_yy = 0)
problem, x0, y0 = part2_suite_problem()
m = problem.partition.m
cert = part2_suite_certificate(problem)
alpha = default_alpha(problem.constants)

# skew sampling toward the first blocks
p = np.linspace(2.0, 1.0, m)
p /= p.sum()
sched_u = part1_schedule(problem.constants, m, alpha)
sched_p = nonuniform_weights(problem.constants, m, alpha, p, regime="part1")
print("sampling probabilities:", np.round(p, 4))
print("uniform tau:   ", np.round(sched_u.tau, 4))
print("non-uniform tau:", np.round(sched_p.tau, 4),
      "(rarely sampled blocks take shorter steps)\n")

K = 20_000
tr_u = run(problem, sched_u, K, seed=3, x0=x0, y0=y0,
           options=RunOptions(record_at=[K], reference=cert))
tr_p = run(problem, sched_p, K, seed=3, x0=x0, y0=y0,
           options=RunOptions(record_at=[K], reference=cert))
print(f"ergodic gap after {K} updates: uniform {tr_u.at(K).gap:.3e}, "
      f"non-uniform {tr_p.at(K).gap:.3e}\n")

# the condition checker in action
rep = check_assumption2(schedule_prefix(sched_p, 1000), problem.constants, m)
print("healthy schedule:", rep)
broken = replace(sched_u, tau=sched_u.tau * 1.7)
rep_bad = check_assumption2(schedule_prefix(broken, 10), problem.constants, m)
print("oversized steps: ", rep_bad)
