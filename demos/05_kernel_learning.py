"""Multiple-kernel SVM at desk scale, end to end.

Learns a convex combination of three normalized Gram matrices
(quadratic polynomial, narrow Gaussian, linear) while the soft-margin
dual variable plays against it.  Both step regimes run against a
certified extragradient reference; the accelerated variant exploits the
ridge term's strong convexity after it is folded into the block
functions.
"""

import time

import numpy as np

from rapd.harness.suites import time_to_target
from rapd.kernel_learning import kernel_desk
from rapd.oracle import solve_high_accuracy
from rapd.stepsize import default_alpha, part1_schedule, part2_init

# the kernel suite's desk at a smaller size, on its deflated constants
problem, x0, y0, ds = kernel_desk(n=120, m=8)
print(f"dataset: {ds.n_tr} points in R^{ds.points.shape[1]}, "
      f"{int((ds.labels == 1).sum())} / {int((ds.labels == -1).sum())} labels")
print(f"blocked dual variable: n = {problem.partition.n} in "
      f"{problem.partition.m} blocks; kernel weights + free multiplier "
      f"as the {problem.dual_dim}-dim dual; B = {problem.B:.1f}\n")

tic = time.perf_counter()
cert = solve_high_accuracy(problem, tol=1e-10, x0=x0, y0=y0)
print(f"reference: residual {cert.kkt_residual:.2e} in "
      f"{time.perf_counter() - tic:.1f}s; learned kernel weights "
      f"{np.round(cert.y_star[:3], 4)}, multiplier {cert.y_star[3]:.4f}")

c, m = problem.constants, problem.partition.m
for name, sched in (("constant steps ", part1_schedule(c, m, default_alpha(c))),
                    ("accelerated    ", part2_init(c, m, default_alpha(c)))):
    k, seconds, x = time_to_target(problem, sched, cert.x_star, 1, x0, y0)
    rel = np.linalg.norm(x - cert.x_star) / np.linalg.norm(cert.x_star)
    print(f"{name}: rel err {rel:.2e} after {k} block updates ({seconds:.1f}s)")

print("\nthe accelerated regime needs far fewer updates at equal accuracy,")
print("matching its O(m/K^2) guarantee against the constant-step O(m/K).")
