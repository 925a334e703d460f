"""Randomized block-coordinate primal-dual optimization toolkit.

Solves convex-concave saddle problems

    min_x max_y  sum_i f_i(x_i) + phi(x, y) - h(y)

whose primal variable splits into m blocks, updating one random block per
iteration with a momentum-extrapolated dual ascent step.  Ships constant
and accelerated step-size regimes, deterministic baselines, high-accuracy
saddle oracles, a multiple-kernel SVM experiment, and a benchmark harness
that verifies the O(m/K) and O(m/K^2) rates empirically.
"""

from .blockcore import BlockPartition
from .bregman import (BregmanGeometry, EntropyGeometry, EuclideanGeometry,
                      IndicatorBall, IndicatorBox, IndicatorNonneg,
                      IndicatorSimplex, L1, NonnegQuadratic, ProductGeometry,
                      ProxFriendlyFunction, Separable, SquaredL2, Zero,
                      bregman_dist, bregman_prox, three_point_check)
from .exceptions import (ConfigError, DimensionError, DivergenceError,
                         DomainError, ParameterError, RegimeError)
from .kernel_learning import (KernelDataset, build_kernel_problem, kernel_eval,
                              synth_dataset)
from .oracle import (SaddleCertificate, kkt_residual, solve_high_accuracy,
                     solve_quadratic_game_exact)
from .problem import (LipschitzConstants, SaddleProblem, build_bilinear_erm,
                      build_constrained, build_quadratic_game, grad_check)
from .solver import RunOptions, RunTrace, ergodic_average, run
from .baselines import mirror_prox_run, pdhg_run
from .stepsize import (StepSchedule, check_assumption2, default_alpha,
                       nonuniform_weights, part1_schedule, part2_advance,
                       part2_init, schedule_prefix)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
