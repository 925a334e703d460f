import numpy as np
import pytest

from rapd.baselines import (estimate_operator_lipschitz, mirror_prox_run,
                            pdhg_run)
from rapd.blockcore import BlockPartition
from rapd.bregman import SquaredL2, Zero
from rapd.exceptions import DivergenceError, ParameterError
from rapd.oracle import solve_high_accuracy, solve_quadratic_game_exact
from rapd.problem import build_bilinear_erm, build_quadratic_game


def scalar_bilinear():
    return build_bilinear_erm([np.array([[1.0]])], [Zero()], Zero())


class TestPdhg:
    def test_hand_arithmetic_first_iteration(self):
        # from (1, 1) with tau = sigma = 0.5: s0 = g0 = 1, y1 = 1.5,
        # x1 = 1 - 0.5 * 1.5 = 0.25
        hist = []
        pdhg_run(scalar_bilinear(), 0.5, 0.5, 1, x0=np.array([1.0]),
                 y0=np.array([1.0]),
                 iterate_hook=lambda k, x, y: hist.append((x.copy(), y.copy())))
        x1, y1 = hist[0]
        assert y1 == pytest.approx([1.5])
        assert x1 == pytest.approx([0.25])

    def test_classical_step_limit_diverges(self):
        # theta = 1 on a pure bilinear game needs tau*sigma*||A||^2 <= 1
        with pytest.raises(DivergenceError):
            pdhg_run(scalar_bilinear(), 1.2, 1.2, 20000,
                     x0=np.array([1.0]), y0=np.array([1.0]))

    def test_stable_below_step_limit(self):
        tr = pdhg_run(scalar_bilinear(), 0.9, 0.9, 20000,
                      x0=np.array([1.0]), y0=np.array([1.0]))
        assert np.isfinite(tr.final_x).all()

    def test_converges_on_coercive_quadratics(self):
        rng = np.random.default_rng(0)
        part = BlockPartition([4])
        C = rng.standard_normal((3, 4))
        prob = build_quadratic_game(np.zeros((4, 4)), np.zeros((3, 3)), C,
                                    rng.standard_normal(4), rng.standard_normal(3),
                                    part, f=[SquaredL2(0.5)], h=SquaredL2(0.5))
        cert = solve_quadratic_game_exact(np.eye(4), np.eye(3), C, prob.p, prob.q)
        L = estimate_operator_lipschitz(prob)
        tr = pdhg_run(prob, 0.5 / L, 0.5 / L, 10_000, x0=np.ones(4))
        assert np.linalg.norm(tr.final_x - cert.x_star) <= 1e-8
        assert np.linalg.norm(tr.final_y - cert.y_star) <= 1e-8

    def test_step_validation(self):
        with pytest.raises(ParameterError):
            pdhg_run(scalar_bilinear(), 0.0, 0.5, 10)


class TestMirrorProx:
    def test_hand_arithmetic_single_iteration(self):
        # from (1, 1) with L = 1: half point (0, 2), corrected (-1, 1)
        tr = mirror_prox_run(scalar_bilinear(), 1.0, 1,
                             x0=np.array([1.0]), y0=np.array([1.0]))
        assert tr.final_x == pytest.approx([-1.0])
        assert tr.final_y == pytest.approx([1.0])
        # rate-carrying output averages the half points
        assert tr.ergodic_x == pytest.approx([0.0])
        assert tr.ergodic_y == pytest.approx([2.0])

    def test_fixed_point_at_saddle(self):
        rng = np.random.default_rng(1)
        part = BlockPartition([4])
        M = rng.standard_normal((4, 4))
        N = rng.standard_normal((3, 3))
        prob = build_quadratic_game(M @ M.T / 4 + np.eye(4), N @ N.T / 3 + np.eye(3),
                                    rng.standard_normal((3, 4)),
                                    rng.standard_normal(4), rng.standard_normal(3),
                                    part)
        cert = solve_quadratic_game_exact(prob.P, prob.Q, prob.C, prob.p, prob.q)
        tr = mirror_prox_run(prob, None, 5, x0=cert.x_star, y0=cert.y_star)
        assert np.abs(tr.final_x - cert.x_star).max() <= 1e-10
        assert np.abs(tr.final_y - cert.y_star).max() <= 1e-10
        assert np.abs(tr.ergodic_x - cert.x_star).max() <= 1e-10

    def test_lipschitz_estimate_paths(self):
        assert estimate_operator_lipschitz(scalar_bilinear()) == pytest.approx(1.0)
        part = BlockPartition([2])
        prob = build_quadratic_game(np.eye(2) * 2, np.zeros((1, 1)),
                                    np.zeros((1, 2)), np.zeros(2), np.zeros(1),
                                    part)
        # linearization [[P, C'], [-C, Q]] has norm 2 here
        assert estimate_operator_lipschitz(prob) == pytest.approx(2.0, rel=1e-6)

    def test_missing_constant_rejected(self):
        class Weird:
            partition = BlockPartition([1])

        with pytest.raises(ParameterError):
            estimate_operator_lipschitz(Weird())
        with pytest.raises(ParameterError):
            mirror_prox_run(scalar_bilinear(), 0.0, 5)

    def test_best_gap_running_minimum(self):
        from rapd.harness.suites import part1_suite_problem
        prob, _, _ = part1_suite_problem()
        cert = solve_high_accuracy(prob, tol=1e-10)
        pts = [int(v) for v in np.unique(np.round(np.logspace(1, 3, 10)))]
        tr = mirror_prox_run(prob, None, 1000, record_at=pts, reference=cert)
        best = np.minimum.accumulate(tr.column("gap"))
        assert np.all(np.diff(best) <= 1e-9)
