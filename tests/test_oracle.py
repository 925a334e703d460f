import numpy as np
import pytest

from rapd.blockcore import BlockPartition
from rapd.bregman import IndicatorBall, IndicatorBox, L1, SquaredL2
from rapd.exceptions import ParameterError
from rapd.harness.suites import part1_suite_problem
from rapd.oracle import (kkt_residual, load_certificate, save_certificate,
                         solve_high_accuracy, solve_quadratic_game_exact)
from rapd.problem import build_quadratic_game, estimate_operator_lipschitz


class TestExactSolve:
    def test_hand_example(self):
        cert = solve_quadratic_game_exact(np.eye(1), np.eye(1), np.array([[2.0]]),
                                          np.array([-1.0]), np.array([1.0]))
        assert cert.x_star == pytest.approx([0.6])
        assert cert.y_star == pytest.approx([0.2])
        assert cert.kkt_residual <= 1e-10

    def test_homogeneous(self):
        cert = solve_quadratic_game_exact(np.eye(2), np.eye(2),
                                          np.ones((2, 2)), np.zeros(2), np.zeros(2))
        assert cert.x_star == pytest.approx([0.0, 0.0])
        assert cert.y_star == pytest.approx([0.0, 0.0])

    def test_residual_certifies(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n, d = rng.integers(1, 8), rng.integers(1, 8)
            M = rng.standard_normal((n, n))
            N = rng.standard_normal((d, d))
            P = M @ M.T / n + np.eye(n) * 0.1
            Q = N @ N.T / d + np.eye(d) * 0.1
            C = rng.standard_normal((d, n))
            cert = solve_quadratic_game_exact(P, Q, C, rng.standard_normal(n),
                                              rng.standard_normal(d))
            assert cert.kkt_residual <= 1e-10

    def test_singular_directs_to_iterative(self):
        with pytest.raises(ParameterError, match="solve_high_accuracy"):
            solve_quadratic_game_exact(np.zeros((1, 1)), np.zeros((1, 1)),
                                       np.zeros((1, 1)), np.zeros(1), np.zeros(1))


class TestKktResidual:
    def _problem(self, seed=1):
        rng = np.random.default_rng(seed)
        part = BlockPartition.even(6, 3)
        M = rng.standard_normal((6, 6))
        N = rng.standard_normal((2, 2))
        return build_quadratic_game(M @ M.T / 6 + np.eye(6) * 0.5,
                                    N @ N.T / 2 + np.eye(2) * 0.5,
                                    rng.standard_normal((2, 6)),
                                    rng.standard_normal(6),
                                    rng.standard_normal(2), part)

    def test_zero_at_exact_saddle(self):
        prob = self._problem()
        cert = solve_quadratic_game_exact(prob.P, prob.Q, prob.C, prob.p, prob.q)
        assert kkt_residual(prob, cert.x_star, cert.y_star) <= 1e-12

    def test_perturbation_scales_linearly(self):
        prob = self._problem()
        cert = solve_quadratic_game_exact(prob.P, prob.Q, prob.C, prob.p, prob.q)
        rng = np.random.default_rng(2)
        d = rng.standard_normal(6)
        d /= np.linalg.norm(d)
        res = []
        deltas = [1e-6, 1e-5, 1e-4]
        for delta in deltas:
            res.append(kkt_residual(prob, cert.x_star + delta * d, cert.y_star))
        # Theta(delta): ratios follow the perturbation within a factor 5
        for r, delta in zip(res, deltas):
            assert delta / 5 <= r <= 5 * delta * max(1.0, np.linalg.norm(prob.P))

    def test_certified_point_beats_start(self):
        prob = self._problem()
        start = kkt_residual(prob, np.ones(6), np.ones(2))
        cert = solve_high_accuracy(prob, tol=1e-10, x0=np.ones(6), y0=np.ones(2))
        assert cert.kkt_residual <= start
        assert cert.certified


class TestExtragradient:
    def test_matches_exact_on_quadratic_games(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            n, d = rng.integers(2, 10), rng.integers(1, 6)
            M = rng.standard_normal((n, n))
            N = rng.standard_normal((d, d))
            P = M @ M.T / n + np.eye(n) * 0.2
            Q = N @ N.T / d + np.eye(d) * 0.2
            C = rng.standard_normal((d, n))
            p, q = rng.standard_normal(n), rng.standard_normal(d)
            part = BlockPartition([n])
            prob = build_quadratic_game(P, Q, C, p, q, part)
            exact = solve_quadratic_game_exact(P, Q, C, p, q)
            it = solve_high_accuracy(prob, tol=1e-10)
            assert it.certified
            assert np.abs(it.x_star - exact.x_star).max() <= 1e-8
            assert np.abs(it.y_star - exact.y_star).max() <= 1e-8

    def test_nonsmooth_terms_supported(self):
        rng = np.random.default_rng(4)
        part = BlockPartition.even(6, 3)
        M = rng.standard_normal((6, 6))
        N = rng.standard_normal((2, 2))
        prob = build_quadratic_game(M @ M.T / 6 + np.eye(6) * 0.5,
                                    N @ N.T / 2 + np.eye(2) * 0.5,
                                    rng.standard_normal((2, 6)),
                                    rng.standard_normal(6), rng.standard_normal(2),
                                    part, f=[L1(0.2)] * 3, h=IndicatorBall(1.0))
        cert = solve_high_accuracy(prob, tol=1e-10)
        assert cert.certified
        assert kkt_residual(prob, cert.x_star, cert.y_star) <= 1e-10

    def test_step_grows_past_a_pessimistic_start(self):
        # a constant 100x too large starts the step 100x too small; the
        # step doubles past that start (8,955 iterations when it could not)
        problem, _, _ = part1_suite_problem()
        L = 100 * estimate_operator_lipschitz(problem)
        cert = solve_high_accuracy(problem, tol=1e-10, L=L, max_iters=1000)
        assert cert.certified
        assert cert.kkt_residual <= 1e-10

    def test_constant_map_certificate_stays_finite(self):
        # C = P = Q = 0: the map is the constant (p, 0), so its drift is 0
        # and no step is ever rejected; the saddle point is the box vertex
        # -sign(p), reached only once the step has grown far past 1e-2
        part = BlockPartition.even(4, 2)
        p = np.array([1e-6, -2e-6, 3e-6, -1e-6])
        prob = build_quadratic_game(np.zeros((4, 4)), np.zeros((2, 2)), np.zeros((2, 4)),
                                    p, np.zeros(2), part, f=[IndicatorBox(-1.0, 1.0)] * 2)
        cert = solve_high_accuracy(prob, tol=1e-10, max_iters=5000)
        assert cert.certified
        assert np.array_equal(cert.x_star, -np.sign(p))
        assert np.array_equal(cert.y_star, np.zeros(2))
        assert cert.kkt_residual == 0.0

    def test_escape_to_infinity_is_not_certified(self):
        # C = P = Q = 0, p = 1, no f or h: no saddle point exists and the
        # iterate escapes at a growing step until x - prox(x - g) rounds
        # to 0; that zero residual is below float64's resolution there
        part = BlockPartition.even(4, 2)
        prob = build_quadratic_game(np.zeros((4, 4)), np.zeros((2, 2)), np.zeros((2, 4)),
                                    np.ones(4), np.zeros(2), part)
        cert = solve_high_accuracy(prob, tol=1e-10, max_iters=20_000)
        assert not cert.certified

    def test_budget_exhaustion_flags_uncertified(self):
        prob = TestKktResidual()._problem()
        cert = solve_high_accuracy(prob, tol=1e-10, max_iters=3)
        assert not cert.certified
        assert cert.kkt_residual > 1e-10

    def test_tolerance_floor(self):
        with pytest.raises(ParameterError):
            solve_high_accuracy(TestKktResidual()._problem(), tol=1e-15)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        cert = solve_quadratic_game_exact(np.eye(2), np.eye(2), np.ones((2, 2)),
                                          np.ones(2), np.ones(2))
        path = tmp_path / "cert.npz"
        save_certificate(path, cert)
        back = load_certificate(path)
        assert np.array_equal(back.x_star, cert.x_star)
        assert np.array_equal(back.y_star, cert.y_star)
        assert back.method == "linear-solve"
        assert back.certified == cert.certified
