import numpy as np
import pytest

from rapd.blockcore import BlockPartition
from rapd.bregman import IndicatorBall, L1, SquaredL2, Zero
from rapd.exceptions import ParameterError
from rapd.problem import (QuadraticMap, ZERO_COUPLING_FLOOR, build_bilinear_erm,
                          build_constrained, build_quadratic_game, grad_check,
                          lipschitz_spot_check, power_norm)
from rapd.oracle import kkt_residual, solve_high_accuracy


class TestPowerNorm:
    def test_against_svd(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            A = rng.standard_normal((rng.integers(1, 8), rng.integers(1, 8)))
            assert power_norm(A) == pytest.approx(np.linalg.svd(A, compute_uv=False)[0],
                                                  rel=1e-8)

    def test_zero_matrix(self):
        assert power_norm(np.zeros((3, 2))) == 0.0


class TestBilinear:
    def test_scalar_oracles(self):
        prob = build_bilinear_erm([np.array([[1.0]])], [Zero()], Zero())
        x, y = np.array([2.0]), np.array([3.0])
        assert prob.phi_value(x, y) == pytest.approx(6.0)
        assert prob.grad_x_block(0, x, y) == pytest.approx([3.0])
        assert prob.grad_y(x, y) == pytest.approx([2.0])

    def test_zero_block_floors_coupling(self):
        prob = build_bilinear_erm([np.zeros((2, 2))], [Zero()], Zero())
        assert prob.constants.L_yx[0] == ZERO_COUPLING_FLOOR
        assert prob.grad_y(np.ones(2), np.zeros(2)) == pytest.approx([0.0, 0.0])

    def test_per_block_coupling_constants(self):
        A = np.array([[1.0, 0.0], [0.0, 2.0]])
        prob = build_bilinear_erm([A[:, :1], A[:, 1:]], [Zero(), Zero()], Zero())
        svd = [np.linalg.svd(A[:, i:i + 1], compute_uv=False)[0] for i in range(2)]
        assert prob.constants.L_yx == pytest.approx(svd)
        assert prob.constants.L_yx == pytest.approx([1.0, 2.0])
        assert prob.constants.L_yy == 0.0
        assert prob.constants.L_xx == pytest.approx([0.0, 0.0])

    def test_contiguous_block_layout(self):
        # one (n, d) copy of the coupling, with each block a contiguous view
        rng = np.random.default_rng(4)
        part = BlockPartition([3, 5, 2])
        A = rng.standard_normal((7, 10))
        inputs = [A[:, sl] for sl in part.slices()]
        prob = build_bilinear_erm(inputs, [Zero()] * 3, Zero(), partition=part)
        for Ai, given in zip(prob.A_blocks, inputs):
            assert np.array_equal(Ai, given)
            assert Ai.flags.f_contiguous
        assert np.array_equal(prob.A, np.hstack(inputs))
        assert not np.shares_memory(prob.A, A)
        assert not any(np.shares_memory(Ai, A) for Ai in prob.A_blocks)

    def test_incremental_dual_gradient(self):
        rng = np.random.default_rng(1)
        part = BlockPartition([2, 3, 1])
        A = rng.standard_normal((4, 6))
        prob = build_bilinear_erm([A[:, sl] for sl in part.slices()],
                                  [Zero()] * 3, Zero(), partition=part)
        for _ in range(1000):
            x = rng.standard_normal(6)
            y = rng.standard_normal(4)
            g = prob.grad_y(x, y)
            i = int(rng.integers(3))
            sl = part.block_slice(i)
            newb = rng.standard_normal(part.sizes[i])
            x2 = x.copy()
            x2[sl] = newb
            fast = prob.grad_y_incremental(g, i, x[sl], newb, y)
            assert np.abs(fast - prob.grad_y(x2, y)).max() <= 1e-10


class TestQuadraticGame:
    def test_pure_bilinear_scalar_saddle_at_origin(self):
        part = BlockPartition([1])
        prob = build_quadratic_game(np.zeros((1, 1)), np.zeros((1, 1)),
                                    np.array([[1.0]]), np.zeros(1), np.zeros(1), part)
        assert kkt_residual(prob, np.zeros(1), np.zeros(1)) <= 1e-14

    def test_hand_kkt_example(self):
        part = BlockPartition([1])
        prob = build_quadratic_game(np.array([[1.0]]), np.array([[1.0]]),
                                    np.array([[2.0]]), np.array([-1.0]),
                                    np.array([1.0]), part)
        # stationarity: x + 2y = 1, 2x - y = 1  ->  (3/5, 1/5)
        assert kkt_residual(prob, np.array([0.6]), np.array([0.2])) <= 1e-12

    def test_linear_in_dual_reports_zero_lyy(self):
        part = BlockPartition([2])
        prob = build_quadratic_game(np.eye(2), np.zeros((2, 2)),
                                    np.ones((2, 2)), np.zeros(2), np.zeros(2), part)
        assert prob.constants.L_yy == 0.0

    def test_asymmetric_rejected(self):
        part = BlockPartition([2])
        P = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ParameterError):
            build_quadratic_game(P, np.zeros((1, 1)), np.ones((1, 2)),
                                 np.zeros(2), np.zeros(1), part)

    def test_indefinite_rejected(self):
        part = BlockPartition([2])
        P = np.diag([1.0, -0.5])
        with pytest.raises(ParameterError):
            build_quadratic_game(P, np.zeros((1, 1)), np.ones((1, 2)),
                                 np.zeros(2), np.zeros(1), part)


class TestGradCheck:
    def test_bilinear_exact(self):
        rng = np.random.default_rng(2)
        part = BlockPartition([2, 2])
        A = rng.standard_normal((3, 4))
        prob = build_bilinear_erm([A[:, sl] for sl in part.slices()],
                                  [Zero()] * 2, Zero(), partition=part)
        assert grad_check(prob, num_points=5, epsilon=1e-5) <= 1e-8

    def test_quadratic_game_accuracy(self):
        rng = np.random.default_rng(3)
        part = BlockPartition([2, 2])
        M = rng.standard_normal((4, 4))
        P = M @ M.T / 4
        prob = build_quadratic_game(P, np.eye(2), rng.standard_normal((2, 4)),
                                    rng.standard_normal(4), rng.standard_normal(2),
                                    part)
        assert grad_check(prob, num_points=5, epsilon=1e-5) <= 1e-6

    def test_detects_corrupted_gradient(self):
        part = BlockPartition([2])
        prob = build_quadratic_game(np.eye(2), np.zeros((1, 1)),
                                    np.ones((1, 2)), np.zeros(2), np.zeros(1), part)
        broken = prob.grad_x_block

        def corrupted(i, x, y):
            g = broken(i, x, y)
            g = g.copy()
            g[0] += 1.0
            return g

        prob.grad_x_block = corrupted
        assert grad_check(prob, num_points=3, epsilon=1e-5) >= 0.1

    def test_epsilon_validated(self):
        part = BlockPartition([1])
        prob = build_quadratic_game(np.eye(1), np.zeros((1, 1)), np.eye(1),
                                    np.zeros(1), np.zeros(1), part)
        with pytest.raises(ParameterError):
            grad_check(prob, epsilon=1e-2)


class TestSmoothnessSpotChecks:
    def _problems(self):
        rng = np.random.default_rng(4)
        part = BlockPartition([2, 3, 3])
        A = rng.standard_normal((4, 8))
        bil = build_bilinear_erm([A[:, sl] for sl in part.slices()],
                                 [Zero()] * 3, Zero(), partition=part)
        M = rng.standard_normal((8, 8))
        N = rng.standard_normal((4, 4))
        quad = build_quadratic_game(M @ M.T / 8, N @ N.T / 4,
                                    rng.standard_normal((4, 8)),
                                    rng.standard_normal(8),
                                    rng.standard_normal(4), part)
        return [bil, quad]

    def test_all_bounds_hold(self):
        for prob in self._problems():
            out = lipschitz_spot_check(prob, draws=1000, seed=0)
            for name, slack in out.items():
                assert slack >= -1e-8, (type(prob).__name__, name, slack)


class TestConstrained:
    def _scalar_problem(self, B=10.0):
        # min 0.5 x^2  s.t.  x - 1 <= 0; multiplier cone is the orthant
        part = BlockPartition([1])
        gmap = QuadraticMap(linear=np.array([[1.0]]), offset=np.array([-1.0]))
        return build_constrained((np.array([[1.0]]), np.zeros(1)), gmap,
                                 "nonneg", B, part)

    def test_affine_constants_ignore_dual_bound(self):
        p1 = self._scalar_problem(B=10.0)
        p2 = self._scalar_problem(B=1000.0)
        assert p1.constants.L_xx == pytest.approx(p2.constants.L_xx)
        assert p1.constants.L_xx == pytest.approx([1.0])  # = L(g) only
        assert p1.constants.L_yx == pytest.approx([1.0])
        assert p1.constants.L_yy == 0.0

    def test_scalar_kkt_solution(self):
        # unconstrained minimum x = 0 already satisfies x <= 1: saddle (0, 0)
        prob = self._scalar_problem()
        assert kkt_residual(prob, np.zeros(1), np.zeros(1)) <= 1e-12
        cert = solve_high_accuracy(prob, tol=1e-10)
        assert cert.certified
        assert abs(cert.x_star[0]) <= 1e-8 and abs(cert.y_star[0]) <= 1e-8

    def test_active_constraint_multiplier(self):
        # min 0.5 (x - 3)^2 s.t. x <= 1: solution x = 1, multiplier y = 2
        part = BlockPartition([1])
        gmap = QuadraticMap(linear=np.array([[1.0]]), offset=np.array([-1.0]))
        prob = build_constrained((np.array([[1.0]]), np.array([-3.0])), gmap,
                                 "nonneg", 10.0, part)
        assert kkt_residual(prob, np.array([1.0]), np.array([2.0])) <= 1e-12
        cert = solve_high_accuracy(prob, tol=1e-10)
        assert cert.x_star[0] == pytest.approx(1.0, abs=1e-7)
        assert cert.y_star[0] == pytest.approx(2.0, abs=1e-7)

    def test_bad_bound_rejected(self):
        with pytest.raises(ParameterError):
            self._scalar_problem(B=0.0)

    def test_unsupported_cone(self):
        part = BlockPartition([1])
        gmap = QuadraticMap(linear=np.array([[1.0]]), offset=np.zeros(1))
        with pytest.raises(ParameterError):
            build_constrained((np.eye(1), np.zeros(1)), gmap, "soc", 1.0, part)

    def test_quadratic_map_needs_radius(self):
        with pytest.raises(ParameterError):
            QuadraticMap(linear=np.ones((1, 2)), offset=np.zeros(1),
                         quadratics=[np.eye(2)])

    def test_quadratic_map_spot_check(self):
        part = BlockPartition([1, 1])
        gmap = QuadraticMap(linear=np.array([[0.5, -0.2]]), offset=np.array([-1.0]),
                            quadratics=[np.eye(2) * 0.3], x_radius=2.0)
        prob = build_constrained((np.eye(2), np.zeros(2)), gmap, "nonneg", 5.0, part)

        def project(x):
            nrm = np.linalg.norm(x)
            return x if nrm <= 2.0 else x * (2.0 / nrm)

        out = lipschitz_spot_check(prob, draws=500, seed=1, x_scale=0.8,
                                   v_scale=0.5, project_x=project)
        assert out["L_yx"] >= -1e-8
        assert out["L_xx"] >= -1e-8
