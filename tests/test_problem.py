import numpy as np
import pytest

from rapd.blockcore import BlockPartition
from rapd.bregman import ConeDualBall, Zero
from rapd.exceptions import ParameterError
from rapd.harness.config import parse_config
from rapd.harness.suites import (bilinear_game, build_problem_from_config,
                                 part1_suite_problem, part2_suite_problem)
from rapd.kernel_learning import (KernelProblem, build_kernel_problem, dual_start,
                                  synth_dataset)
from rapd.problem import (BilinearProblem, QuadraticGameProblem, ZERO_COUPLING_FLOOR,
                          build_bilinear_erm, build_constrained, build_quadratic_game,
                          grad_check, lipschitz_spot_check, spectral_norm)
from rapd.oracle import kkt_residual, solve_high_accuracy


def config_problem(kind, n=12, m=3):
    """The ``rapd run`` builder's problem of type ``kind``, with ``f`` and
    ``h`` set where the type reads them."""
    f = "" if kind == "kernel" else "problem.f = l1\nproblem.f_param = 0.1\n"
    h = "" if kind in ("kernel", "constrained") else "problem.h = ball\nproblem.h_param = 1.0\n"
    return build_problem_from_config(parse_config(
        f"problem.type = {kind}\nproblem.seed = 3\nproblem.n = {n}\nproblem.d = 4\n"
        f"problem.blocks = {m}\n{f}{h}method.name = rapd1\n"
        "run.K = 10\nrun.seeds = 0\noutput.dir = out\n"))[0]


def four_couplings():
    """One problem of each coupling type, with a dual point in dom h; the
    bilinear one carries both linear terms and the quadratic game a
    curved dual."""
    rng = np.random.default_rng(21)
    part = BlockPartition([2, 3, 1, 4])
    A = rng.standard_normal((5, 10))
    bil = build_bilinear_erm([A[:, sl] for sl in part.slices()], [Zero()] * 4, Zero(),
                             partition=part, p=rng.standard_normal(10),
                             q=rng.standard_normal(5))
    M, N = rng.standard_normal((10, 10)), rng.standard_normal((5, 5))
    quad = build_quadratic_game(M @ M.T / 10, N @ N.T / 5, rng.standard_normal((5, 10)),
                                rng.standard_normal(10), rng.standard_normal(5), part)
    kern = build_kernel_problem(synth_dataset(n_tr=40, d=3, seed=2), lam=1.0, m_blocks=4)
    return [(bil, rng.standard_normal(5)), (quad, rng.standard_normal(5)),
            (config_problem("constrained"), np.abs(rng.standard_normal(4))),
            (kern, dual_start(kern))]


class TestSpectralNorm:
    def test_against_svd(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            A = rng.standard_normal((rng.integers(1, 8), rng.integers(1, 8)))
            assert spectral_norm(A) == pytest.approx(
                np.linalg.svd(A, compute_uv=False)[0], rel=1e-12)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 2))) == 0.0

    def test_shipped_builders_cover_exact_norms(self):
        # the step sizes trust these constants, so no norm in them may
        # under-estimate; the power iteration this replaced read down to
        # 0.9965 of the exact norm on 512 x 64 blocks
        def two(M):
            return float(np.linalg.norm(M, 2))

        problems = [config_problem(kind) for kind in
                    ("quadratic_game", "bilinear_erm", "constrained", "kernel")]
        problems += [part1_suite_problem()[0], part2_suite_problem()[0],
                     bilinear_game(instance_seed=0, m=2)[0]]
        for prob in problems:
            c, slices = prob.constants, prob.partition.slices()
            if isinstance(prob, BilinearProblem):
                L_xx, L_yx, L_yy = 0.0 * c.L_xx, [two(A) for A in prob.A_blocks], 0.0
            elif isinstance(prob, KernelProblem):
                col = np.array([[two(G[:, sl]) for sl in slices] for G in prob.G_list])
                diag = np.array([[two(G[sl, sl]) for sl in slices] for G in prob.G_list])
                L_xx = 6.0 * col.max(axis=0)
                L_yx = 6.0 * np.sqrt(prob.M) * prob.B * (col + diag / len(slices)).max(axis=0)
                L_yy = 0.0
            else:
                L_xx = [two(prob.P[:, sl]) for sl in slices]
                L_yx = [two(prob.C[:, sl]) for sl in slices]
                L_yy = two(prob.Q)
            name = type(prob).__name__
            assert np.all(c.L_xx >= np.asarray(L_xx) * (1 - 1e-12)), name
            assert np.all(c.L_yx >= np.asarray(L_yx) * (1 - 1e-12)), name
            assert c.L_yy >= L_yy * (1 - 1e-12), name


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
        # every coupling: 5000 random block steps on the cached primal
        # product stay within 1e-12 (relative) of a fresh product, and the
        # gradients read off it match the stateless oracles
        rng = np.random.default_rng(1)
        for prob, y in four_couplings():
            part = prob.partition
            x = np.abs(rng.standard_normal(part.n))
            w = prob.primal_product(x)
            for _ in range(5000):
                i = int(rng.integers(part.m))
                sl = part.block_slice(i)
                new = np.abs(rng.standard_normal(part.sizes[i]))
                prob.grad_y_incremental(w, i, new - x[sl])
                x[sl] = new
            fresh = prob.primal_product(x)
            name = type(prob).__name__
            assert np.linalg.norm(w - fresh) <= 1e-12 * np.linalg.norm(fresh), name
            g = prob.grad_y_cached(w, x, y)
            assert not np.shares_memory(g, w), name
            assert np.linalg.norm(g - prob.grad_y(x, y)) <= 1e-12 * np.linalg.norm(g), name
            for i in range(part.m):
                gi = prob.grad_x_block(i, x, y)
                assert np.linalg.norm(prob.grad_x_block_cached(i, w, x, y) - gi) \
                    <= 1e-12 * max(1.0, np.linalg.norm(gi)), name


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
        return build_constrained(np.array([[1.0]]), np.zeros(1), np.array([[1.0]]),
                                 np.array([-1.0]), B, BlockPartition([1]))

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
        prob = build_constrained(np.array([[1.0]]), np.array([-3.0]), np.array([[1.0]]),
                                 np.array([-1.0]), 10.0, BlockPartition([1]))
        assert kkt_residual(prob, np.array([1.0]), np.array([2.0])) <= 1e-12
        cert = solve_high_accuracy(prob, tol=1e-10)
        assert cert.x_star[0] == pytest.approx(1.0, abs=1e-7)
        assert cert.y_star[0] == pytest.approx(2.0, abs=1e-7)

    def test_quadratic_game_with_capped_orthant(self):
        prob = self._scalar_problem(B=7.0)
        assert isinstance(prob, QuadraticGameProblem)
        assert np.array_equal(prob.Q, np.zeros((1, 1)))
        assert np.array_equal(prob.q, [1.0])
        assert isinstance(prob.h, ConeDualBall) and prob.h.bound == 7.0

    def test_bad_bound_rejected(self):
        with pytest.raises(ParameterError):
            self._scalar_problem(B=0.0)

    def test_unsupported_cone(self):
        with pytest.raises(ParameterError):
            ConeDualBall("soc", 1.0)
