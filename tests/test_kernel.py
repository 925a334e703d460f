import numpy as np
import pytest

from rapd.blockcore import BlockPartition
from rapd.exceptions import DimensionError, DomainError, ParameterError
from rapd.harness.suites import time_to_target
from rapd.kernel_learning import (DESK_SETTINGS, KernelProblem, build_kernel_problem,
                                  default_dual_bound, dual_start, gershgorin_floor, gram_matrix,
                                  kernel_desk, kernel_eval, normalize_gram, synth_dataset)
from rapd.oracle import solve_high_accuracy
from rapd.problem import grad_check, lipschitz_spot_check
from rapd.solver import RunOptions, run
from rapd.stepsize import default_alpha, part1_schedule, part2_init


def small_problem(**kw):
    ds = synth_dataset(n_tr=60, d=4, seed=2)
    return ds, build_kernel_problem(ds, lam=1.0, m_blocks=4, **kw)


def region_spot_check(prob, fraction):
    """Spot check on ``fraction`` of the region the coupling constants are
    stated for: points ``~B/sqrt(n)`` per coordinate, which the check
    projects into the nonnegative B-ball, block moves ``~B/m`` in norm."""
    n, m = prob.partition.n, prob.partition.m
    return lipschitz_spot_check(
        prob, draws=500, seed=0, x_scale=fraction * prob.B / np.sqrt(n),
        v_scale=fraction * prob.B / m / np.sqrt(prob.partition.sizes[0]))


class TestKernelEval:
    def test_poly2_at_origin(self):
        assert kernel_eval("poly2", np.zeros(3), np.zeros(3)) == pytest.approx(1.0)

    def test_gauss_diagonal(self):
        a = np.array([0.3, -1.2])
        assert kernel_eval("gauss", a, a) == pytest.approx(1.0)

    def test_poly2_plugin(self):
        assert kernel_eval("poly2", np.array([1.0, 0.0]),
                           np.array([1.0, 1.0])) == pytest.approx(4.0)

    def test_linear(self):
        assert kernel_eval("linear", np.array([1.0, 2.0]),
                           np.array([3.0, -1.0])) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            kernel_eval("poly2", np.zeros(2), np.zeros(3))

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            kernel_eval("cubic", np.zeros(2), np.zeros(2))

    def test_gram_matches_pointwise(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((7, 3))
        for kind in ("poly2", "gauss", "linear"):
            K = gram_matrix(kind, pts)
            for i in range(7):
                for j in range(7):
                    assert K[i, j] == pytest.approx(
                        kernel_eval(kind, pts[i], pts[j]), rel=1e-10, abs=1e-12)


class TestGramHandling:
    def test_label_conjugation(self):
        K = np.array([[1.0, 0.5], [0.5, 1.0]])
        b = np.array([1.0, -1.0])
        G = np.outer(b, b) * K
        assert np.allclose(G, [[1.0, -0.5], [-0.5, 1.0]])

    def test_normalization_unit_diagonal(self):
        K = np.array([[4.0, 1.0], [1.0, 1.0]])
        N = normalize_gram(K)
        assert np.allclose(np.diag(N), 1.0)
        assert N[0, 1] == pytest.approx(1.0 / np.sqrt(4.0))

    def test_normalization_guards_zero_diagonal(self):
        with pytest.raises(DomainError):
            normalize_gram(np.array([[0.0, 0.0], [0.0, 1.0]]))

    def test_normalized_grams_psd(self):
        ds, prob = small_problem()
        for kind in ("poly2", "gauss", "linear"):
            K = normalize_gram(gram_matrix(kind, ds.points))
            assert np.linalg.eigvalsh(K).min() >= -1e-8

    def test_traces_equal_size_after_normalization(self):
        ds, prob = small_problem()
        assert prob.r == pytest.approx([ds.n_tr] * 3)
        assert prob.c == pytest.approx(3 * ds.n_tr)
        assert prob.coef == pytest.approx([3.0, 3.0, 3.0])


class TestSynthDataset:
    def test_deterministic(self):
        a = synth_dataset(50, 3, seed=9)
        b = synth_dataset(50, 3, seed=9)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_balanced_split(self):
        ds = synth_dataset(200, 10, seed=1, separation=2.0)
        assert (ds.labels == 1).sum() == 100
        assert (ds.labels == -1).sum() == 100

    def test_zero_separation_symmetric_construction(self):
        ds = synth_dataset(100, 5, seed=3, separation=0.0)
        # both clusters drawn from the same law: means statistically close
        mu_pos = ds.points[ds.labels == 1].mean(axis=0)
        mu_neg = ds.points[ds.labels == -1].mean(axis=0)
        assert np.linalg.norm(mu_pos - mu_neg) <= 1.0

    def test_separation_moves_first_coordinate(self):
        ds = synth_dataset(200, 4, seed=5, separation=3.0)
        mu_pos = ds.points[ds.labels == 1].mean(axis=0)
        mu_neg = ds.points[ds.labels == -1].mean(axis=0)
        assert mu_pos[0] - mu_neg[0] > 4.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            synth_dataset(5, 4)
        with pytest.raises(ParameterError):
            synth_dataset(50, 1)


class TestProblemAssembly:
    def test_dual_bound_default(self):
        # by hand: the first Gram's Gershgorin rows are 1 - 0.5, 1 - 0.3 and
        # 1 - 0.4, the second's 1 - 1.6 clip at 0, and coef = (2, 2), so
        # kappa = 2 * 0.5 and B = sqrt(3) / (lam + 1)
        G = np.array([[[1.0, 0.2, -0.3], [0.2, 1.0, 0.1], [-0.3, 0.1, 1.0]],
                      [[1.0, 0.8, 0.8], [0.8, 1.0, -0.8], [0.8, -0.8, 1.0]]])
        assert gershgorin_floor(G) == pytest.approx([0.5, 0.0])
        assert default_dual_bound(G, np.array([2.0, 2.0]), 1.0) == pytest.approx(np.sqrt(3) / 2)
        assert default_dual_bound(G, np.array([1.0, 4.0]), 0.5) == pytest.approx(np.sqrt(3))
        # the desk: the Gaussian Gram's bound 0.9997 at coef 3, lam = 1
        problem = kernel_desk()[0]
        assert problem.B == pytest.approx(np.sqrt(200) / (1.0 + 3 * 0.99971432), abs=1e-6)
        assert problem.B == pytest.approx(3.536, abs=5e-4)

    def test_mapping_fidelity_against_raw_formula(self):
        ds, prob = small_problem()
        rng = np.random.default_rng(4)
        grams = [normalize_gram(gram_matrix(kind, ds.points))
                 for kind in ("poly2", "gauss", "linear")]
        b = ds.labels
        r = np.array([np.trace(K) for K in grams])
        c = r.sum()
        for _ in range(20):
            x = np.abs(rng.standard_normal(60))
            y = rng.dirichlet(np.ones(3))
            z = float(rng.standard_normal())
            expect = -2.0 * x.sum() + z * float(b @ x)
            for l, K in enumerate(grams):
                G = np.diag(b) @ K @ np.diag(b)
                expect += (c / r[l]) * y[l] * float(x @ (G @ x))
            got = prob.phi_value(x, np.concatenate([y, [z]]))
            assert got == pytest.approx(expect, rel=1e-10)

    def test_grad_check(self):
        ds, prob = small_problem()
        assert grad_check(prob, num_points=4, epsilon=1e-5) <= 1e-6

    def test_modulus_folding(self):
        ds, prob = small_problem()
        assert np.all(prob.constants.mu == 2.0)   # 2 * lam
        assert prob.constants.L_yy == 0.0

    def test_stacked_gram_layout(self):
        ds, prob = small_problem()
        G = prob.G_list
        assert isinstance(G, np.ndarray) and G.shape == (3, 60, 60)
        # stored once, in block-row order: the (M, n, n) view of a C-ordered
        # (n, M, n) array
        assert G.transpose(1, 0, 2).flags.c_contiguous
        b = ds.labels
        expect = np.stack([np.outer(b, b) * normalize_gram(gram_matrix(kind, ds.points))
                           for kind in ("poly2", "gauss", "linear")])
        assert np.array_equal(G, expect)

    def test_smoothness_spot_check_in_validity_region(self):
        ds, prob = small_problem()
        for fraction in (0.5, 1.0):
            out = region_spot_check(prob, fraction)
            for name, slack in out.items():
                assert slack >= -1e-8, (fraction, name, slack)

    def test_full_scale_spot_check_catches_deflation(self):
        # the 0.1 deflation the kernel suite runs at is not a valid coupling
        # bound on the region: in the dual norm, half scale sees it too
        ds, prob = small_problem(lipschitz_scale=0.1)
        for fraction in (0.5, 1.0):
            assert region_spot_check(prob, fraction)["L_yx"] < 0, fraction

    def test_l_xx_follows_unequal_traces(self):
        # traces other than n make the mixing coefficients c / r_l unequal
        # (2.25, 2.25, 9); L_xx follows them where a fixed 2 * 3 would not
        base = build_kernel_problem(synth_dataset(n_tr=40, d=10, seed=0), lam=1.0,
                                    m_blocks=4)
        prob = KernelProblem(base.G_list, base.b, 1.0, [40.0, 40.0, 10.0], base.partition,
                             base.B)
        out = lipschitz_spot_check(prob, draws=300, x_scale=0.1)
        assert out["L_xx"] >= 0 and out["convexity_hi"] >= 0, out

    def test_partition_of_another_dimension_rejected(self):
        # a 20-point problem on 24 coordinates would read its constants off
        # a truncated last block; on 16 it would leave points out
        base = build_kernel_problem(synth_dataset(n_tr=20, d=3, seed=1), lam=1.0, m_blocks=4)
        for n in (24, 16):
            with pytest.raises(DimensionError, match=f"partition of {n} coordinates for 20"):
                KernelProblem(base.G_list, base.b, 1.0, base.r, BlockPartition.even(n, 4),
                              base.B)

    def test_dual_start_interior(self):
        ds, prob = small_problem()
        y0 = dual_start(prob)
        assert y0[:3] == pytest.approx([1 / 3] * 3)
        assert y0[3] == 0.0

    def test_entropy_and_euclidean_geometries(self):
        _, p_ent = small_problem(dual_geometry="entropy")
        _, p_euc = small_problem(dual_geometry="euclidean")
        assert p_ent.dual_geometry.kind == "product"
        assert p_euc.dual_geometry.kind == "euclidean"
        with pytest.raises(ParameterError):
            small_problem(dual_geometry="spectral")

    def test_lipschitz_scale(self):
        _, p1 = small_problem()
        _, p01 = small_problem(lipschitz_scale=0.1)
        assert np.array_equal(p01.constants.L_xx, p1.constants.L_xx * 0.1)
        assert np.array_equal(p01.constants.L_yx, p1.constants.L_yx * 0.1)
        assert p01.constants.L_yy == p1.constants.L_yy * 0.1
        assert np.array_equal(p01.constants.mu, p1.constants.mu)

    def test_lam_validated(self):
        ds = synth_dataset(60, 4, seed=2)
        with pytest.raises(ParameterError):
            build_kernel_problem(ds, lam=0.0)

    def test_lipschitz_scale_validated(self):
        for scale in (0.0, -0.1):
            with pytest.raises(ParameterError, match="Lipschitz scale must be > 0"):
                small_problem(lipschitz_scale=scale)



def test_kernel_desk_is_the_benchmark_instance():
    # the instance perfbench's KernelDesk builds, bit for bit
    problem, x0, y0, _ = kernel_desk()
    ref = build_kernel_problem(synth_dataset(n_tr=200, d=10, seed=7), lam=1.0,
                               m_blocks=10, dual_geometry="entropy", lipschitz_scale=0.1)

    def same_bits(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    assert same_bits(problem.G_list, ref.G_list)
    for name in ("L_xx", "L_yx", "mu"):
        assert same_bits(getattr(problem.constants, name), getattr(ref.constants, name))
    assert same_bits(x0, np.zeros(200))
    assert same_bits(y0, dual_start(ref))


class TestDualNormConstant:
    """The premises and the outcome of ``L_yx`` in the dual geometry's norm
    (see the ``kernel_learning`` module docstring)."""

    @staticmethod
    def desk_problem(dual):
        s = DESK_SETTINGS
        ds = synth_dataset(n_tr=200, d=s["d"], seed=s["dataset_seed"])
        return build_kernel_problem(ds, lam=s["lam"], m_blocks=10, dual_geometry=dual)

    def test_gradient_change_identity(self):
        # grad_y(x+, y) - grad_y(x, y) = (coef_l v'G_l[sl, :](x + x+), b_sl'v)
        rng = np.random.default_rng(5)
        for dual in ("entropy", "euclidean"):
            _, prob = small_problem(dual_geometry=dual)
            for _ in range(20):
                x = prob.project_primal_domain(rng.standard_normal(60) * prob.B / np.sqrt(60))
                y = dual_start(prob)
                i = int(rng.integers(prob.partition.m))
                sl = prob.partition.block_slice(i)
                v = rng.standard_normal(sl.stop - sl.start)
                xv = x.copy()
                xv[sl] += v
                change = prob.grad_y(xv, y) - prob.grad_y(x, y)
                expect = np.append([prob.coef[l] * v @ (G[sl, :] @ (x + xv))
                                    for l, G in enumerate(prob.G_list)], prob.b[sl] @ v)
                assert np.abs(change - expect).max() <= 1e-12 * np.abs(expect).max(), dual

    @pytest.mark.parametrize("dual", ["entropy", "euclidean"])
    def test_radius_premises_hold_at_the_certificate(self, dual):
        # the steps of default_dual_bound, on the certified saddle point of
        # the desk and of the n = 60 instance
        for prob in (self.desk_problem(dual), small_problem(dual_geometry=dual)[1]):
            cert = solve_high_accuracy(prob, tol=1e-10)
            assert cert.certified
            x, y = cert.x_star, cert.y_star[:prob.M]
            xn = float(np.linalg.norm(x))
            assert abs(prob.b @ x) <= 1e-8 * xn
            Q = sum(prob.coef[l] * y[l] * G for l, G in enumerate(prob.G_list))
            quad = x @ Q @ x
            euler = prob.lam * xn ** 2 + quad
            assert euler == pytest.approx(x.sum(), rel=1e-8)
            # y* maximizes x*'Q(y) x* over the simplex, and the curvature term:
            # x*'Q(y*) x* >= max_l coef_l lambda_lo(G_l) ||x*||^2, lambda_lo a lower
            # bound on each Gram's spectrum up to eigvalsh's rounding
            best = max(prob.coef[l] * x @ G @ x for l, G in enumerate(prob.G_list))
            assert quad == pytest.approx(best, rel=1e-8)
            lo = gershgorin_floor(prob.G_list)
            assert quad >= (prob.coef * lo).max() * xn ** 2 * (1.0 - 1e-8)
            for lo_l, G in zip(lo, prob.G_list):
                eig = np.linalg.eigvalsh(G)
                assert lo_l <= eig[0] + 1e-12 * eig[-1], (lo_l, eig[0])
            assert xn <= prob.B

    def test_desk_iterates_stay_in_the_ball(self):
        # the premise ||x + x+|| <= 2B: both regimes' iterates on the desk,
        # up to the stop of the kernel suite's time-to-target rule
        problem, x0, y0, _ = kernel_desk()
        x_star = solve_high_accuracy(problem, tol=1e-10, x0=x0, y0=y0).x_star
        c, m = problem.constants, problem.partition.m
        for sched in (part1_schedule(c, m, default_alpha(c)), part2_init(c, m, default_alpha(c))):
            k_stop, _, x_stop = time_to_target(problem, sched, x_star, 1, x0, y0)
            worst = [0.0, 0.0]

            def hook(k, x, y, worst=worst):
                worst[0] = max(worst[0], float(np.linalg.norm(x)))
                worst[1] = min(worst[1], float(x.min()))

            trace = run(problem, sched, k_stop, 1, x0=x0, y0=y0,
                        options=RunOptions(iterate_hook=hook))
            assert np.array_equal(trace.final_x, x_stop)   # the run the suite stopped
            assert worst[0] <= problem.B and worst[1] >= 0.0, worst

    def test_spot_check_passes_in_the_dual_norm(self):
        # at full region scale and at the check's unit scale, on the desk and
        # on the n = 60 instance
        for dual in ("entropy", "euclidean"):
            for prob in (self.desk_problem(dual), small_problem(dual_geometry=dual)[1]):
                for out in (region_spot_check(prob, 1.0), lipschitz_spot_check(prob, draws=500)):
                    assert out["L_yx"] >= 0, (dual, prob.partition.n, out)
