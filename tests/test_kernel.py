import numpy as np
import pytest

from rapd.exceptions import DimensionError, DomainError, ParameterError
from rapd.kernel_learning import (build_kernel_problem, default_dual_bound,
                                  dual_start, gram_matrix, kernel_eval,
                                  normalize_gram, synth_dataset)
from rapd.problem import grad_check, lipschitz_spot_check


def small_problem(**kw):
    ds = synth_dataset(n_tr=60, d=4, seed=2)
    return ds, build_kernel_problem(ds, lam=1.0, m_blocks=4, **kw)


def region_spot_check(prob, fraction):
    """Spot check on ``fraction`` of the region the coupling constants are
    stated for: points ``~B/sqrt(n)`` per coordinate projected into the
    nonnegative B-ball, block moves ``~B/m`` in norm."""
    n, m = prob.partition.n, prob.partition.m
    return lipschitz_spot_check(
        prob, draws=500, seed=0, x_scale=fraction * prob.B / np.sqrt(n),
        v_scale=fraction * prob.B / m / np.sqrt(prob.partition.sizes[0]),
        project_x=prob.project_primal_domain)


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
        assert default_dual_bound(200, 1.0) == pytest.approx(2 * np.sqrt(200))
        ds, prob = small_problem()
        assert prob.B == pytest.approx(2 * np.sqrt(60))

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
        assert G.flags.c_contiguous
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
        # bound on the full region; half scale does not see it in L_yx
        ds, prob = small_problem(lipschitz_scale=0.1)
        assert region_spot_check(prob, 0.5)["L_yx"] > 0
        assert region_spot_check(prob, 1.0)["L_yx"] < 0

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
        assert p01.constants.L_xx == pytest.approx(p1.constants.L_xx * 0.1)
        assert p01.constants.L_yx == pytest.approx(p1.constants.L_yx * 0.1)
        assert np.array_equal(p01.constants.mu, p1.constants.mu)

    def test_lam_validated(self):
        ds = synth_dataset(60, 4, seed=2)
        with pytest.raises(ParameterError):
            build_kernel_problem(ds, lam=0.0)

