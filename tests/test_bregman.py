import numpy as np
import pytest

from rapd import bregman
from rapd.bregman import (ConeDualBall, EntropyGeometry, EuclideanGeometry,
                          IndicatorBall, IndicatorBox, IndicatorNonneg,
                          IndicatorSimplex, L1, NonnegQuadratic,
                          ProductGeometry, Separable, SquaredL2, Zero,
                          bregman_dist, bregman_prox, project_simplex,
                          three_point_check)
from rapd.exceptions import DimensionError, DomainError, ParameterError


def brute_force_prox_1d(f_value, t, s, xbar, lo=-50.0, hi=50.0):
    """Grid + refinement minimizer of f(x) + s*x + (x - xbar)^2/(2t),
    the objective bregman_prox solves (scaled by t)."""
    def obj_at(v):
        return t * f_value(v) + t * s * v + 0.5 * (v - xbar) ** 2

    xs = np.linspace(lo, hi, 20001)
    obj = np.array([obj_at(v) for v in xs])
    i = int(np.argmin(obj))
    lo2, hi2 = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    xs = np.linspace(lo2, hi2, 20001)
    obj = np.array([obj_at(v) for v in xs])
    return float(xs[int(np.argmin(obj))])


class TestDistances:
    def test_euclidean_identity_of_indiscernibles(self):
        g = EuclideanGeometry(2)
        u = np.array([1.3, -2.0])
        assert bregman_dist(g, u, u) == 0.0

    def test_euclidean_half_square(self):
        g = EuclideanGeometry(2)
        assert bregman_dist(g, np.array([1.0, 0.0]), np.zeros(2)) == pytest.approx(0.5)

    def test_entropy_kl_value(self):
        # 0.5*ln 2 + 0.5*ln(2/3), evaluated independently
        g = EntropyGeometry(2)
        got = bregman_dist(g, np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        assert got == pytest.approx(0.5 * np.log(2) + 0.5 * np.log(2 / 3), abs=1e-12)
        assert got == pytest.approx(0.1438410362258904, abs=1e-12)

    def test_entropy_domain_error(self):
        g = EntropyGeometry(2)
        with pytest.raises(DomainError):
            bregman_dist(g, np.array([0.5, 0.5]), np.array([0.0, 1.0]))

    def test_entropy_zero_times_log_zero(self):
        g = EntropyGeometry(2)
        got = bregman_dist(g, np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert np.isfinite(got) and got >= 0

    def test_strong_convexity_euclidean(self):
        g = EuclideanGeometry(3)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            u, v = rng.standard_normal(3), rng.standard_normal(3)
            assert bregman_dist(g, u, v) - 0.5 * np.sum((u - v) ** 2) >= -1e-10

    def test_strong_convexity_entropy_on_simplex(self):
        # Pinsker: KL(u, v) >= 0.5 ||u - v||_1^2 on the simplex
        g = EntropyGeometry(4)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            u, v = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
            assert bregman_dist(g, u, v) - 0.5 * np.abs(u - v).sum() ** 2 >= -1e-10


class TestProx:
    def test_zero_closed_form(self):
        g = EuclideanGeometry(1)
        out = bregman_prox(g, Zero(), 0.1, np.array([-20.0]), np.array([1.0]))
        assert out == pytest.approx([3.0])

    def test_l1_against_grid(self):
        g = EuclideanGeometry(1)
        out = bregman_prox(g, L1(1.0), 0.5, np.array([2.0]), np.array([1.0]))
        assert out == pytest.approx([0.0], abs=1e-12)
        ref = brute_force_prox_1d(lambda v: abs(v), 0.5, 2.0, 1.0)
        assert out == pytest.approx([ref], abs=1e-3)

    def test_simplex_symmetry(self):
        g = EuclideanGeometry(2)
        out = bregman_prox(g, IndicatorSimplex(1.0), 1.0, np.zeros(2),
                           np.array([0.6, 0.6]))
        assert out == pytest.approx([0.5, 0.5])

    def test_random_1d_kinds_against_grid(self):
        rng = np.random.default_rng(3)
        g = EuclideanGeometry(1)
        kinds = [
            (L1(0.7), lambda v: 0.7 * abs(v)),
            (SquaredL2(0.4), lambda v: 0.4 * v * v),
            (NonnegQuadratic(0.6), lambda v: 0.6 * v * v if v >= 0 else np.inf),
            (IndicatorNonneg(), lambda v: 0.0 if v >= -1e-9 else np.inf),
            (IndicatorBox(-1.0, 2.0), lambda v: 0.0 if -1 - 1e-9 <= v <= 2 + 1e-9 else np.inf),
        ]
        for f, fv in kinds:
            for _ in range(20):
                t = 10 ** rng.uniform(-1, 0.7)
                s = rng.standard_normal() * 2
                xb = rng.standard_normal() * 2
                got = bregman_prox(g, f, t, np.array([s]), np.array([xb]))[0]
                ref = brute_force_prox_1d(fv, t, s, xb)
                assert got == pytest.approx(ref, abs=2e-3), (f.kind, t, s, xb)

    def test_entropy_simplex_multiplicative(self):
        g = EntropyGeometry(2)
        out = bregman_prox(g, IndicatorSimplex(1.0), 1.0,
                           np.array([-np.log(2.0), 0.0]), np.array([0.5, 0.5]))
        assert out == pytest.approx([2 / 3, 1 / 3])

    def test_nonpositive_step_rejected(self):
        g = EuclideanGeometry(1)
        with pytest.raises(ParameterError):
            bregman_prox(g, Zero(), 0.0, np.zeros(1), np.zeros(1))

    def test_entropy_center_domain(self):
        g = EntropyGeometry(2)
        with pytest.raises(DomainError):
            bregman_prox(g, IndicatorSimplex(1.0), 1.0, np.zeros(2),
                         np.array([0.0, 1.0]))

    def test_ball_and_cone_projections(self):
        g = EuclideanGeometry(3)
        u = np.array([3.0, -4.0, 0.0])
        out = bregman_prox(g, IndicatorBall(1.0), 1.0, np.zeros(3), u)
        assert np.linalg.norm(out) == pytest.approx(1.0)
        out = bregman_prox(g, ConeDualBall("nonneg", 2.0), 1.0, np.zeros(3), u)
        assert out == pytest.approx([2.0, 0.0, 0.0])

    def test_cone_dual_ball_optimality(self):
        # projection characterization: <u - w, v - w> <= 0 for feasible v
        rng = np.random.default_rng(4)
        f = ConeDualBall("nonneg", 1.5)
        g = EuclideanGeometry(4)
        for _ in range(200):
            u = rng.standard_normal(4) * 3
            w = bregman_prox(g, f, 1.0, np.zeros(4), u)
            for _ in range(20):
                v = f.project_domain(rng.standard_normal(4) * 3)
                assert float((u - w) @ (v - w)) <= 1e-9

    def test_simplex_projection_feasibility_and_optimality(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            scale = float(10 ** rng.uniform(-1, 1))
            u = rng.standard_normal(n) * 3
            w = project_simplex(u, scale)
            assert w.min() >= -1e-15
            assert w.sum() == pytest.approx(scale, rel=1e-12)
            for _ in range(10):
                v = rng.dirichlet(np.ones(n)) * scale
                assert float((u - w) @ (v - w)) <= 1e-9

    def test_prox_optimality_under_perturbation(self):
        # objective at x+ is within 1e-8 of every feasible perturbation
        rng = np.random.default_rng(6)
        g = EuclideanGeometry(3)
        fns = [Zero(), L1(0.5), SquaredL2(0.3), IndicatorNonneg(),
               IndicatorBall(1.0), IndicatorSimplex(1.0), NonnegQuadratic(0.2),
               ConeDualBall("nonneg", 1.0), IndicatorBox(-0.5, 0.5)]
        for f in fns:
            for _ in range(50):
                t = 10 ** rng.uniform(-1, 0.5)
                s = rng.standard_normal(3)
                xb = f.project_domain(rng.standard_normal(3))
                if f.kind == "indicator-simplex":
                    xb = f.project_domain(np.abs(xb) + 1e-3)
                xp = bregman_prox(g, f, t, s, xb)

                def obj(v):
                    return (t * f.value(v) + t * float(s @ v)
                            + 0.5 * float((v - xb) @ (v - xb)))

                base = obj(xp)
                for _ in range(10):
                    d = rng.standard_normal(3)
                    cand = f.project_domain(xp + 1e-4 * d)
                    if f.feasibility_gap(cand) > 1e-9:
                        continue
                    assert obj(cand) >= base - 1e-8


@pytest.mark.parametrize("f", [
    Zero(), IndicatorNonneg(), IndicatorBox(-0.5, 0.5), IndicatorBall(1.0),
    IndicatorSimplex(2.0), ConeDualBall("nonneg", 1.0)], ids=lambda f: type(f).__name__)
def test_indicator_prox_is_its_projection(f):
    # at every step, on points inside and outside the set, bit for bit; the
    # class states neither formula itself, and its value is 0 on the set
    assert not {"value", "prox_euclidean"} & set(vars(type(f)))
    rng = np.random.default_rng(24)
    outside = 0
    for _ in range(100):
        u = rng.standard_normal(5) * 10.0 ** rng.uniform(-3, 3)
        inside = f.project_domain(u)
        outside += f.feasibility_gap(u) > 1e-9
        assert f.feasibility_gap(inside) <= 1e-12 * max(1.0, float(np.abs(u).sum()))
        assert f.value(inside) == 0.0
        for v in (u, inside):
            for t in (1e-3, 1.0, 1e3):
                assert np.array_equal(f.prox_euclidean(t, v), f.project_domain(v))
    assert outside > 0 or isinstance(f, Zero)


class TestNormsAndSeparable:
    def test_ball_norms_equal_numpy_bitwise(self):
        # the balls take sqrt(u @ u), which numpy's norm also computes
        rng = np.random.default_rng(21)
        ball, cone = IndicatorBall(1.0), ConeDualBall("nonneg", 1.0)
        for _ in range(2000):
            n = int(rng.integers(1, 40))
            u = rng.standard_normal(n) * 10.0 ** rng.uniform(-200, 150)
            assert bregman._norm(u) == float(np.linalg.norm(u))
            assert ball.feasibility_gap(u) == max(float(np.linalg.norm(u)) - 1.0, 0.0)
            nrm = float(np.linalg.norm(u))
            expect = u.copy() if nrm <= 1.0 else u * (1.0 / nrm)
            assert np.array_equal(ball.prox_euclidean(1.0, u), expect)
            w = np.maximum(u, 0.0)
            nrm = float(np.linalg.norm(w))
            if nrm > 1.0:
                w *= 1.0 / nrm
            assert np.array_equal(cone.prox_euclidean(1.0, u), w)
            assert cone.feasibility_gap(u) == float(
                np.maximum(-u, 0.0).max(initial=0.0)
                + max(np.linalg.norm(np.maximum(u, 0.0)) - 1.0, 0.0))

    def test_dual_norms(self):
        # max <g, u> over ref_norm(u) <= 1, attained at a unit vector of the
        # reference norm: l2 bit for bit numpy's, l-inf for entropy's l1, and
        # the l2 combination of both for their product
        rng = np.random.default_rng(23)
        prod = ProductGeometry([EntropyGeometry(3), EuclideanGeometry(1)])
        assert (EuclideanGeometry(2).dual_norm_name, prod.dual_norm_name) == ("l2", "(linf, l2)")
        for _ in range(200):
            g = rng.standard_normal(4) * 10.0 ** rng.uniform(-5, 5)
            assert EuclideanGeometry(4).dual_norm(g) == float(np.linalg.norm(g))
            assert EntropyGeometry(4).dual_norm(g) == float(np.abs(g).max())
            gw, gz = np.abs(g[:3]).max(), abs(g[3])
            dn = prod.dual_norm(g)
            assert dn == pytest.approx(np.hypot(gw, gz), rel=1e-15)
            j = int(np.abs(g[:3]).argmax())
            u = np.zeros(4)
            u[j], u[3] = np.sign(g[j]) * gw / dn, gz * np.sign(g[3]) / dn
            assert prod.ref_norm(u) == pytest.approx(1.0, rel=1e-14)
            assert g @ u == pytest.approx(dn, rel=1e-14)
            for _ in range(5):
                w = rng.standard_normal(4)
                assert g @ w <= dn * prod.ref_norm(w) * (1 + 1e-14)

    @pytest.mark.parametrize("parts", [
        [(IndicatorSimplex(2.0), 3), (Zero(), 1)],
        [(IndicatorBall(0.5), 2), (L1(0.3), 3)],
    ])
    def test_separable_prox_is_the_parts_side_by_side(self, parts):
        h = Separable(parts)
        rng = np.random.default_rng(22)
        n = sum(sz for _, sz in parts)
        for _ in range(200):
            u = rng.standard_normal(n) * 3
            t = float(10 ** rng.uniform(-2, 1))
            expect, lo = [], 0
            for f, sz in parts:
                expect.append(f.prox_euclidean(t, u[lo:lo + sz]))
                lo += sz
            out = h.prox_euclidean(t, u)
            assert np.array_equal(out, np.concatenate(expect))
            assert out.dtype == np.float64

    def test_separable_prox_of_zeros_is_a_new_array(self):
        h = Separable([(Zero(), 2), (Zero(), 3)])
        u = np.arange(5.0)
        for out in (h.prox_euclidean(1.0, u), h.project_domain(u)):
            assert np.array_equal(out, u)
            assert not np.shares_memory(out, u)


class TestThreePoint:
    def test_equality_at_minimizer(self):
        g = EuclideanGeometry(1)
        f = L1(1.0)
        s = np.array([2.0])
        xp = bregman_prox(g, f, 0.5, s, np.array([1.0]))
        ok, res = three_point_check(g, f, 0.5, np.array([1.0]), xp, s=s)
        assert ok and abs(res) <= 1e-10

    def test_zero_function_identity(self):
        g = EuclideanGeometry(2)
        rng = np.random.default_rng(7)
        for _ in range(100):
            xb = rng.standard_normal(2)
            xt = rng.standard_normal(2)
            ok, res = three_point_check(g, Zero(), 0.7, xb, xt)
            assert ok and res >= -1e-10
            # for f = 0 the three-point relation is an exact identity
            assert abs(res) <= 1e-10

    def test_l1_random_thousand(self):
        g = EuclideanGeometry(3)
        rng = np.random.default_rng(8)
        worst = np.inf
        for _ in range(1000):
            f = L1(abs(rng.standard_normal()) + 0.1)
            t = 10 ** rng.uniform(-2, 1)
            xb = rng.standard_normal(3)
            xt = rng.standard_normal(3)
            s = rng.standard_normal(3)
            ok, res = three_point_check(g, f, t, xb, xt, s=s)
            worst = min(worst, res)
        assert worst >= -1e-9

    def test_modulus_term_enters(self):
        # strongly convex f tightens the inequality by mu/2 ||x - x+||^2;
        # the residual must stay nonnegative with the modulus included
        g = EuclideanGeometry(2)
        rng = np.random.default_rng(9)
        f = SquaredL2(1.5)
        for _ in range(500):
            t = 10 ** rng.uniform(-2, 1)
            xb = rng.standard_normal(2)
            xt = rng.standard_normal(2)
            s = rng.standard_normal(2)
            ok, res = three_point_check(g, f, t, xb, xt, s=s)
            assert ok and res >= -1e-9

    def test_domain_violation_raises(self):
        g = EuclideanGeometry(2)
        with pytest.raises(DomainError):
            three_point_check(g, IndicatorNonneg(), 1.0, np.ones(2),
                              np.array([-1.0, 0.5]))


class TestProductGeometry:
    def test_dist_adds(self):
        pg = ProductGeometry([EntropyGeometry(2), EuclideanGeometry(1)])
        u = np.array([0.5, 0.5, 1.0])
        v = np.array([0.25, 0.75, -1.0])
        expect = (bregman_dist(EntropyGeometry(2), u[:2], v[:2])
                  + bregman_dist(EuclideanGeometry(1), u[2:], v[2:]))
        assert bregman_dist(pg, u, v) == pytest.approx(expect, rel=1e-12)

    def test_prox_splits(self):
        pg = ProductGeometry([EntropyGeometry(2), EuclideanGeometry(1)])
        h = Separable([(IndicatorSimplex(1.0), 2), (Zero(), 1)])
        s = np.array([-np.log(2.0), 0.0, -3.0])
        y = np.array([0.5, 0.5, 1.0])
        out = bregman_prox(pg, h, 1.0, s, y)
        assert out[:2] == pytest.approx([2 / 3, 1 / 3])
        assert out[2] == pytest.approx(4.0)  # euclidean: 1 - 1*(-3)

    def test_mismatched_parts_rejected(self):
        pg = ProductGeometry([EntropyGeometry(2), EuclideanGeometry(1)])
        h = Separable([(IndicatorSimplex(1.0), 1), (Zero(), 2)])
        with pytest.raises(Exception):
            bregman_prox(pg, h, 1.0, np.zeros(3), np.array([0.5, 0.5, 1.0]))

    def dual_pair(self):
        """The kernel problem's dual geometry and function, at M = 3."""
        pg = ProductGeometry([EntropyGeometry(3), EuclideanGeometry(1)])
        return pg, Separable([(IndicatorSimplex(1.0), 3), (Zero(), 1)])

    def test_prox_equals_the_parts(self):
        # one output array, bit for bit the part proxes side by side
        pg, h = self.dual_pair()
        rng = np.random.default_rng(8)
        for _ in range(50):
            s = rng.standard_normal(4) * 5
            y = np.append(rng.dirichlet(np.ones(3)), rng.standard_normal())
            t = float(10 ** rng.uniform(-2, 1))
            expect = np.concatenate([
                bregman_prox(EntropyGeometry(3), IndicatorSimplex(1.0), t, s[:3], y[:3]),
                bregman_prox(EuclideanGeometry(1), Zero(), t, s[3:], y[3:])])
            assert np.array_equal(bregman_prox(pg, h, t, s, y), expect)

    def test_prox_error_paths(self):
        pg, h = self.dual_pair()
        y = np.array([0.2, 0.3, 0.5, 1.0])
        with pytest.raises(DomainError, match="separable"):
            bregman_prox(pg, L1(1.0), 1.0, np.zeros(4), y)
        with pytest.raises(DimensionError):
            bregman_prox(pg, h, 1.0, np.zeros(3), y)
        with pytest.raises(DimensionError):
            bregman_prox(pg, h, 1.0, np.zeros(4), y[:3])
        with pytest.raises(DimensionError, match="part sizes"):
            bregman_prox(pg, Separable([(IndicatorSimplex(1.0), 2), (Zero(), 2)]), 1.0,
                         np.zeros(4), y)
        for t in (0.0, -1.0, np.nan):
            with pytest.raises(ParameterError):
                bregman_prox(pg, h, t, np.zeros(4), y)
        with pytest.raises(DomainError, match="strictly positive"):
            bregman_prox(pg, h, 1.0, np.zeros(4), np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(DomainError, match="lost all mass"):
            bregman_prox(pg, h, 1.0, np.array([np.nan, 0, 0, 0]), y)

    def test_cached_plan_serves_one_function(self):
        # every function is checked and served its own parts, whichever
        # function the geometry served before
        pg, h = self.dual_pair()
        s, y = np.array([0.5, -0.5, 0.0, 2.0]), np.array([0.2, 0.3, 0.5, 1.0])
        first = bregman_prox(pg, h, 1.0, s, y)
        h2 = Separable([(IndicatorSimplex(2.0), 3), (Zero(), 1)])
        assert bregman_prox(pg, h2, 1.0, s, y)[:3].sum() == pytest.approx(2.0)
        with pytest.raises(DimensionError):
            bregman_prox(pg, Separable([(IndicatorSimplex(1.0), 1), (Zero(), 3)]), 1.0, s, y)
        with pytest.raises(DomainError):
            bregman_prox(pg, IndicatorSimplex(1.0), 1.0, s, y)
        zero = bregman_prox(pg, Zero(), 1.0, s, y)
        assert zero[:3] == pytest.approx(y[:3] * np.exp(-s[:3]))
        assert np.array_equal(bregman_prox(pg, h, 1.0, s, y), first)


def per_part_prox(M, scale, t, s, xbar):
    """The kernel dual prox as its two part steps, side by side."""
    return np.concatenate([
        EntropyGeometry(M)._step(IndicatorSimplex(scale), t, s[:M].copy(), xbar[:M].copy()),
        EuclideanGeometry(1)._step(Zero(), t, s[M:], xbar[M:])])


def outcome(fn, *args):
    """``fn(*args)``, or the class and message of the exception it raises."""
    try:
        with np.errstate(all="ignore"):
            return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestFusedKernelDualProx:
    """An entropic simplex part followed by one free Euclidean coordinate
    takes one fused step; it must match the part steps bit for bit."""

    @pytest.fixture
    def fused_calls(self, monkeypatch):
        calls = []
        fused = bregman._simplex_and_free_step
        monkeypatch.setattr(bregman, "_simplex_and_free_step",
                            lambda *a: calls.append(1) or fused(*a))
        return calls

    @pytest.mark.parametrize("M", [1, 2, 3, 5])
    def test_bitwise_equal_to_the_parts(self, M, fused_calls):
        rng = np.random.default_rng(100 + M)
        scale = 2.5
        pg = ProductGeometry([EntropyGeometry(M), EuclideanGeometry(1)])
        h = Separable([(IndicatorSimplex(scale), M), (Zero(), 1)])
        n = 2500
        for j in range(n):
            t = float(10 ** rng.uniform(-3, 1))
            # |t s| up to 1e3 reaches the overflow guard
            s = rng.standard_normal(M + 1) * rng.uniform(0, 1e3) / t
            xbar = np.append(rng.dirichlet(np.ones(M)) * scale, rng.standard_normal())
            if j % 4 == 0:   # at the floor, and below it where the floor applies
                xbar[rng.integers(M)] = bregman._ENTROPY_FLOOR
            elif j % 4 == 1:
                xbar[rng.integers(M)] = 1e-320
            got = bregman_prox(pg, h, t, s, xbar)
            assert got.tobytes() == per_part_prox(M, scale, t, s, xbar).tobytes(), (t, s, xbar)
        assert len(fused_calls) == n

    def test_underflowed_product_is_a_centre(self, fused_calls):
        # weights of 6.5e-278 and 4.9e-274 against an exponent spread of 117
        # give products of 0 and 2.5e-321; each step's output must be a
        # centre the next step takes, fused and per part
        s = np.array([0.0, 117.0, 109.0, 0.0])
        xbar = np.array([1.0, 6.5e-278, 4.9e-274, 0.5])
        pg = ProductGeometry([EntropyGeometry(3), EuclideanGeometry(1)])
        h = Separable([(IndicatorSimplex(1.0), 3), (Zero(), 1)])
        for step in (lambda c: bregman_prox(pg, h, 1.0, s, c),
                     lambda c: np.append(bregman_prox(EntropyGeometry(3), IndicatorSimplex(1.0),
                                                      1.0, s[:3], c[:3]), c[3])):
            first = step(xbar)
            second = step(first)
            for out in (first, second):
                assert (out[:3] > 0).all() and out[:3].sum() == pytest.approx(1.0), out
        assert len(fused_calls) == 2

    def test_bad_centres_and_steps_raise_as_the_parts(self, fused_calls):
        # the reference is the per-part path, which a product prox takes
        # for a simplex subclass
        class PartsOnly(IndicatorSimplex):
            pass

        pg = ProductGeometry([EntropyGeometry(3), EuclideanGeometry(1)])
        h = Separable([(IndicatorSimplex(2.0), 3), (Zero(), 1)])
        parts = Separable([(PartsOnly(2.0), 3), (Zero(), 1)])
        s, xbar = np.array([0.5, -1.0, 2.0, 0.3]), np.array([0.4, 0.6, 1.0, -1.0])
        cases = [(1.0, s, xbar)]
        for bad in (np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0):
            for j in range(4):
                for vec in (s, xbar):
                    v = vec.copy()
                    v[j] = bad
                    cases.append((1.0, v, xbar) if vec is s else (1.0, s, v))
            cases.append((bad, s, xbar))
        # a NaN must not hide a nonpositive centre, in either order
        cases += [(1.0, s, np.array([np.nan, -1.0, 0.5, 0.0])),
                  (1.0, s, np.array([-1.0, np.nan, 0.5, 0.0])),
                  (1e3, np.array([-1e306, 1e306, 0.0, 0.0]), xbar)]
        raised = 0
        for t, sv, xv in cases:
            fused_calls.clear()
            got = outcome(bregman_prox, pg, h, t, sv, xv)
            expect = outcome(bregman_prox, pg, parts, t, sv, xv)
            if isinstance(expect, tuple):
                raised += 1
                assert got == expect, (t, sv, xv)
            else:
                assert fused_calls
                assert got.tobytes() == expect.tobytes(), (t, sv, xv)
        assert raised >= 20

    def test_other_products_take_the_parts(self, fused_calls):
        s, xbar = np.array([0.5, -1.0, 2.0, 0.3, 0.1]), np.array([0.2, 0.3, 0.5, 1.0, 2.0])
        ent3, euc1 = EntropyGeometry(3), EuclideanGeometry(1)
        simplex, l1, zero = IndicatorSimplex(1.0), L1(0.5), Zero()
        for geoms, h, fns in (
                ([ent3, euc1], Separable([(simplex, 3), (l1, 1)]), [simplex, l1]),
                ([ent3, euc1], zero, [zero, zero]),
                ([ent3, EuclideanGeometry(2)], Separable([(simplex, 3), (zero, 2)]),
                 [simplex, zero]),
                ([euc1, ent3], Separable([(zero, 1), (simplex, 3)]), [zero, simplex])):
            ends = np.cumsum([0] + [g.dim for g in geoms])
            expect = np.concatenate([g._step(fj, 0.7, s[lo:hi], xbar[lo:hi])
                                     for g, fj, lo, hi in zip(geoms, fns, ends, ends[1:])])
            got = bregman_prox(ProductGeometry(geoms), h, 0.7, s[:ends[-1]], xbar[:ends[-1]])
            assert np.array_equal(got, expect)
        assert fused_calls == []

    def test_eight_weights_take_the_parts(self, fused_calls):
        # numpy sums 8 or more entries pairwise, not left to right
        rng = np.random.default_rng(5)
        pg = ProductGeometry([EntropyGeometry(8), EuclideanGeometry(1)])
        h = Separable([(IndicatorSimplex(2.5), 8), (Zero(), 1)])
        for _ in range(200):
            s = rng.standard_normal(9) * 10
            xbar = np.append(rng.dirichlet(np.ones(8)), 1.0)
            assert (bregman_prox(pg, h, 0.5, s, xbar).tobytes()
                    == per_part_prox(8, 2.5, 0.5, s, xbar).tobytes())
        assert fused_calls == []

    def test_swapped_function_replans(self, fused_calls):
        pg = ProductGeometry([EntropyGeometry(3), EuclideanGeometry(1)])
        s, xbar = np.array([0.5, -1.0, 2.0, 0.3]), np.array([0.2, 0.3, 0.5, 1.0])
        h = Separable([(IndicatorSimplex(1.0), 3), (Zero(), 1)])
        assert bregman_prox(pg, h, 1.0, s, xbar)[:3].sum() == pytest.approx(1.0)
        # the scale is read at call time
        h.parts[0][0].scale = 3.0
        assert bregman_prox(pg, h, 1.0, s, xbar)[:3].sum() == pytest.approx(3.0)
        assert len(fused_calls) == 2
        h2 = Separable([(IndicatorSimplex(2.0), 3), (L1(0.5), 1)])
        out = bregman_prox(pg, h2, 1.0, s, xbar)
        assert len(fused_calls) == 2
        assert out[3] == pytest.approx(L1(0.5).prox_euclidean(1.0, np.array([0.7]))[0])
        h3 = Separable([(IndicatorSimplex(2.0), 3), (Zero(), 1)])
        assert np.array_equal(bregman_prox(pg, h3, 1.0, s, xbar),
                              per_part_prox(3, 2.0, 1.0, s, xbar))
        assert len(fused_calls) == 3


def project_simplex_by_last_index(u, scale=1.0):
    """Sort-and-threshold that takes the last index where the threshold
    condition holds, the way the projection was first written."""
    srt = np.sort(u)[::-1]
    css = np.cumsum(srt) - scale
    cond = srt - css / np.arange(1, u.size + 1) > 0
    rho = int(np.nonzero(cond)[0][-1])
    return np.maximum(u - css[rho] / (rho + 1.0), 0.0)


def test_project_simplex_counts_the_prefix():
    # counting the condition gives the last index where it holds, bit for
    # bit wherever the sort runs, with ties and at the sizes the ranks cache
    # sees; where the pivot settles the projection, its pairwise sum rounds
    # apart from the sorted cumsum, to the bound of the test below
    rng = np.random.default_rng(12)
    eps = np.finfo(float).eps
    for n in (1, 2, 3, 7, 512):
        for _ in range(100):
            u = rng.standard_normal(n) * 3
            if n > 2:
                u[rng.integers(n, size=2)] = u[0]
            scale = float(10 ** rng.uniform(-1, 1))
            w, ref = project_simplex(u, scale), project_simplex_by_last_index(u, scale)
            if u.min() > (u.sum() - scale) / n:
                assert np.abs(w - ref).max() <= 2 * eps * (np.abs(u).sum() + scale)
            else:
                assert np.array_equal(w, ref)


def project_simplex_sorted(u, scale=1.0):
    """Sort-and-threshold on all of ``u``, the projection before the pivot."""
    srt = np.sort(u)[::-1]
    css = np.cumsum(srt) - scale
    cond = srt - css / np.arange(1.0, u.size + 1.0) > 0
    rho = max(int(np.count_nonzero(cond)), 1)
    return np.maximum(u - css[rho - 1] / float(rho), 0.0)


def simplex_inputs(rng, d, scale):
    """A full, a partial and a single-entry support at size ``d``, each
    also rounded to one decimal, which ties values."""
    full = rng.uniform(-5, 5) + scale / d * rng.uniform(0.5, 1.5, d)
    partial = rng.standard_normal(d) * 3
    single = rng.standard_normal(d)
    single[rng.integers(d)] += 3 + 2 * scale
    for u in (full, partial, single):
        yield u
        yield np.round(u, 1)


def test_project_simplex_against_the_sort():
    # when the pivot settles the projection, its pairwise sum may round
    # apart from the sorted cumsum, and an entry within that rounding of
    # the threshold may land on either side; otherwise the projection is
    # the sort, bit for bit
    rng = np.random.default_rng(21)
    eps = np.finfo(float).eps
    seen = set()
    for d in (1, 2, 3, 8, 512):
        for scale in (0.1, 1.0, 10.0):
            for _ in range(20):
                for u in simplex_inputs(rng, d, scale):
                    w, ref = project_simplex(u, scale), project_simplex_sorted(u, scale)
                    # a sequential sum of d terms rounds by up to (d - 1) eps sum|u|
                    assert w.min() >= 0.0
                    assert abs(w.sum() - scale) <= 2 * d * eps * (np.abs(u).sum() + scale)
                    for _ in range(5):
                        v = rng.dirichlet(np.ones(d)) * scale
                        assert float((u - w) @ (v - w)) <= 1e-9
                    pivot = u.min() > (u.sum() - scale) / d
                    if pivot:
                        bound = 2 * eps * (np.abs(u).sum() + scale)
                        assert np.abs(w - ref).max() <= bound
                    else:
                        assert np.array_equal(w, ref)
                    support = int(np.count_nonzero(ref))
                    seen.add((d, "pivot" if pivot else "sort", "full" if support == d else
                              "single" if support == 1 else "partial"))
    # the pivot settles full supports at every size; the sort sees a single
    # entry from d = 2 and a support between 1 and d from d = 3
    assert seen >= ({(d, "pivot", "full") for d in (1, 2, 3, 8, 512)}
                    | {(d, "sort", "single") for d in (2, 3, 8, 512)}
                    | {(d, "sort", "partial") for d in (3, 8, 512)})


def test_project_simplex_non_finite_inputs():
    # a NaN or infinite pivot settles nothing, so the sort runs on all of u
    cases = (([np.nan, 1.0, 2.0], [np.nan, np.nan, np.nan]),
             ([np.inf, 1.0], [np.nan, 0.0]),
             ([-np.inf, 1.0, 0.5], [0.0, 0.75, 0.25]))
    with np.errstate(invalid="ignore"):
        for u, expected in cases:
            assert np.array_equal(project_simplex(np.array(u)), np.array(expected),
                                  equal_nan=True)
