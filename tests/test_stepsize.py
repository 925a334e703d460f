import numpy as np
import pytest
from dataclasses import replace

from rapd.exceptions import ParameterError, RegimeError
from rapd.problem import LipschitzConstants
from rapd.stepsize import (check_assumption2, default_alpha, nonuniform_weights,
                           part1_schedule, part2_advance, part2_init,
                           schedule_prefix)


def consts(L_xx, L_yx, L_yy=0.0, mu=None):
    L_xx = np.asarray(L_xx, float)
    mu = np.zeros_like(L_xx) if mu is None else np.asarray(mu, float)
    return LipschitzConstants(L_xx=L_xx, L_yx=L_yx, L_yy=L_yy, mu=mu)


class TestPart1:
    def test_hand_values(self):
        s = part1_schedule(consts([1.0], [1.0]), 1, 1.0, c_tau=1.0, c_sigma=1.0)
        assert s.tau == pytest.approx([0.5])
        assert s.sigma == pytest.approx(1.0)
        assert s.theta == 1.0 and s.t == 1.0

    def test_equality_at_unit_c(self):
        c = consts([1.0, 2.0], [0.5, 1.5], L_yy=0.3)
        s = part1_schedule(c, 2, 0.7, c_tau=1.0, c_sigma=1.0)
        rep = check_assumption2(schedule_prefix(s, 5), c, 2)
        assert rep.satisfied
        assert abs(rep.worst_slack["primal"]) <= 1e-12
        assert abs(rep.worst_slack["dual"]) <= 1e-12

    def test_alpha_monotonicity(self):
        c = consts([1.0], [1.0], L_yy=0.2)
        s1 = part1_schedule(c, 1, 1.0)
        s2 = part1_schedule(c, 1, 2.0)
        assert s2.tau[0] > s1.tau[0]      # smaller L^2/alpha term
        assert s2.sigma < s1.sigma        # alpha enters the dual denominator

    def test_rejects_bad_parameters(self):
        c = consts([1.0], [1.0])
        with pytest.raises(ParameterError):
            part1_schedule(c, 1, 0.0)
        with pytest.raises(ParameterError):
            part1_schedule(c, 1, 1.0, c_tau=1.5)

    def test_constant_across_advance(self):
        c = consts([1.0, 1.0], [1.0, 1.0], L_yy=0.1)
        s = part1_schedule(c, 2, 1.0)
        s5 = schedule_prefix(s, 5)[-1]
        assert np.array_equal(s5.tau, s.tau)
        assert s5.sigma == s.sigma and s5.theta == s.theta and s5.t == s.t
        assert s5 is s  # constant steps advance without copying


M2 = consts([1.0, 1.0], [1.0, 1.0], mu=[1.0, 1.0])


class TestPart2:
    def test_init_hand_values(self):
        s = part2_init(M2, 2, 1.0, c_sigma=1.0)
        assert s.tau_tilde == pytest.approx(0.2)       # (1/2)/(1+1+0.5)
        assert s.sigma == pytest.approx(0.5)           # 1/(2*1)
        assert s.tau == pytest.approx([0.5, 0.5])      # (0.5*6 - 1)^-1
        assert s.theta == 1.0 and s.t == 1.0

    def test_advance_hand_values(self):
        s1 = part2_advance(part2_init(M2, 2, 1.0, c_sigma=1.0))
        assert s1.theta == pytest.approx(1 / np.sqrt(1.2), rel=1e-12)
        assert s1.sigma == pytest.approx(0.5 * np.sqrt(1.2), rel=1e-12)
        assert s1.tau_tilde == pytest.approx(0.2 / np.sqrt(1.2), rel=1e-12)
        assert s1.t == pytest.approx(np.sqrt(1.2), rel=1e-12)
        assert s1.t * s1.theta == pytest.approx(1.0, rel=1e-12)

    def test_regime_preconditions(self):
        with pytest.raises(RegimeError):
            part2_init(consts([1.0], [1.0], mu=[0.0]), 1, 1.0)
        with pytest.raises(RegimeError):
            part2_init(consts([1.0], [1.0], L_yy=0.5, mu=[1.0]), 1, 1.0)

    def test_weight_identities_to_1e4(self):
        prefix = schedule_prefix(part2_init(M2, 2, 1.0), 10_000)
        sigma0 = prefix[0].sigma
        for k in range(len(prefix) - 1):
            s, sn = prefix[k], prefix[k + 1]
            assert abs(sn.t * sn.theta - s.t) <= 1e-10 * max(s.t, 1.0)
            assert abs(s.t - s.sigma / sigma0) <= 1e-10 * max(s.t, 1.0)

    def test_momentum_range_and_monotonicity(self):
        prefix = schedule_prefix(part2_init(M2, 2, 1.0), 10_000)
        thetas = np.array([s.theta for s in prefix[1:]])
        assert np.all(thetas >= 1 - 1 / 2) and np.all(thetas <= 1.0)
        assert np.all(np.diff(thetas) >= -1e-15)  # nondecreasing toward 1
        assert not prefix[-1].theta_clamped

    def test_telescope_identity(self):
        # t^k (1/tau_i^k + mu_i) = t^{k+1} (1/tau_i^{k+1} + (1 - 1/m) mu_i);
        # exact analytically, float error scales with the k^2 growth of
        # the weights, so compare relative to the left side
        prefix = schedule_prefix(part2_init(M2, 2, 1.0), 10_000)
        mu = M2.mu
        for k in range(len(prefix) - 1):
            s, sn = prefix[k], prefix[k + 1]
            lhs = s.t * (1.0 / s.tau + mu)
            rhs = sn.t * (1.0 / sn.tau + 0.5 * mu)
            assert np.all(lhs - rhs >= -1e-12 * lhs.max())

    def test_step_decay_is_inverse_square(self):
        # k^2 tau_i^k / t^k settles into a narrow band over [1e2, 1e4]
        prefix = schedule_prefix(part2_init(M2, 2, 1.0), 10_000)
        ks = np.arange(100, 10_001)
        vals = np.array([k * k * prefix[k].tau[0] / prefix[k].t for k in ks])
        assert vals.max() / vals.min() <= 1.5

    def test_normalized_step_limit(self):
        # k * taut^k converges (limit near 2): +-10% between 1e3 and 1e4
        prefix = schedule_prefix(part2_init(M2, 2, 1.0), 10_000)
        a = 1_000 * prefix[1_000].tau_tilde
        b = 10_000 * prefix[10_000].tau_tilde
        assert abs(b - a) <= 0.1 * abs(a)
        assert b == pytest.approx(2.0, rel=0.05)

    def test_advance_matches_written_out_recursion(self):
        # part2_advance is bit-identical to the recursion as the module
        # docstring states it, for uniform and non-uniform sampling
        c = consts([1.0, 0.3, 2.0], [0.5, 1.0, 0.25], mu=[0.5, 2.0, 1.0])
        alpha = default_alpha(c)
        for s0 in (part2_init(c, 3, alpha),
                   nonuniform_weights(c, 3, alpha, [0.5, 0.3, 0.2], regime="part2")):
            pi, mu = s0.probabilities(), c.mu
            s, taut, sigma, t = s0, s0.tau_tilde, s0.sigma, s0.t
            for _ in range(5000):
                theta = 1.0 / np.sqrt(1.0 + taut)
                sigma = sigma / theta
                taut = theta * taut
                t = t / theta
                s = part2_advance(s)
                assert (s.theta, s.sigma, s.tau_tilde, s.t) == (theta, sigma, taut, t)
                assert s.alpha == s0.c_sigma / (3 * theta * sigma)
                assert np.array_equal(s.tau, 1.0 / (mu * pi * (1.0 + 1.0 / taut) - mu))
                assert not s.theta_clamped

    def test_heterogeneous_moduli(self):
        c = consts([1.0, 0.3, 2.0], [0.5, 1.0, 0.25], mu=[0.5, 2.0, 1.0])
        prefix = schedule_prefix(part2_init(c, 3, default_alpha(c)), 1000)
        rep = check_assumption2(prefix, c, 3)
        assert rep.satisfied, rep


class TestNonuniform:
    def test_uniform_reproduces_part1(self):
        c = consts([1.0, 2.0], [0.5, 1.5])
        a = nonuniform_weights(c, 2, 1.0, [0.5, 0.5], regime="part1")
        b = part1_schedule(c, 2, 1.0, c_tau=1.0, c_sigma=1.0)
        assert a.tau == pytest.approx(b.tau, rel=1e-15)
        assert a.sigma == pytest.approx(b.sigma, rel=1e-15)

    def test_uniform_reproduces_part2(self):
        a = nonuniform_weights(M2, 2, 1.0, [0.5, 0.5], regime="part2", c_sigma=1.0)
        b = part2_init(M2, 2, 1.0, c_sigma=1.0)
        assert a.tau == pytest.approx(b.tau, rel=1e-15)
        assert a.tau_tilde == pytest.approx(b.tau_tilde, rel=1e-15)

    def test_hand_values(self):
        c = consts([1.0, 1.0], [1.0, 1.0])
        s = nonuniform_weights(c, 2, 1.0, [0.75, 0.25], regime="part1")
        assert s.tau == pytest.approx([0.6, 1 / 3])
        assert s.sigma == pytest.approx(0.5)

    def test_low_probability_block_shrinks(self):
        c = consts([1.0, 1.0], [1.0, 1.0])
        s_uni = nonuniform_weights(c, 2, 1.0, [0.5, 0.5], regime="part1")
        s_skew = nonuniform_weights(c, 2, 1.0, [0.75, 0.25], regime="part1")
        assert s_skew.tau[1] < s_uni.tau[1]
        assert s_skew.tau[0] > s_uni.tau[0]

    def test_invalid_probability_vectors(self):
        c = consts([1.0, 1.0], [1.0, 1.0])
        for p in ([0.5, 0.4], [1.2, -0.2], [1.0]):
            with pytest.raises(ParameterError):
                nonuniform_weights(c, 2, 1.0, p, regime="part1")

    def test_nonpositive_alpha_rejected(self):
        c = consts([1.0, 1.0], [1.0, 1.0], mu=[1.0, 1.0])
        for regime in ("part1", "part2"):
            for alpha in (0.0, -1.0):
                with pytest.raises(ParameterError):
                    nonuniform_weights(c, 2, alpha, [0.75, 0.25], regime=regime)

    def test_checker_passes_both_regimes(self):
        c = consts([1.0, 0.5, 2.0], [1.0, 2.0, 0.7], mu=[1.0, 2.0, 0.5])
        p = [0.5, 0.3, 0.2]
        for regime in ("part1", "part2"):
            s = nonuniform_weights(c, 3, 1.3, p, regime=regime)
            rep = check_assumption2(schedule_prefix(s, 1000), c, 3)
            assert rep.satisfied, (regime, rep)


class TestChecker:
    def test_strict_c_gives_positive_slack(self):
        c = consts([1.0, 2.0], [0.5, 1.5], L_yy=0.3)
        s = part1_schedule(c, 2, 0.7, c_tau=0.9, c_sigma=0.9)
        rep = check_assumption2(schedule_prefix(s, 10), c, 2)
        assert rep.satisfied
        assert rep.worst_slack["primal"] > 0
        assert rep.worst_slack["dual"] > 0

    def test_oversized_tau_violates_primal_at_k0(self):
        # emulate c_tau = 1.5 by inflating the largest legal steps
        c = consts([1.0, 2.0], [0.5, 1.5], L_yy=0.3)
        s = part1_schedule(c, 2, 0.7, c_tau=1.0, c_sigma=1.0)
        bad = replace(s, tau=s.tau * 1.5)
        rep = check_assumption2(schedule_prefix(bad, 5), c, 2)
        assert not rep.satisfied
        assert rep.first_violation == (0, "primal")

    def test_broken_weight_identity_detected(self):
        s = part2_init(M2, 2, 1.0)
        s1 = part2_advance(s)
        broken = replace(s1, t=s1.t * 1.01)
        rep = check_assumption2([s, broken], M2, 2)
        assert not rep.satisfied
        assert rep.first_violation[1] in ("weight", "ratio", "telescope")

    def test_momentum_out_of_range_detected(self):
        s = part1_schedule(consts([1.0, 1.0], [1.0, 1.0]), 2, 1.0)
        bad = replace(s, theta=0.3)   # below 1 - 1/m = 0.5
        rep = check_assumption2([bad], consts([1.0, 1.0], [1.0, 1.0]), 2)
        assert not rep.satisfied
        assert rep.first_violation == (0, "momentum")

    def test_part2_thousand_steps(self):
        rep = check_assumption2(schedule_prefix(part2_init(M2, 2, 1.0), 1000), M2, 2)
        assert rep.satisfied
        assert min(rep.worst_slack.values()) >= -1e-10
