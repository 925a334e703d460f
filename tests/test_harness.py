import re
from types import SimpleNamespace

import numpy as np
import pytest
from dataclasses import replace

from rapd.blockcore import BlockPartition
from rapd.bregman import IndicatorBall, IndicatorNonneg, SquaredL2, Zero
from rapd.exceptions import ConfigError, ParameterError, RegimeError
from rapd.harness import cli, suites
from rapd.harness.cli import cli_main
from rapd.harness.config import load_config, parse_config
from rapd.harness.metrics import (fit_loglog, lagrangian_gap, rate_bound_delta1,
                                  rate_bound_delta2, slope_fit)
from rapd.harness.suites import (CSV_COLUMNS, bilinear_game, build_problem_from_config,
                                 record_points, run_from_config, time_to_target,
                                 write_trace_csv)
from rapd.kernel_learning import kernel_desk
from rapd.oracle import (SaddleCertificate, save_certificate, solve_high_accuracy,
                         solve_quadratic_game_exact)
from rapd.problem import build_quadratic_game
from rapd.solver import RunOptions, RunTrace, TraceRecord, run
from rapd.stepsize import default_alpha, part1_schedule, part2_init


BASE_CFG = """
problem.type = quadratic_game
problem.seed = 3
problem.n = 8
problem.d = 2
problem.blocks = 2
problem.f = l1
problem.f_param = 0.1
problem.h = ball
problem.h_param = 1.0
method.name = rapd1
run.K = 50
run.seeds = 0,1
output.dir = out
"""

BILINEAR_CFG = BASE_CFG.replace("problem.type = quadratic_game",
                                "problem.type = bilinear_erm").replace(
                                "problem.h = ball", "problem.h = simplex")


def without_keys(text, *keys):
    """``text`` without the assignments to ``keys``."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if line.split("=", 1)[0].strip() not in keys)


#: the block and dual function keys of BASE_CFG
FH_KEYS = ("problem.f", "problem.f_param", "problem.h", "problem.h_param")

#: BASE_CFG as a kernel problem of 40 points in 4 blocks
KERNEL_CFG = without_keys(BASE_CFG, *FH_KEYS).replace(
    "problem.type = quadratic_game", "problem.type = kernel").replace(
    "problem.n = 8", "problem.n = 40").replace("problem.blocks = 2", "problem.blocks = 4")


class TestConfig:
    def test_parse_and_defaults(self):
        cfg = parse_config(BASE_CFG)
        assert cfg["problem.n"] == 8
        assert cfg["method.c_tau"] == 0.99      # default
        assert cfg.seeds() == [0, 1]

    def test_seed_range_syntax(self):
        cfg = parse_config(BASE_CFG.replace("run.seeds = 0,1", "run.seeds = 2:5"))
        assert cfg.seeds() == [2, 3, 4]

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("problem.type = quadratic_game\nmethod.name = rapd1\n"
                         "problem.nn = 8\n")
        with pytest.raises(ConfigError, match="unknown key 'problem.fold_quadratic_into_f'"):
            parse_config(BASE_CFG + "problem.fold_quadratic_into_f = false\n")

    def test_lipschitz_scale_key_rejected(self):
        # the constants are not configurable: a deflated run would step past
        # the bounds its step sizes rest on
        with pytest.raises(ConfigError, match="line 3: unknown key 'method.lipschitz_scale'"):
            parse_config("problem.type = bilinear_erm\nmethod.name = rapd1\n"
                         "method.lipschitz_scale = 0.1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(BASE_CFG + "\nproblem.n = 9\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="method.name"):
            parse_config("problem.type = quadratic_game\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("problem.n = smol\nproblem.type = quadratic_game\n"
                         "method.name = rapd1\n")

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n\n" + BASE_CFG.replace(
            "run.K = 50", "run.K = 75  # inline comment")
        cfg = parse_config(text)
        assert cfg["run.K"] == 75

    def test_negative_zero_default_keys_rejected(self):
        # 0 selects a default; a negative value must not fall back to it
        for key in ("method.alpha", "method.tau", "method.sigma", "method.L",
                    "problem.B", "run.metric_cadence"):
            assert parse_config(BASE_CFG + f"{key} = 0\n")[key] == 0
            with pytest.raises(ConfigError, match=key):
                parse_config(BASE_CFG + f"{key} = -1\n")

    #: a value other than the schema default for each method key
    METHOD_VALUES = {"method.alpha": "2", "method.c_tau": "0.5", "method.c_sigma": "0.5",
                     "method.p": "0.75,0.25", "method.tau": "0.1", "method.sigma": "0.1",
                     "method.L": "3"}

    def _with_method_key(self, method, key):
        blocked = method in ("rapd1", "rapd2")
        base = BASE_CFG if blocked else without_keys(BASE_CFG, "problem.blocks")
        return (base.replace("method.name = rapd1", f"method.name = {method}")
                + f"{key} = {self.METHOD_VALUES[key]}\n")

    def test_method_keys_the_method_never_reads_rejected(self):
        rejected = [("method.c_tau", "rapd2")]
        rejected += [(k, "pdhg") for k in ("method.alpha", "method.c_tau",
                                           "method.c_sigma", "method.p")]
        rejected += [(k, "mirror_prox") for k in ("method.alpha", "method.c_tau",
                                                  "method.c_sigma", "method.p")]
        rejected += [(k, m) for k in ("method.tau", "method.sigma")
                     for m in ("rapd1", "rapd2", "mirror_prox")]
        rejected += [("method.L", m) for m in ("rapd1", "rapd2", "pdhg")]
        for key, method in rejected:
            with pytest.raises(ConfigError, match=f"{key} .*method.name = {method}"):
                parse_config(self._with_method_key(method, key))

    def test_method_keys_the_method_reads_accepted(self):
        accepted = [(k, "rapd1") for k in ("method.alpha", "method.c_tau",
                                           "method.c_sigma", "method.p")]
        accepted += [(k, "rapd2") for k in ("method.alpha", "method.c_sigma", "method.p")]
        accepted += [(k, "pdhg") for k in ("method.tau", "method.sigma")]
        accepted += [("method.L", "mirror_prox")]
        for key, method in accepted:
            parse_config(self._with_method_key(method, key))
        # a key the method does not read may still be written at its default
        parse_config(BASE_CFG.replace("method.name = rapd1", "method.name = mirror_prox")
                     .replace("problem.blocks = 2", "problem.blocks = 8")
                     + "method.c_tau = 0.99\nmethod.p = uniform\n")

    def test_block_count_rejected_for_single_block_methods(self):
        for method in ("pdhg", "mirror_prox"):
            with pytest.raises(ConfigError, match="problem.blocks = 2 does nothing for "
                               f"method.name = {method}"):
                parse_config(BASE_CFG.replace("method.name = rapd1", f"method.name = {method}"))

    #: a value other than the schema default for each problem key a type may read
    PROBLEM_VALUES = {"problem.f": "sql2", "problem.f_param": "0.5", "problem.h": "sql2",
                      "problem.h_param": "0.5", "problem.strongly_convex": "true",
                      "problem.lam": "2", "problem.B": "5", "problem.separation": "3",
                      "problem.bandwidth": "0.2", "problem.dual_geometry": "euclidean"}
    PROBLEM_READS = {
        "quadratic_game": FH_KEYS + ("problem.strongly_convex",),
        "bilinear_erm": FH_KEYS,
        "constrained": ("problem.f", "problem.f_param", "problem.B"),
        "kernel": ("problem.lam", "problem.B", "problem.separation", "problem.bandwidth",
                   "problem.dual_geometry"),
    }

    def test_problem_keys_the_type_never_reads_rejected(self):
        for kind, reads in self.PROBLEM_READS.items():
            base = f"problem.type = {kind}\nmethod.name = rapd1\n"
            for key, value in self.PROBLEM_VALUES.items():
                text = base + f"{key} = {value}\n"
                if key in reads:
                    assert parse_config(text)[key] != parse_config(base)[key]
                else:
                    with pytest.raises(ConfigError,
                                       match=f"{key} .*problem.type = {kind}; leave it"):
                        parse_config(text)
                # any key may be written at its default
                default = str(parse_config(base)[key])
                parse_config(base + f"{key} = {default}\n")

    def test_probabilities(self):
        cfg = parse_config(BASE_CFG.replace("method.name = rapd1",
                                            "method.name = rapd1\nmethod.p = 0.75,0.25"))
        p = cfg.probabilities(2)
        assert p == pytest.approx([0.75, 0.25])
        with pytest.raises(ConfigError):
            cfg.probabilities(3)

    def test_sampling_probabilities_reach_the_run(self):
        # non-uniform constant steps need a coupling linear in the dual
        cfg = parse_config(BILINEAR_CFG + "method.p = 0.75,0.25\n")
        tr = run_from_config(cfg, seed=4)
        problem, x0, y0 = build_problem_from_config(cfg)
        c = problem.constants
        sched = part1_schedule(c, 2, default_alpha(c), p=np.array([0.75, 0.25]))
        ref = run(problem, sched, 50, 4, x0=x0, y0=y0)
        assert np.array_equal(tr.final_x, ref.final_x)
        assert np.array_equal(tr.final_y, ref.final_y)
        uniform = run_from_config(parse_config(BILINEAR_CFG), seed=4)
        assert not np.array_equal(tr.final_x, uniform.final_x)


def quadratic_with_cert(seed=1, n=6, d=2, m=3, f=None):
    rng = np.random.default_rng(seed)
    part = BlockPartition.even(n, m)
    M = rng.standard_normal((n, n))
    N = rng.standard_normal((d, d))
    prob = build_quadratic_game(M @ M.T / n + np.eye(n) * 0.3,
                                N @ N.T / d + np.eye(d) * 0.3,
                                rng.standard_normal((d, n)),
                                rng.standard_normal(n), rng.standard_normal(d),
                                part, f=f)
    c = solve_quadratic_game_exact(prob.P, prob.Q, prob.C, prob.p, prob.q)
    return prob, c


class TestGap:
    def test_zero_at_saddle(self):
        prob, cert = quadratic_with_cert()
        assert abs(lagrangian_gap(prob, cert.x_star, cert.y_star, cert)) <= 1e-10

    def test_strictly_positive_on_curved_game(self):
        # 0.5 x^2 game: value at xbar = 1 vs the saddle at 0 gives gap 0.5
        part = BlockPartition([1])
        prob = build_quadratic_game(np.array([[1.0]]), np.zeros((1, 1)),
                                    np.zeros((1, 1)), np.zeros(1), np.zeros(1),
                                    part)
        cert = SaddleCertificate(np.zeros(1), np.zeros(1), 0.0, "linear-solve", 1e-12)
        assert lagrangian_gap(prob, np.array([1.0]), np.zeros(1), cert) \
            == pytest.approx(0.5)

    def test_nonnegative_at_certificate(self):
        prob, cert = quadratic_with_cert()
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(6)
            y = rng.standard_normal(2)
            assert lagrangian_gap(prob, x, y, cert) >= -1e-9

    def test_infeasible_dual_projected_and_logged(self, caplog):
        # a dual point far outside its ball; on nonnegative blocks, a primal
        # point far outside the orthant as well
        import logging
        far = np.array([10.0, 10.0])
        for f, x, side in ((None, None, "dual"),
                           ([IndicatorNonneg()] * 3, np.linspace(-3.0, 2.0, 6), "primal")):
            prob, cert = quadratic_with_cert(f=f)
            prob.h = IndicatorBall(0.5)
            x = cert.x_star if x is None else x
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                val = lagrangian_gap(prob, x, far, cert)
            assert np.isfinite(val)
            assert any(r.message.startswith(side) and "projecting" in r.message
                       for r in caplog.records), side
            x_in = x if f is None else np.maximum(x, 0.0)
            assert val == lagrangian_gap(prob, x_in, prob.h.project_domain(far), cert)


class TestDeltas:
    def _scalar(self):
        part = BlockPartition([1])
        prob = build_quadratic_game(np.array([[1.0]]), np.zeros((1, 1)),
                                    np.array([[1.0]]), np.zeros(1), np.zeros(1),
                                    part)
        cert = SaddleCertificate(np.zeros(1), np.zeros(1), 0.0, "linear-solve", 1e-12)
        return prob, cert

    def test_delta1_hand_value(self):
        # T0 = 2, sigma0 = 1, L_yy = 0, m = 1, unit offsets -> 1 + 0.5
        prob, cert = self._scalar()
        sched = part1_schedule(prob.constants, 1, 1.0)
        sched = replace(sched, tau=np.array([0.5]), sigma=1.0, beta=0.0)
        d1 = rate_bound_delta1(prob, sched, np.array([1.0]), np.array([1.0]), cert)
        assert d1 == pytest.approx(1.5)

    def test_delta_zero_at_saddle_start(self):
        prob, cert = quadratic_with_cert()
        sched = part1_schedule(prob.constants, 3, 1.0)
        d1 = rate_bound_delta1(prob, sched, cert.x_star, cert.y_star, cert)
        assert abs(d1) <= 1e-9

    def test_delta1_m1_drops_lagrangian_term(self):
        prob, cert = self._scalar()
        sched = part1_schedule(prob.constants, 1, 1.0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x0 = rng.standard_normal(1) * 5
            base = rate_bound_delta1(prob, sched, x0, cert.y_star, cert)
            expect = 0.5 * (1 / sched.tau[0]) * float(x0 @ x0)
            assert base == pytest.approx(expect, rel=1e-12)

    def test_delta2_m1_reduction(self):
        part = BlockPartition([2])
        prob = build_quadratic_game(np.zeros((2, 2)), np.zeros((1, 1)),
                                    np.ones((1, 2)), np.zeros(2), np.zeros(1),
                                    part, f=[SquaredL2(0.5)], h=SquaredL2(0.5))
        certq = solve_quadratic_game_exact(np.eye(2), np.eye(1), np.ones((1, 2)),
                                           prob.p, prob.q)
        cert = SaddleCertificate(certq.x_star, certq.y_star, 0.0, "linear-solve", 1e-12)
        sched = part2_init(prob.constants, 1, 1.0)
        x0 = np.array([1.0, -2.0])
        y0 = np.array([0.5])
        d2 = rate_bound_delta2(prob, sched, x0, y0, cert)
        expect = (0.5 / sched.tau[0] * float((x0 - cert.x_star) @ (x0 - cert.x_star))
                  + 0.5 * float((y0 - cert.y_star) @ (y0 - cert.y_star)) / sched.sigma)
        assert d2 == pytest.approx(expect, rel=1e-12)

    def test_regime_mismatch(self):
        prob, cert = self._scalar()
        s1 = part1_schedule(prob.constants, 1, 1.0)
        with pytest.raises(RegimeError):
            rate_bound_delta2(prob, s1, np.zeros(1), np.zeros(1), cert)

    def test_deltas_nonnegative_random(self):
        prob, cert = quadratic_with_cert()
        sched = part1_schedule(prob.constants, 3, 1.0)
        rng = np.random.default_rng(2)
        for _ in range(200):
            x0 = rng.standard_normal(6) * 3
            y0 = rng.standard_normal(2) * 3
            assert rate_bound_delta1(prob, sched, x0, y0, cert) >= -1e-9


class TestSlopeFit:
    def _trace(self, ks, vals):
        tr = RunTrace(method="x", seed=0)
        for k, v in zip(ks, vals):
            tr.records.append(TraceRecord(k=int(k), wall_s=0.0, i_k=0, sigma=1.0,
                                          theta=1.0, tau_min=1.0, tau_max=1.0,
                                          t=1.0, gap=float(v)))
        return tr

    def test_exact_power_laws(self):
        ks = np.unique(np.round(np.logspace(2, 4, 15))).astype(int)
        slope, _, r2 = fit_loglog(ks, 3.0 / ks)
        assert slope == pytest.approx(-1.0, abs=1e-6)
        slope, _, _ = fit_loglog(ks, 5.0 / ks ** 2)
        assert slope == pytest.approx(-2.0, abs=1e-6)

    def test_ensemble_average(self):
        ks = np.unique(np.round(np.logspace(2, 4, 15))).astype(int)
        traces = [self._trace(ks, (1.0 + 0.5 * s) / ks) for s in range(5)]
        slope, r2 = slope_fit(traces, "gap", (100, 10_000))
        assert slope == pytest.approx(-1.0, abs=1e-6)
        assert r2 >= 0.999999

    def test_insufficient_span_rejected(self):
        ks = np.arange(100, 120)
        with pytest.raises(ParameterError):
            slope_fit([self._trace(ks, 1.0 / ks)], "gap", (100, 120))
        with pytest.raises(ParameterError):
            slope_fit([self._trace([100, 1000, 10000], [1, .1, .01])],
                      "gap", (100, 10_000))

    def test_no_traces_named(self):
        with pytest.raises(ParameterError, match="at least one trace"):
            slope_fit([], "gap", (100, 10_000))


class TestTraceOutput:
    def test_record_points_log_and_linear(self):
        pts = record_points(1000, cadence=100)
        assert pts == list(range(100, 1001, 100))
        pts = record_points(1000, cadence=0)
        assert pts[0] >= 1 and pts[-1] == 1000 and len(pts) >= 10

    def test_csv_columns_and_deterministic_body(self, tmp_path):
        prob, cert = bilinear_game(instance_seed=0)
        from rapd.stepsize import default_alpha, part1_schedule
        from rapd.solver import RunOptions, run
        sched = part1_schedule(prob.constants, 1, default_alpha(prob.constants))
        opts = RunOptions(record_at=[5, 10], reference=cert)
        tr1 = run(prob, sched, 10, seed=3, options=opts)
        tr2 = run(prob, sched, 10, seed=3, options=opts)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(p1, tr1)
        write_trace_csv(p2, tr2)

        def body(path):
            return [l for l in path.read_text().splitlines()
                    if not l.startswith("#")]

        b1, b2 = body(p1), body(p2)
        assert b1 == b2
        assert b1[0] == ",".join(CSV_COLUMNS)
        assert all(row.split(",")[1] == "0.000000" for row in b1[1:])


class TestCli:
    def _write_cfg(self, tmp_path, text=BASE_CFG, name="cfg.ini"):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_silent_pdhg_key_exit_code(self, tmp_path, capsys):
        p = self._write_cfg(tmp_path, BASE_CFG.replace("method.name = rapd1",
                                                       "method.name = pdhg")
                            + "method.tau = 0.1\nmethod.sigma = 0.1\nmethod.alpha = 5\n")
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path)]) == 1
        assert "method.alpha = 5.0 does nothing" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path):
        p = self._write_cfg(tmp_path, "problem.typ = nope\n")
        assert cli_main(["run", "--config", str(p)]) == 1

    def test_missing_file_exit_code(self, tmp_path):
        assert cli_main(["run", "--config", str(tmp_path / "absent.ini")]) == 1

    def test_regime_violation_exit_code(self, tmp_path):
        # accelerated steps on a merely convex problem
        p = self._write_cfg(tmp_path, BASE_CFG.replace("method.name = rapd1",
                                                       "method.name = rapd2"))
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path)]) == 2

    def test_run_and_check_roundtrip(self, tmp_path):
        # 300 iterations at m = 2 pass two cache resyncs, which the summary
        # and the CSV header report
        p = self._write_cfg(tmp_path, BASE_CFG.replace("run.K = 50", "run.K = 300"))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(p), "--seed", "0",
                         "--out", str(out)]) == 0
        csv = out / "rapd1_seed0.csv"
        assert csv.exists()
        summary = (out / "rapd1_seed0.summary").read_text().splitlines()
        assert "cache_resyncs=2" in summary
        drift = [line for line in summary if line.startswith("max_cache_drift=")]
        assert len(drift) == 1 and float(drift[0].split("=")[1]) <= 1e-10
        assert any(line.startswith("# cache_resyncs=2 max_cache_drift=")
                   for line in csv.read_text().splitlines())
        assert cli_main(["check", "--config", str(p)]) == 0

    def test_run_byte_identical_bodies(self, tmp_path):
        p = self._write_cfg(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["run", "--config", str(p), "--seed", "1", "--out", str(a)]) == 0
        assert cli_main(["run", "--config", str(p), "--seed", "1", "--out", str(b)]) == 0

        def body(path):
            return b"".join(l for l in path.read_bytes().splitlines(keepends=True)
                            if not l.startswith(b"#"))

        assert body(a / "rapd1_seed1.csv") == body(b / "rapd1_seed1.csv")

    def test_oracle_subcommand(self, tmp_path):
        p = self._write_cfg(tmp_path)
        out = tmp_path / "cert.npz"
        assert cli_main(["oracle", "--config", str(p), "--tol", "1e-8",
                         "--out", str(out)]) == 0
        from rapd.oracle import load_certificate
        cert = load_certificate(out)
        assert cert.certified and cert.kkt_residual <= 1e-8

    def test_oracle_out_without_suffix_round_trips(self, tmp_path, capsys):
        # the certificate is written at the name given, which a config then reads
        p = self._write_cfg(tmp_path)
        out = tmp_path / "mycert"
        assert cli_main(["oracle", "--config", str(p), "--tol", "1e-8",
                         "--out", str(out)]) == 0
        assert capsys.readouterr().out.rstrip().endswith(f"-> {out}")
        assert out.is_file() and not (tmp_path / "mycert.npz").exists()
        q = self._write_cfg(tmp_path, BASE_CFG + f"run.certificate = {out}\n", "run.ini")
        assert cli_main(["run", "--config", str(q), "--seed", "0",
                         "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("case", ["missing", "not-npz", "other-size"])
    def test_bad_certificate_exit_code(self, tmp_path, capsys, case):
        path = tmp_path / "cert.npz"
        if case == "not-npz":
            path.write_text("not a certificate\n")
        elif case == "other-size":
            # BASE_CFG is n = 8, d = 2; this certificate is for n = 16
            save_certificate(path, SaddleCertificate(
                x_star=np.zeros(16), y_star=np.zeros(2), kkt_residual=0.0,
                method="linear-solve", tol=1e-12))
        p = self._write_cfg(tmp_path, BASE_CFG + f"run.certificate = {path}\n")
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        prefix = "invalid setup:" if case == "other-size" else "config error:"
        assert len(err) == 1 and err[0].startswith(prefix) and str(path) in err[0]

    def test_parameter_error_exit_code(self, tmp_path):
        p = self._write_cfg(tmp_path, BASE_CFG + "method.c_tau = 2\n")
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path)]) == 1

    def test_unparsable_probabilities_exit_code(self, tmp_path, capsys):
        p = self._write_cfg(tmp_path, BASE_CFG + "method.p = 0.5,abc\n")
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")

    def test_check_sees_deflated_constants(self, tmp_path, monkeypatch):
        # the true constants pass the smoothness spot-check, the kernel's on
        # the nonnegative B-ball its draws are projected into; constants
        # below the true bounds fail it
        from rapd.kernel_learning import KernelProblem
        drawn = []
        project = KernelProblem.project_primal_domain
        monkeypatch.setattr(KernelProblem, "project_primal_domain",
                            lambda self, x: drawn.append(x) or project(self, x))
        assert cli_main(["check", "--config", str(self._write_cfg(tmp_path, KERNEL_CFG))]) == 0
        assert len(drawn) == 200
        p = self._write_cfg(tmp_path, BILINEAR_CFG)
        assert cli_main(["check", "--config", str(p)]) == 0

        def deflated(cfg):
            problem, x0, y0 = build_problem_from_config(cfg)
            problem.constants = replace(problem.constants, L_yx=problem.constants.L_yx * 0.1)
            return problem, x0, y0

        monkeypatch.setattr(cli, "build_problem_from_config", deflated)
        assert cli_main(["check", "--config", str(p)]) == 4

    def test_check_names_the_dual_norm_of_l_yx(self, tmp_path, capsys):
        for dual, norm in (("entropy", "(linf, l2)"), ("euclidean", "l2")):
            p = self._write_cfg(tmp_path, KERNEL_CFG + f"problem.dual_geometry = {dual}\n")
            assert cli_main(["check", "--config", str(p)]) == 0
            assert re.search(rf"L_yx=\S+ in dual norm {re.escape(norm)},",
                             capsys.readouterr().out), dual

    def test_run_names_only_the_files_it_wrote(self, tmp_path, capsys):
        out = tmp_path / "out"
        for csv, summary, files in ((True, True, ["csv", "summary"]),
                                    (False, True, ["summary"]),
                                    (True, False, ["csv"]), (False, False, [])):
            p = self._write_cfg(tmp_path, BASE_CFG + f"output.csv = {csv}\n"
                                f"output.summary = {summary}\n")
            assert cli_main(["run", "--config", str(p), "--seed", "0", "--out", str(out)]) == 0
            line = capsys.readouterr().out.strip()
            named = [str(out / f"rapd1_seed0.{ext}") for ext in files]
            assert line.startswith(f"wrote {', '.join(named) or 'no files'} (50 iterations")
            assert sorted(f.suffix[1:] for f in out.iterdir()) == files
            for f in out.iterdir():
                f.unlink()

    def test_unwritable_output_exit_code(self, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        p = self._write_cfg(tmp_path)
        # the work a command would write out must not run
        ran = []
        monkeypatch.setattr(cli, "suite_by_name", lambda name: ran.append(name) or (
            SimpleNamespace(lines=lambda: ["report"], passed=True)))
        solve = cli.solve_high_accuracy
        monkeypatch.setattr(cli, "solve_high_accuracy",
                            lambda *a, **kw: ran.append("oracle") or solve(*a, **kw))
        for command in (["run", "--config", str(p), "--out", str(blocker / "sub")],
                        ["bench", "--suite", "bilinear", "--out", str(blocker / "sub")],
                        ["oracle", "--config", str(p), "--out", str(blocker / "sub" / "c.npz")]):
            assert cli_main(command) == 1, command
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("cannot write output: "), command
            assert str(blocker / "sub") in err[0], command
        assert ran == []

    def test_check_estimates_mirror_prox_constant(self, tmp_path, capsys):
        p = self._write_cfg(tmp_path, without_keys(BILINEAR_CFG, "problem.blocks").replace(
            "method.name = rapd1", "method.name = mirror_prox"))
        assert cli_main(["check", "--config", str(p)]) == 0
        assert "mirror-prox constant: estimated L = " in capsys.readouterr().out

    def test_check_fails_where_mirror_prox_has_no_estimate(self, tmp_path, capsys):
        # the kernel coupling has no built-in estimate; check says so before run does
        p = self._write_cfg(tmp_path, without_keys(KERNEL_CFG, "problem.blocks").replace(
            "method.name = rapd1", "method.name = mirror_prox"))
        for command in (["check"], ["run", "--out", str(tmp_path / "out")]):
            assert cli_main(command + ["--config", str(p)]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert err[0].startswith("invalid setup: no built-in Lipschitz estimate")

    def test_dimension_error_exit_code(self, tmp_path):
        p = self._write_cfg(tmp_path, BASE_CFG.replace("problem.blocks = 2",
                                                       "problem.blocks = 9"))
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path)]) == 1

    def test_module_entry_point(self):
        import os
        import subprocess
        import sys
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-m", "rapd.harness.cli", "bench",
                               "--suite", "no-such-suite"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert "unknown suite" in proc.stderr

    def test_divergence_exit_code(self, tmp_path):
        # mirror-prox with a hopeless constant on an unconstrained game
        cfg = without_keys(BASE_CFG, "problem.blocks").replace(
            "method.name = rapd1", "method.name = mirror_prox\nmethod.L = 1e-9")
        cfg = cfg.replace("problem.f = l1", "problem.f = zero")
        cfg = cfg.replace("problem.h = ball", "problem.h = zero")
        cfg = cfg.replace("run.K = 50", "run.K = 20000")
        p = self._write_cfg(tmp_path, cfg)
        assert cli_main(["run", "--config", str(p), "--seed", "0",
                         "--out", str(tmp_path)]) == 3


class TestSuites:
    @pytest.mark.parametrize("build,certify,schedule", [
        (suites.part1_suite_problem, lambda p: solve_high_accuracy(p, tol=1e-10),
         part1_schedule),
        (suites.part2_suite_problem, suites.part2_suite_certificate, part2_init),
        (suites.part1_suite_problem, lambda p: None, part1_schedule)],
        ids=["quadratic", "strongly-convex", "quadratic-no-reference"])
    def test_lockstep_matches_run(self, build, certify, schedule):
        # the rate ensembles' lockstep seeds record what run records and end
        # where it ends, on both suite instances, past the first cache resync
        # at 64 m = 512; without a reference neither measures a record
        from rapd.solver import _FIELDS, _lockstep
        problem, x0, y0 = build()
        cert = certify(problem)
        c, m, K = problem.constants, problem.partition.m, 1200
        sched = schedule(c, m, default_alpha(c))
        pts = [1, 2, 10, 100, 511, 512, 513, 1000]
        lock = _lockstep(problem, sched, K, range(3), x0, y0, pts, cert)
        for seed, tr in enumerate(lock):
            ref = run(problem, sched, K, seed, x0=x0, y0=y0,
                      options=RunOptions(record_at=pts, reference=cert))
            assert ref.cache_resyncs == 2
            assert (tr.iterations, tr.cache_resyncs, tr.max_cache_drift) == (
                ref.iterations, ref.cache_resyncs, ref.max_cache_drift)
            assert [r.k for r in tr.records] == pts + [K]
            for name in _FIELDS:
                if name != "wall_s":
                    a, b = ref.column(name), tr.column(name)
                    assert np.array_equal(a, b, equal_nan=True), name
            for name in ("final_x", "final_y", "ergodic_x", "ergodic_y"):
                assert np.array_equal(getattr(tr, name), getattr(ref, name)), name
            assert tr.geometry_note == ref.geometry_note

    @pytest.mark.parametrize("case", ["other-m", "accelerated-on-curved", "tau", "sigma", "K"])
    def test_lockstep_refuses_what_run_refuses(self, case):
        # one set of start checks: the same class and message as run's
        from rapd.solver import _lockstep
        problem, x0, y0 = suites.part1_suite_problem()
        c, m = problem.constants, problem.partition.m
        sched = part1_schedule(c, m, default_alpha(c))
        c2 = suites.part2_suite_problem()[0].constants
        sched = {"other-m": replace(sched, tau=sched.tau[:m // 2]),
                 "accelerated-on-curved": part2_init(c2, m, default_alpha(c2)),
                 "tau": replace(sched, tau=0.0 * sched.tau),
                 "sigma": replace(sched, sigma=-sched.sigma), "K": sched}[case]
        K = 0 if case == "K" else 100
        with pytest.raises((ParameterError, RegimeError)) as by_run:
            run(problem, sched, K, 0, x0=x0, y0=y0)
        ref = SaddleCertificate(x_star=x0, y_star=y0, kkt_residual=0.0,
                                method="linear-solve", tol=1e-12)
        with pytest.raises(type(by_run.value)) as by_lockstep:
            _lockstep(problem, sched, K, range(2), x0, y0, [], ref)
        assert type(by_lockstep.value) is type(by_run.value)
        assert str(by_lockstep.value) == str(by_run.value)

    @pytest.mark.parametrize("S", [0, -1])
    def test_empty_ensemble_is_refused_first(self, S, monkeypatch):
        # S is checked before the instance is built or certified
        monkeypatch.setattr(suites, "part1_suite_problem", None)
        with pytest.raises(ParameterError, match="S >= 1"):
            suites.quadratic_game_suite(S=S)

    def test_kernel_report_opens_with_its_region(self):
        # the first line names the ball the constants hold on and ||x*||
        cert = SaddleCertificate(x_star=np.array([3.0, 4.0]), y_star=np.zeros(4),
                                 kkt_residual=1e-11, method="extragradient", tol=1e-10)
        res = suites.KernelSuiteResult(oracle=cert, oracle_seconds=0.1,
                                       region_radius=np.sqrt(200))
        assert res.lines()[0].startswith("suite=kernel B=14.14 ||x*||=5 oracle_res=")


@pytest.fixture(scope="module")
def small_desk():
    """The kernel desk at n = 40, m = 4, its certified ``x*`` and both
    schedules."""
    problem, x0, y0, _ = kernel_desk(n=40, m=4)
    cert = solve_high_accuracy(problem, tol=1e-10, x0=x0, y0=y0)
    c = problem.constants
    alpha = default_alpha(c)
    schedules = {"rapd1": part1_schedule(c, 4, alpha), "rapd2": part2_init(c, 4, alpha)}
    return problem, x0, y0, cert.x_star, schedules


class TestTimeToTarget:
    @pytest.mark.parametrize("regime", ["rapd1", "rapd2"])
    def test_stops_at_the_first_epoch_on_target(self, small_desk, regime):
        problem, x0, y0, x_star, schedules = small_desk
        k, seconds, x = time_to_target(problem, schedules[regime], x_star, 1, x0, y0)
        # a plain run of k iterations, scanned at every multiple of m
        m = problem.partition.m
        radius = 1e-3 * np.linalg.norm(x_star)
        hits = []

        def scan(done, xk, yk):
            if done % m == 0 and np.linalg.norm(xk - x_star) <= radius:
                hits.append(done)

        trace = run(problem, schedules[regime], k, 1, x0=x0, y0=y0,
                    options=RunOptions(iterate_hook=scan))
        assert hits == [k]
        assert np.array_equal(x, trace.final_x)
        assert 0 < seconds < suites.TARGET_BUDGET_S

    @pytest.mark.parametrize("regime", ["rapd1", "rapd2"])
    def test_budget_stops_the_run_early(self, small_desk, regime, monkeypatch):
        problem, x0, y0, x_star, schedules = small_desk
        monkeypatch.setattr(suites, "TARGET_BUDGET_S", 1e-3)
        k, seconds, x = time_to_target(problem, schedules[regime], x_star, 1, x0, y0)
        assert k % problem.partition.m == 0
        assert seconds > 1e-3
        assert np.linalg.norm(x - x_star) > 1e-3 * np.linalg.norm(x_star)
