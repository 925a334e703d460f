import numpy as np
import pytest
from dataclasses import replace

from rapd.blockcore import BlockPartition
from rapd.bregman import SquaredL2, Zero
from rapd.exceptions import ConfigError, ParameterError, RegimeError
from rapd.harness.cli import cli_main
from rapd.harness.config import load_config, parse_config
from rapd.harness.metrics import (fit_loglog, lagrangian_gap, rate_bound_delta1,
                                  rate_bound_delta2, slope_fit)
from rapd.harness.suites import (CSV_COLUMNS, bilinear_game, build_problem_from_config,
                                 record_points, run_from_config, write_trace_csv)
from rapd.oracle import SaddleCertificate, save_certificate, solve_quadratic_game_exact
from rapd.problem import build_quadratic_game
from rapd.solver import RunTrace, TraceRecord, run
from rapd.stepsize import default_alpha, nonuniform_weights, part1_schedule, part2_init


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
                     "method.p": "0.75,0.25", "method.lipschitz_scale": "0.5",
                     "method.tau": "0.1", "method.sigma": "0.1", "method.L": "3"}

    def _with_method_key(self, method, key):
        return (BASE_CFG.replace("method.name = rapd1", f"method.name = {method}")
                + f"{key} = {self.METHOD_VALUES[key]}\n")

    def test_method_keys_the_method_never_reads_rejected(self):
        rejected = [("method.c_tau", "rapd2"), ("method.p", "pdhg")]
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
        accepted += [(k, "pdhg") for k in ("method.alpha", "method.c_tau", "method.c_sigma",
                                           "method.tau", "method.sigma")]
        accepted += [("method.L", "mirror_prox")]
        accepted += [("method.lipschitz_scale", m)
                     for m in ("rapd1", "rapd2", "pdhg", "mirror_prox")]
        for key, method in accepted:
            parse_config(self._with_method_key(method, key))
        # a key the method does not read may still be written at its default
        parse_config(BASE_CFG.replace("method.name = rapd1", "method.name = mirror_prox")
                     + "method.c_tau = 0.99\nmethod.p = uniform\n")

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

    def test_pdhg_step_keys_a_given_step_silences_rejected(self):
        pdhg = BASE_CFG.replace("method.name = rapd1", "method.name = pdhg")
        both = pdhg + "method.tau = 0.1\nmethod.sigma = 0.2\n"
        for key in ("method.alpha", "method.c_tau", "method.c_sigma"):
            with pytest.raises(ConfigError, match=f"{key} .*method.name = pdhg given "
                                                  "method.tau and method.sigma; leave it"):
                parse_config(both + f"{key} = {self.METHOD_VALUES[key]}\n")
        # one given step silences only its own constant
        for given, silent, read in (("method.tau", "method.c_tau", "method.c_sigma"),
                                    ("method.sigma", "method.c_sigma", "method.c_tau")):
            text = pdhg + f"{given} = 0.1\n"
            with pytest.raises(ConfigError, match=f"{silent} .*given {given};"):
                parse_config(text + f"{silent} = 0.5\n")
            parse_config(text + f"{read} = 0.5\nmethod.alpha = 2\n")

    def test_probabilities(self):
        cfg = parse_config(BASE_CFG.replace("method.name = rapd1",
                                            "method.name = rapd1\nmethod.p = 0.75,0.25"))
        p = cfg.probabilities(2)
        assert p == pytest.approx([0.75, 0.25])
        with pytest.raises(ConfigError):
            cfg.probabilities(3)

    def test_lipschitz_scale_every_type(self):
        for kind, unread in (("quadratic_game", ()), ("bilinear_erm", ()),
                             ("constrained", FH_KEYS[2:]), ("kernel", FH_KEYS)):
            text = without_keys(BILINEAR_CFG.replace("bilinear_erm", kind).replace(
                "problem.n = 8", "problem.n = 12"), *unread)
            default, _, _ = build_problem_from_config(parse_config(text))
            half, _, _ = build_problem_from_config(
                parse_config(text + "method.lipschitz_scale = 0.5\n"))
            a, b = default.constants, half.constants
            assert np.array_equal(b.L_xx, 0.5 * a.L_xx), kind
            assert np.array_equal(b.L_yx, 0.5 * a.L_yx), kind
            assert b.L_yy == 0.5 * a.L_yy, kind
            assert np.array_equal(b.mu, a.mu), kind

    def test_sampling_probabilities_reach_the_run(self):
        # non-uniform constant steps need a coupling linear in the dual
        cfg = parse_config(BILINEAR_CFG + "method.p = 0.75,0.25\n")
        tr = run_from_config(cfg, seed=4)
        problem, x0, y0 = build_problem_from_config(cfg)
        c = problem.constants
        sched = nonuniform_weights(c, 2, default_alpha(c), np.array([0.75, 0.25]),
                                   regime="part1", c_tau=0.99, c_sigma=0.99)
        ref = run(problem, sched, 50, 4, x0=x0, y0=y0)
        assert np.array_equal(tr.final_x, ref.final_x)
        assert np.array_equal(tr.final_y, ref.final_y)
        uniform = run_from_config(parse_config(BILINEAR_CFG), seed=4)
        assert not np.array_equal(tr.final_x, uniform.final_x)


def quadratic_with_cert(seed=1, n=6, d=2, m=3):
    rng = np.random.default_rng(seed)
    part = BlockPartition.even(n, m)
    M = rng.standard_normal((n, n))
    N = rng.standard_normal((d, d))
    prob = build_quadratic_game(M @ M.T / n + np.eye(n) * 0.3,
                                N @ N.T / d + np.eye(d) * 0.3,
                                rng.standard_normal((d, n)),
                                rng.standard_normal(n), rng.standard_normal(d),
                                part)
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
        import logging
        prob, cert = quadratic_with_cert()
        prob.h = __import__("rapd.bregman", fromlist=["IndicatorBall"]).IndicatorBall(0.5)
        far = np.array([10.0, 10.0])
        with caplog.at_level(logging.WARNING):
            val = lagrangian_gap(prob, cert.x_star, far, cert)
        assert np.isfinite(val)
        assert any("projecting" in r.message for r in caplog.records)


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
        tr = RunTrace(method="x", seed=0, partition=BlockPartition([1]))
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

    def test_check_sees_deflated_constants(self, tmp_path):
        # constants scaled below the true bounds fail the smoothness spot-check
        p = self._write_cfg(tmp_path, BILINEAR_CFG)
        assert cli_main(["check", "--config", str(p)]) == 0
        p = self._write_cfg(tmp_path, BILINEAR_CFG + "method.lipschitz_scale = 0.1\n")
        assert cli_main(["check", "--config", str(p)]) == 4
        p = self._write_cfg(tmp_path, BILINEAR_CFG + "method.lipschitz_scale = 0\n")
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path)]) == 1

    def test_check_estimates_mirror_prox_constant(self, tmp_path, capsys):
        p = self._write_cfg(tmp_path, BILINEAR_CFG.replace("method.name = rapd1",
                                                           "method.name = mirror_prox"))
        assert cli_main(["check", "--config", str(p)]) == 0
        assert "mirror-prox constant: estimated L = " in capsys.readouterr().out

    def test_check_fails_where_mirror_prox_has_no_estimate(self, tmp_path, capsys):
        # the kernel coupling has no built-in estimate; check says so before run does
        cfg = without_keys(BASE_CFG, *FH_KEYS).replace("problem.type = quadratic_game",
                                                       "problem.type = kernel")
        cfg = cfg.replace("method.name = rapd1", "method.name = mirror_prox")
        cfg = cfg.replace("problem.n = 8", "problem.n = 40").replace(
            "problem.blocks = 2", "problem.blocks = 4")
        p = self._write_cfg(tmp_path, cfg)
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
        cfg = BASE_CFG.replace("method.name = rapd1", "method.name = mirror_prox\nmethod.L = 1e-9")
        cfg = cfg.replace("problem.f = l1", "problem.f = zero")
        cfg = cfg.replace("problem.h = ball", "problem.h = zero")
        cfg = cfg.replace("run.K = 50", "run.K = 20000")
        p = self._write_cfg(tmp_path, cfg)
        assert cli_main(["run", "--config", str(p), "--seed", "0",
                         "--out", str(tmp_path)]) == 3


class TestSuites:
    def test_workers_leave_reports_unchanged(self, monkeypatch):
        # the rate ensembles spread their seeds over the usable CPUs; two
        # workers and one must give every report field bit for bit
        from dataclasses import asdict
        from rapd.harness import suites
        runs = (lambda: suites.quadratic_game_suite(S=2),
                lambda: suites.strongly_convex_suite(S=2))
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
        spread = [repr(asdict(suite())) for suite in runs]
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 1)
        assert [repr(asdict(suite())) for suite in runs] == spread
