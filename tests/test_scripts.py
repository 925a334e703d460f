import importlib.util
import os
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from rapd import bregman
from rapd.harness import suites
from rapd.harness.cli import cli_main
from rapd.harness.config import parse_config
from rapd.harness.suites import build_problem_from_config
from rapd.stepsize import (check_assumption2, default_alpha, part1_schedule, part2_init,
                           schedule_prefix)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # size_ladder sets the BLAS thread variables when imported
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bit_identity():
    return load_script("bit_identity")


class TestCompare:
    def test_rel_dev_equal_values_written_differently(self, bit_identity):
        for a, b in (("0.0", "-0.0"), ("0", "0.0"), ("1e-3", "0.001")):
            assert bit_identity._rel_dev(a, b) == 0.0
        assert bit_identity._rel_dev("nan", "nan") == 0.0
        assert bit_identity._rel_dev("nan", "NaN") == np.inf
        assert bit_identity._rel_dev("x", "1") == np.inf
        assert bit_identity._rel_dev("2", "-2") == 2.0

    def test_signed_zero_column(self, bit_identity, tmp_path):
        old, new = tmp_path / "old", tmp_path / "new"
        for side, cells in ((old, ("0.0", "4")), (new, ("-0.0", "5"))):
            (side / "cfg").mkdir(parents=True)
            (side / "cfg" / "run.csv").write_text("k,gap,dy\n1,%s,%s\n" % (cells[0], cells[1]))
            np.save(side / "cfg" / "x.npy", np.array([1.0, 2.0]))
        np.save(new / "cfg" / "x.npy", np.array([1.0, 2.5]))
        lines = bit_identity.compare(old, new)
        assert lines == ["cfg/run.csv: max rel deviation dy 2.000e-01",
                         "cfg/x.npy: max abs deviation 5.000e-01"]


class TestProxArtefacts:
    def test_every_prox_friendly_class_has_artefacts(self, bit_identity, tmp_path):
        # the prox/ group is what checks a refactor of rapd.bregman on classes
        # that no config reaches: each concrete class needs its files
        bit_identity.write_prox(tmp_path)
        classes = [c.__name__ for c in vars(bregman).values()
                   if isinstance(c, type) and issubclass(c, bregman.ProxFriendlyFunction)
                   and c.kind != "abstract"]
        assert len(classes) >= 10
        for name in classes:
            for what in ("value", "project", "gap", "prox_t1e-03", "prox_t1e+00",
                         "prox_t1e+03"):
                assert (tmp_path / "prox" / f"{name}_{what}.npy").exists(), name
            for t in ("1e-03", "1e+00", "1e+03"):
                assert any((tmp_path / "prox" / f"{name}_entropy_t{t}{ext}").exists()
                           for ext in (".npy", ".err")), name


class TestPrefix:
    def test_prefix_fields_are_the_replayed_recursion(self, bit_identity, tmp_path):
        text = bit_identity.CONFIGS["quadratic_sc"][0] + "problem.blocks = 8\n"
        bit_identity.write_prefix(tmp_path / "sc", lambda: bit_identity._config_schedule(
            text + "method.name = rapd2\n"))
        cfg = parse_config(text + "method.name = rapd2\n")
        problem = build_problem_from_config(cfg)[0]
        s0 = part2_init(problem.constants, 8, default_alpha(problem.constants))
        prefix = schedule_prefix(s0, bit_identity.PREFIX)
        written = sorted(p.name for p in (tmp_path / "sc").iterdir())
        assert written == sorted(f"rapd2_prefix_{name}.npy"
                                 for name in bit_identity.PREFIX_FIELDS)
        for name in bit_identity.PREFIX_FIELDS:
            arr = np.load(tmp_path / "sc" / f"rapd2_prefix_{name}.npy")
            assert np.array_equal(arr, np.array([getattr(s, name) for s in prefix])), name
        tau = np.load(tmp_path / "sc" / "rapd2_prefix_tau.npy")
        assert tau.shape == (bit_identity.PREFIX + 1, 8)   # one row per state

    def test_schedule_that_raises_leaves_its_error(self, bit_identity, tmp_path):
        # the plain quadratic game has f = l1, no modulus: no accelerated schedule
        text = bit_identity.CONFIGS["quadratic"][0] + "problem.blocks = 8\n"
        bit_identity.write_prefix(tmp_path, lambda: bit_identity._config_schedule(
            text + "method.name = rapd2\n"))
        assert [p.name for p in tmp_path.iterdir()] == ["rapd2_prefix.err"]
        assert (tmp_path / "rapd2_prefix.err").read_text().startswith("RegimeError: ")


class TestPdhgSteps:
    """pdhg's configured steps on the artefact configs against the m = 1
    step-size condition, on the constants of the instance built as one
    block."""

    @staticmethod
    def one_block_constants(text):
        one = text + "problem.blocks = 1\nmethod.name = rapd1\n"
        return build_problem_from_config(parse_config(one))[0].constants

    @staticmethod
    def run_steps(text, monkeypatch):
        """The ``(tau, sigma)`` that ``run_from_config`` hands to ``pdhg_run``."""
        steps = []
        monkeypatch.setattr(suites, "pdhg_run",
                            lambda problem, tau, sigma, K, **kw: steps.append((tau, sigma)))
        suites.run_from_config(parse_config(text + "method.name = pdhg\nrun.K = 1\n"), 0)
        return steps[0]

    def test_default_steps_are_rapd1_steps_at_one_block(self, bit_identity, monkeypatch):
        configs = [text for text, methods, keys in bit_identity.CONFIGS.values()
                   if "pdhg" in methods and not keys]
        assert len(configs) == 5
        for text in configs:
            tau, sigma = self.run_steps(text, monkeypatch)
            c1 = self.one_block_constants(text)
            s1 = part1_schedule(c1, 1, default_alpha(c1))
            assert (tau, sigma) == (float(s1.tau[0]), s1.sigma)
            ran = replace(s1, tau=np.array([tau]), sigma=sigma)
            assert check_assumption2([ran, ran], c1, 1).satisfied

    def test_given_steps_are_used_as_given(self, bit_identity, monkeypatch):
        text = bit_identity.CONFIGS["bilinear"][0] + "method.tau = 0.5\nmethod.sigma = 0.5\n"
        assert self.run_steps(text, monkeypatch) == (0.5, 0.5)

    def test_given_steps_certified_exactly_when_the_condition_holds(self, bit_identity):
        # an unbalanced pair: (1/tau - L_xx) / sigma >= L_yx^2 decides, not tau = sigma
        text = bit_identity.CONFIGS["bilinear"][0]
        c1 = self.one_block_constants(text)
        assert c1.L_yy == 0
        tau = 0.05
        edge = float((1.0 / tau - c1.L_xx[0]) / c1.L_yx[0] ** 2)
        for factor, satisfied in ((0.99, True), (1.01, False)):
            cfg = parse_config(text + f"method.name = pdhg\nmethod.tau = {tau}\n"
                               f"method.sigma = {factor * edge!r}\n")
            sched, constants = suites.make_schedule_from_config(
                cfg, build_problem_from_config(cfg)[0])
            assert sched.m == 1 and constants.L_yx[0] == c1.L_yx[0]
            assert check_assumption2([sched, sched], constants, 1).satisfied is satisfied

    def test_check_exits_4_on_uncertified_steps(self, bit_identity, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        text = bit_identity.CONFIGS["bilinear"][0] + "method.name = pdhg\n"
        # tau = sigma = 1.048 breaks the m = 1 condition by 2.36x
        for steps, code in (("", 0), ("method.tau = 1.048\nmethod.sigma = 1.048\n", 4)):
            path.write_text(text + steps)
            assert cli_main(["check", "--config", str(path)]) == code
            out = capsys.readouterr().out
            assert "step-size condition satisfied" in out if code == 0 else \
                "FAIL: step-size condition\n" in out


class TestSizeLadder:
    def test_rung_reports_finite_values(self):
        # the part-2 suite instance (n = 32), because rung times both step
        # regimes and the part-1 instance has no accelerated one
        from rapd.harness.suites import part2_suite_problem
        ladder = load_script("size_ladder")
        problem, x0, y0 = part2_suite_problem()
        out = ladder.rung(problem, x0, y0, (0.1, 0.1), (20, 5), K=200, seed=0)
        expected = {"n", "m", "n_i", "blas_threads", "block_gradient_us",
                    "product_update_us", "block_prox_us", "dual_prox_us", "full_product_us",
                    "pdhg_iter_us_min", "pdhg_iter_us_p50", "epoch_over_pass"}
        expected |= {f"rapd{r}_iter_us_{s}" for r in (1, 2) for s in ("min", "p50")}
        assert set(out) == expected
        assert (out["n"], out["m"], out["n_i"]) == (32, 8, 4)
        assert all(np.isfinite(v) and v >= 0 for v in out.values())
        assert out["dual_prox_us"] > 0

    def test_kernel_rung_reports_its_certificate(self):
        ladder = load_script("size_ladder")
        ladder.KERNEL_RUNGS = (40,)  # a fresh module: the ladder reads the global per call
        out = next(ladder.kernel_ladder(K=200, seed=0))
        assert (out["n"], out["m"]) == (40, 10)
        assert out["oracle_certified"] is True
        assert out["oracle_iterations"] > 0
        assert out["oracle_s"] > 0

    def test_fastest_of_the_repeats(self):
        ladder = load_script("size_ladder")
        repeats = [{"n": 40, "m": 10, "dual_prox_us": 5.0, "rapd1_iter_us_min": 30.0,
                    "rapd1_iter_us_p50": 40.0, "pdhg_iter_us_min": 60.0, "oracle_s": 0.2,
                    "oracle_iterations": 400, "epoch_over_pass": 5.0},
                   {"n": 40, "m": 10, "dual_prox_us": 4.0, "rapd1_iter_us_min": 36.0,
                    "rapd1_iter_us_p50": 38.0, "pdhg_iter_us_min": 40.0, "oracle_s": 0.3,
                    "oracle_iterations": 400, "epoch_over_pass": 9.0}]
        out = ladder.fastest(repeats)
        assert out == {"n": 40, "m": 10, "dual_prox_us": 4.0, "rapd1_iter_us_min": 30.0,
                       "rapd1_iter_us_p50": 38.0, "pdhg_iter_us_min": 40.0, "oracle_s": 0.2,
                       "oracle_iterations": 400, "epoch_over_pass": 7.5}
