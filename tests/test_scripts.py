import importlib.util
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

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
