import importlib.util
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture(scope="module")
def bit_identity():
    spec = importlib.util.spec_from_file_location("bit_identity",
                                                  SCRIPTS / "bit_identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
