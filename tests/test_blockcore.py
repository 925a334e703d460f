import numpy as np
import pytest

from rapd.blockcore import BlockPartition, weighted_norm_sq_raw
from rapd.exceptions import DimensionError


def bv(blocks):
    part = BlockPartition([len(b) for b in blocks])
    return np.concatenate([np.asarray(b, float) for b in blocks]), part


def blocks_of(x, part):
    return [x[sl] for sl in part.slices()]


class TestWeightedNorm:
    def test_unit_weights_euclidean(self):
        x, part = bv([(1.0, 0.0), (0.0, 2.0)])
        assert weighted_norm_sq_raw(x, part, np.array([1.0, 1.0])) == pytest.approx(5.0)

    def test_zero_weights(self):
        x, part = bv([(3.0, -1.0), (2.0,)])
        assert weighted_norm_sq_raw(x, part, np.zeros(2)) == 0.0

    def test_hand_weighted(self):
        # 2*9 + 0.5*16, cross-checked by the scalar loop below
        x, part = bv([(3.0,), (4.0,)])
        d = np.array([2.0, 0.5])
        assert weighted_norm_sq_raw(x, part, d) == pytest.approx(26.0)
        acc = 0.0
        for i, xi in enumerate(blocks_of(x, part)):
            acc += d[i] * sum(v * v for v in xi)
        assert weighted_norm_sq_raw(x, part, d) == pytest.approx(acc)

    def test_scalar_loop_oracle_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            sizes = rng.integers(1, 5, size=rng.integers(1, 6))
            x, part = bv([rng.standard_normal(s) for s in sizes])
            d = rng.uniform(0, 3, size=len(sizes))
            acc = sum(d[i] * float(xi @ xi) for i, xi in enumerate(blocks_of(x, part)))
            assert weighted_norm_sq_raw(x, part, d) == pytest.approx(acc, rel=1e-12)

    def test_additivity_in_weights(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            sizes = rng.integers(1, 6, size=rng.integers(1, 5))
            x, part = bv([rng.standard_normal(s) * 10 for s in sizes])
            d1 = rng.uniform(0, 2, len(sizes))
            d2 = rng.uniform(0, 2, len(sizes))
            lhs = weighted_norm_sq_raw(x, part, d1 + d2)
            rhs = weighted_norm_sq_raw(x, part, d1) + weighted_norm_sq_raw(x, part, d2)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    def test_unit_weights_match_numpy(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            sizes = rng.integers(1, 7, size=rng.integers(1, 5))
            x, part = bv([rng.standard_normal(s) for s in sizes])
            assert weighted_norm_sq_raw(x, part, np.ones(len(sizes))) == pytest.approx(
                float(np.linalg.norm(x) ** 2), rel=1e-12)


class TestBlockView:
    """Blocks are addressed as ``x[partition.block_slice(i)]``."""

    def test_single_block_is_whole_vector(self):
        x, part = bv([(1.0, 2.0, 3.0)])
        assert np.array_equal(x[part.block_slice(0)], x)

    def test_slice(self):
        x, part = bv([(1.0, 2.0), (3.0,)])
        assert np.array_equal(x[part.block_slice(1)], [3.0])

    def test_write_through_round_trip(self):
        x, part = bv([(1.0, 2.0), (3.0, 4.0)])
        before = x.copy()
        view = x[part.block_slice(1)]
        view[:] = [7.0, 8.0]
        assert np.array_equal(x[part.block_slice(1)], [7.0, 8.0])
        assert np.array_equal(x[part.block_slice(0)], before[:2])  # untouched

    def test_index_out_of_range(self):
        _, part = bv([(1.0,)])
        with pytest.raises(DimensionError):
            part.block_slice(1)


class TestPartition:
    def test_offsets(self):
        part = BlockPartition([2, 3, 1])
        assert part.m == 3 and part.n == 6
        assert list(part.offsets) == [0, 2, 5, 6]

    def test_even_split(self):
        # ceil-sized blocks, last block shorter when m does not divide n
        part = BlockPartition.even(10, 4)
        assert sum(part.sizes) == 10 and part.m == 4
        assert part.sizes[-1] == min(part.sizes)
        assert all(s == part.sizes[0] for s in part.sizes[:-1])
        assert BlockPartition.even(12, 4).sizes == (3, 3, 3, 3)

    def test_bad_sizes(self):
        with pytest.raises(DimensionError):
            BlockPartition([2, 0])
        with pytest.raises(DimensionError):
            BlockPartition.even(3, 5)
