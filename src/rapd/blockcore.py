"""Block partitions and diagonally weighted block norms.

The primal variable is a dense vector partitioned into ``m`` contiguous
blocks of sizes ``n_i``.  All block-diagonal weight matrices used by the
step-size rules and the rate bounds are constant within each block, so a
weight vector of length ``m`` is enough.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError


@dataclass(frozen=True)
class BlockPartition:
    """Partition of ``R^n`` into m contiguous blocks.

    Parameters
    ----------
    sizes : sequence of positive int
        Block lengths ``n_i``; ``n = sum(sizes)``.
    """

    sizes: tuple
    offsets: np.ndarray = field(init=False, repr=False, compare=False)
    _slices: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, sizes):
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 1 or any(s < 1 for s in sizes):
            raise DimensionError(f"block sizes must be positive, got {sizes}")
        object.__setattr__(self, "sizes", sizes)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "_slices", tuple(
            slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:])))

    @property
    def m(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return int(self.offsets[-1])

    def block_slice(self, i: int) -> slice:
        if not 0 <= i < self.m:
            raise DimensionError(f"block index {i} out of range [0, {self.m})")
        return self._slices[i]

    def slices(self) -> tuple:
        return self._slices

    @staticmethod
    def even(n: int, m: int) -> "BlockPartition":
        """Split ``n`` coordinates into ``m`` blocks of ``ceil(n/m)`` from
        the front, shortening blocks where fewer coordinates are left
        than that and one for each block still to come: at most one size
        lies strictly between 1 and ``ceil(n/m)``, and more than the last
        block can be shorter (``even(10, 7)`` is ``2,2,2,1,1,1,1``)."""
        if not 1 <= m <= n:
            raise DimensionError(f"need 1 <= m <= n, got m={m}, n={n}")
        base = -(-n // m)  # ceil
        sizes = []
        left = n
        for j in range(m):
            # keep exactly m nonempty blocks
            take = min(base, left - (m - j - 1))
            sizes.append(take)
            left -= take
        return BlockPartition(sizes)


def weighted_norm_sq_raw(data: np.ndarray, partition: BlockPartition, weights: np.ndarray) -> float:
    """``sum_i weights_i * ||data_i||^2`` over the blocks of ``partition``."""
    return float(weights @ np.add.reduceat(np.square(data), partition.offsets[:-1]))
