"""Deterministic counter-based random numbers for block sampling.

The generator is splitmix64: the state is a 64-bit counter advanced by a
fixed odd constant, and each output is a finalizing hash of the counter.
This keeps runs reproducible from a single integer seed without depending
on any external generator's stream guarantees.  Determinism is promised
per implementation, not bit-for-bit across languages.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ParameterError

_MASK = (1 << 64) - 1
_HALF_MASK = (1 << 32) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """splitmix64 finalizer: hash a 64-bit counter value."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class CounterRng:
    """64-bit counter generator; the full state is ``(seed, counter)``."""

    def __init__(self, seed: int, counter: int = 0):
        self.seed = int(seed) & _MASK
        self.counter = int(counter)

    def next_u64(self) -> int:
        self.counter += 1
        return _mix((self.seed + self.counter * _GAMMA) & _MASK)

    def next_float(self) -> float:
        # 53 significant bits, uniform on [0, 1)
        return (self.next_u64() >> 11) * 2.0**-53


def sample_index(rng: CounterRng, m: int, p: np.ndarray | None = None) -> int:
    """Draw one index from ``{0..m-1}``.

    Uniform sampling uses the rejection-free scaled-integer method
    ``(u64 * m) >> 64``; non-uniform sampling inverts the cumulative
    distribution of ``p``.
    """
    if p is None:
        return (rng.next_u64() * m) >> 64
    u = rng.next_float()
    return int(np.searchsorted(np.cumsum(p), u, side="right").clip(0, m - 1))


def sample_indices(seed: int, m: int, count: int, p: np.ndarray | None = None,
                   start: int = 0) -> np.ndarray:
    """Vectorized :func:`sample_index`: draws ``start + 1 .. start + count``
    of the stream.

    Produces exactly the sequence a fresh ``CounterRng(seed)`` would after
    ``start`` draws.  Uniform sampling needs ``m < 2^32 - 1``: it forms
    ``(z * m) >> 64`` in uint64 from the 32-bit halves of ``z``.
    """
    if p is None and not 0 < m < _HALF_MASK:
        raise ParameterError(f"uniform sampling needs 0 < m < 2^32 - 1, got {m}")
    z = (np.uint64(int(seed) & _MASK)
         + np.arange(start + 1, start + count + 1, dtype=np.uint64) * np.uint64(_GAMMA))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    if p is None:
        # z m = hi m 2^32 + lo m with 32-bit halves hi, lo: no product overflows
        m64, half = np.uint64(m), np.uint64(32)
        low = ((z & np.uint64(_HALF_MASK)) * m64) >> half
        return (((z >> half) * m64 + low) >> half).astype(np.int64)
    u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return np.searchsorted(np.cumsum(p), u, side="right").clip(0, m - 1).astype(np.int64)
