"""Saddle-problem oracles and concrete problem builders.

A :class:`SaddleProblem` bundles everything the solvers consume: block
partition, per-block nonsmooth terms ``f_i`` with their moduli, the dual
term ``h``, the coupling, Lipschitz constants, the dual Bregman geometry
and the primal prox.  The primal side is Euclidean, as in the paper:
:meth:`SaddleProblem.block_prox` is the one primal prox formula.  The
whole primal term ``sum_i f_i(x_i)`` is one function, ``f_whole``, built
once: ``f[0]`` itself when one coordinatewise ``f`` covers every block,
else the :class:`~rapd.bregman.Separable` of the blocks.  Its prox is
:meth:`SaddleProblem.primal_prox`, its value :meth:`SaddleProblem.f_value`,
and the metrics and the oracle project onto its domain, so none of them
depends on the partition where one ``f`` covers every block.

A coupling implements five methods: ``phi_value``, the primal product
``w = K x`` (``primal_product``) and its move from one block
(``grad_y_incremental``), and the read-offs ``grad_y_cached`` and
``grad_x_cached`` of ``w``; the primal read-off takes the coordinates
it returns, one block's slice or ``slice(None)`` for all of them.  The
stateless ``grad_y``, ``grad_x_block`` and ``grad_x`` are derived from
them, so a check of a stateless oracle checks the read-off a solver
calls.

A full pass (the baselines, the certificate oracle) makes one call per
oracle: one primal product per point, both gradients read off it, and
one :meth:`SaddleProblem.primal_prox`.

Builders: bilinear empirical-risk coupling, quadratic two-player game,
and the affinely constrained program reformulated with a dual-ball cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .blockcore import BlockPartition
from .bregman import (BregmanGeometry, ConeDualBall, EuclideanGeometry,
                      ProxFriendlyFunction, Separable, Zero)
from .exceptions import DimensionError, ParameterError

#: substitute for structurally zero couplings; the step formulas require
#: strictly positive per-block dual-coupling constants
ZERO_COUPLING_FLOOR = 1e-12


def spectral_norm(mat: np.ndarray) -> float:
    """Exact spectral norm: the square root of the largest eigenvalue of
    the smaller of the two Gram matrices ``mat.T @ mat`` and ``mat @ mat.T``."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    gram = mat.T @ mat if mat.shape[0] >= mat.shape[1] else mat @ mat.T
    return float(np.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)))


#: the most Gram entries :func:`block_norms` stacks at once (256 kB)
GRAM_BATCH = 1 << 15


def block_norms(mat: np.ndarray, partition: BlockPartition) -> np.ndarray:
    """``spectral_norm(mat[:, sl])`` of each block's columns, bit for bit.
    Consecutive blocks of one size are one view of ``mat``, every block at
    its own strides, so one stacked product makes each Gram by the single
    block's BLAS call, and one batched ``eigvalsh`` takes the largest
    eigenvalues; at most ``GRAM_BATCH`` Gram entries at a time."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    rows = mat.shape[0]
    starts = partition.offsets.tolist()
    out = np.empty(partition.m)
    i = 0
    for size, run in itertools.groupby(partition.sizes):
        end = i + len(list(run))
        per = max(GRAM_BATCH // min(rows, size) ** 2, 1)
        for j in range(i, end, per):
            count = min(per, end - j)
            lo = starts[j]
            blocks = mat[:, lo:lo + count * size].reshape(rows, count, size).transpose(1, 0, 2)
            tr = blocks.transpose(0, 2, 1)
            gram = tr @ blocks if rows >= size else blocks @ tr
            out[j:j + count] = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
        i = end
    return out


@dataclass
class LipschitzConstants:
    """Per-block smoothness data consumed by the step-size rules."""

    L_xx: np.ndarray   # coordinate-wise primal Lipschitz constants, >= 0
    L_yx: np.ndarray   # dual/primal coupling constants, > 0
    L_yy: float        # dual Lipschitz constant, >= 0
    mu: np.ndarray     # strong-convexity moduli of the f_i

    def __post_init__(self):
        self.L_xx = np.asarray(self.L_xx, dtype=float)
        self.L_yx = np.maximum(np.asarray(self.L_yx, dtype=float), ZERO_COUPLING_FLOOR)
        self.L_yy = float(self.L_yy)
        self.mu = np.asarray(self.mu, dtype=float)


class SaddleProblem:
    """Oracle bundle for ``min_x max_y  sum_i f_i(x_i) + phi(x, y) - h(y)``."""

    def __init__(self, partition: BlockPartition, dual_dim: int,
                 f: list, h: ProxFriendlyFunction,
                 constants: LipschitzConstants,
                 dual_geometry: BregmanGeometry | None = None):
        if len(f) != partition.m:
            raise DimensionError(f"need {partition.m} block functions, got {len(f)}")
        self.partition = partition
        self.dual_dim = int(dual_dim)
        self.f = list(f)
        self.h = h
        self.constants = constants
        self.dual_geometry = dual_geometry or EuclideanGeometry(dual_dim)
        # sum_i f_i(x_i) as one function of x: f[0] when every f_i is a
        # coordinatewise function of f[0]'s type and parameters, else the
        # f_i side by side
        f0 = self.f[0]
        one = f0.coordinatewise and all(type(fi) is type(f0) and vars(fi) == vars(f0)
                                        for fi in self.f)
        self.f_whole = f0 if one else Separable(list(zip(self.f, partition.sizes)))

    # -- coupling oracles ------------------------------------------------
    #
    # A coupling implements the five methods phi_value, primal_product,
    # grad_y_incremental and the read-offs *_cached.  The primal product
    # w = K x carries every part of grad_y and grad_x that costs more than
    # one block: run moves it from the changed block alone and reads the
    # dual and block gradients off it; a full pass computes it once per
    # point.  The stateless oracles the checkers call are derived from the
    # product and the read-offs, so they check what the solvers call.
    # Per-iteration products call ndarray.dot, the same BLAS call as @ with
    # less dispatch, where it gives the same bits; on a view contiguous in
    # neither order (the quadratic game's C[:, sl].T) it sums in another
    # order, so @ stays there.

    def phi_value(self, x: np.ndarray, y: np.ndarray) -> float:
        raise NotImplementedError

    def grad_x_block(self, i: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Primal gradient of block ``i`` at ``(x, y)``."""
        return self.grad_x_cached(self.primal_product(x), x, y,
                                  self.partition.block_slice(i))

    def grad_x(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Full primal gradient at ``(x, y)``."""
        return self.grad_x_cached(self.primal_product(x), x, y, slice(None))

    def grad_y(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Full dual gradient at ``(x, y)``."""
        return self.grad_y_cached(self.primal_product(x), x, y)

    def primal_product(self, x: np.ndarray) -> np.ndarray:
        """The coupling's linear primal product ``w = K x``, as a new array."""
        raise NotImplementedError

    def grad_y_incremental(self, w: np.ndarray, i: int, dx: np.ndarray) -> None:
        """Move ``w = K x`` in place to ``K (x + U_i dx)``, at O(block) cost."""
        raise NotImplementedError

    def grad_y_cached(self, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``grad_y(x, y)`` read off ``w = K x``.  Always a new array, never
        ``w`` itself, so a caller may keep it while ``w`` moves on."""
        raise NotImplementedError

    def grad_x_cached(self, w: np.ndarray, x: np.ndarray, y: np.ndarray,
                      sl: slice) -> np.ndarray:
        """``grad_x(x, y)[sl]`` read off ``w = K x``: one block's gradient
        at its slice, the whole gradient at ``slice(None)``."""
        raise NotImplementedError

    # -- primal prox -----------------------------------------------------

    def block_prox(self, i: int, step: float, grad: np.ndarray,
                   x_i: np.ndarray) -> np.ndarray:
        """The Euclidean prox step on block ``i``, as a new array:
        ``argmin_u f_i(u) + <grad, u> + ||u - x_i||^2 / (2 step)``."""
        if grad.shape != x_i.shape:
            raise DimensionError(f"gradient of shape {grad.shape} for block {i} "
                                 f"of shape {x_i.shape}")
        return self.f[i].prox_euclidean(step, x_i - step * grad)

    def primal_prox(self, step: float, grad: np.ndarray, x: np.ndarray) -> np.ndarray:
        """:meth:`block_prox` on every block at the whole gradient ``grad``,
        as a new array: the prox of ``f_whole``, one call on the whole vector."""
        if grad.shape != x.shape:
            raise DimensionError(f"gradient of shape {grad.shape} for the primal "
                                 f"vector of shape {x.shape}")
        return self.f_whole.prox_euclidean(step, x - step * grad)

    # -- convenience -----------------------------------------------------

    def f_value(self, x: np.ndarray) -> float:
        return self.f_whole.value(x)

    def lagrangian(self, x: np.ndarray, y: np.ndarray) -> float:
        return self.f_value(x) + self.phi_value(x, y) - self.h.value(y)

    def project_primal_domain(self, x: np.ndarray) -> np.ndarray:
        """The region the smoothness constants are stated for: all of the
        primal space unless a problem narrows it."""
        return x

    def initial_point(self, x0=None, y0=None):
        """Float copies of ``(x0, y0)``, checked for shape; zeros where a
        start is not given."""
        x = np.zeros(self.partition.n) if x0 is None else np.array(x0, dtype=float)
        y = np.zeros(self.dual_dim) if y0 is None else np.array(y0, dtype=float)
        if x.shape != (self.partition.n,) or y.shape != (self.dual_dim,):
            raise DimensionError(
                f"start of shapes {x.shape} and {y.shape}; the problem needs "
                f"({self.partition.n},) and ({self.dual_dim},)")
        return x, y


class BilinearProblem(SaddleProblem):
    """``phi(x, y) = <A x, y> + p'x - q'y`` with per-block columns ``A_i``
    and optional linear terms ``p``, ``q``; separable across blocks, so
    the dual gradient updates incrementally.

    The coupling is stored once, as the C-ordered ``(n, d)`` array ``A'``
    copied in block by block: each ``A_blocks[i]`` is an F-contiguous
    view of it, so both block products ``A_i v`` and ``A_i' y`` read
    contiguous memory, and ``A`` is its transpose.  No reference to the
    caller's arrays is kept."""

    def __init__(self, A_blocks, f, h, partition=None, p=None, q=None):
        blocks = [np.atleast_2d(np.asarray(A, dtype=float)) for A in A_blocks]
        dual_dim = blocks[0].shape[0]
        if any(A.shape[0] != dual_dim for A in blocks):
            raise DimensionError("all coupling blocks must share the dual dimension")
        sizes = [A.shape[1] for A in blocks]
        partition = partition or BlockPartition(sizes)
        if list(partition.sizes) != sizes:
            raise DimensionError("partition sizes do not match coupling blocks")
        At = np.empty((partition.n, dual_dim))
        for sl, A in zip(partition.slices(), blocks):
            # transpose in bands of rows: one strided pass over a whole
            # block of a wide matrix runs about half as fast
            for r in range(0, dual_dim, 16):
                At[sl, r:r + 16] = A[r:r + 16].T
        self.A_blocks = [At[sl].T for sl in partition.slices()]
        self.A = At.T
        constants = LipschitzConstants(
            L_xx=np.zeros(partition.m),
            L_yx=block_norms(self.A, partition),
            L_yy=0.0,
            mu=np.array([fi.modulus for fi in f]),
        )
        super().__init__(partition, dual_dim, f, h, constants)
        self.p = None if p is None else np.array(p, dtype=float)
        self.q = None if q is None else np.array(q, dtype=float)
        if self.p is not None and self.p.shape != (partition.n,):
            raise DimensionError(f"p must have length {partition.n}")
        if self.q is not None and self.q.shape != (dual_dim,):
            raise DimensionError(f"q must have length {dual_dim}")

    def phi_value(self, x, y):
        val = float(y @ (self.A @ x))
        if self.p is not None:
            val = val + float(self.p @ x)
        if self.q is not None:
            val = val - float(self.q @ y)
        return val

    def grad_x_cached(self, w, x, y, sl):
        # the primal gradient does not read A x
        g = self.A.T[sl].dot(y)
        return g if self.p is None else g + self.p[sl]

    def primal_product(self, x):
        return self.A @ x

    def grad_y_incremental(self, w, i, dx):
        w += self.A_blocks[i].dot(dx)

    def grad_y_cached(self, w, x, y):
        return w.copy() if self.q is None else w - self.q


class QuadraticGameProblem(SaddleProblem):
    """``phi = 0.5 x'Px + p'x + y'Cx - 0.5 y'Qy - q'y`` with P, Q
    symmetric PSD; strongly convex in x when P is definite and linear in
    y when Q = 0.  The primal product is ``w = (C x, P x)``."""

    def __init__(self, P, Q, C, p, q, partition, f=None, h=None):
        P = np.asarray(P, dtype=float)
        Q = np.asarray(Q, dtype=float)
        C = np.atleast_2d(np.asarray(C, dtype=float))
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        d, n = C.shape
        if P.shape != (n, n) or Q.shape != (d, d) or p.shape != (n,) or q.shape != (d,):
            raise DimensionError("quadratic game dimensions are inconsistent")
        if partition.n != n:
            raise DimensionError(f"partition of {partition.n} coordinates for {n} primal ones")
        for name, M in (("P", P), ("Q", Q)):
            if not np.allclose(M, M.T, atol=1e-10):
                raise ParameterError(f"{name} must be symmetric")
            if M.size and float(np.linalg.eigvalsh(M).min()) < -1e-10:
                raise ParameterError(f"{name} must be positive semidefinite")
        f = f or [Zero() for _ in partition.sizes]
        h = h or Zero()
        slices = partition.slices()
        constants = LipschitzConstants(
            L_xx=block_norms(P, partition),
            L_yx=block_norms(C, partition),
            L_yy=spectral_norm(Q),
            mu=np.array([fi.modulus for fi in f]),
        )
        super().__init__(partition, d, f, h, constants)
        self.P, self.Q, self.C, self.p, self.q = P, Q, C, p, q
        self._K = np.vstack([C, P])
        self._K_cols = [self._K[:, sl] for sl in slices]
        self._dual_curved = bool(Q.any())

    def phi_value(self, x, y):
        return float(0.5 * x @ (self.P @ x) + self.p @ x + y @ (self.C @ x)
                     - 0.5 * y @ (self.Q @ y) - self.q @ y)

    def grad_x_cached(self, w, x, y, sl):
        return w[self.dual_dim:][sl] + self.p[sl] + self.C[:, sl].T @ y

    def primal_product(self, x):
        return self._K @ x

    def grad_y_incremental(self, w, i, dx):
        w += self._K_cols[i].dot(dx)

    def grad_y_cached(self, w, x, y):
        g = w[:self.dual_dim]
        if self._dual_curved:
            g = g - self.Q.dot(y)
        return g - self.q


def estimate_operator_lipschitz(problem: SaddleProblem) -> float:
    """Lipschitz constant of the first-order map for (bi)linear-quadratic
    couplings, via the spectral norm of the linearization."""
    if isinstance(problem, BilinearProblem):
        return spectral_norm(problem.A)
    if isinstance(problem, QuadraticGameProblem):
        top = np.hstack([problem.P, problem.C.T])
        bot = np.hstack([-problem.C, problem.Q])
        return spectral_norm(np.vstack([top, bot]))
    raise ParameterError("no built-in Lipschitz estimate for this coupling; "
                         "pass L explicitly")


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_bilinear_erm(A_blocks, f, h, partition=None, p=None, q=None) -> BilinearProblem:
    """Risk-minimization style bilinear coupling ``phi = sum <A_i x_i, y>``."""
    return BilinearProblem(A_blocks, f, h, partition=partition, p=p, q=q)


def build_quadratic_game(P, Q, C, p, q, partition, f=None, h=None) -> QuadraticGameProblem:
    """Convex-concave quadratic game; see :class:`QuadraticGameProblem`."""
    return QuadraticGameProblem(P, Q, C, p, q, partition, f=f, h=h)


def build_constrained(P, p, A, b, B, partition, f=None) -> QuadraticGameProblem:
    """Saddle form of ``min sum_i f_i(x_i) + 0.5 x'Px + p'x  s.t.  A x + b <= 0``
    with a known bound B on the multiplier: the quadratic game with
    ``C = A``, ``q = -b`` and ``Q = 0``, and ``h`` the indicator of the
    nonnegative orthant capped at radius B."""
    d = np.size(b)
    return QuadraticGameProblem(P, np.zeros((d, d)), A, p, -np.asarray(b, dtype=float),
                                partition, f=f, h=ConeDualBall("nonneg", B))


# ---------------------------------------------------------------------------
# numerical validation
# ---------------------------------------------------------------------------

def grad_check(problem: SaddleProblem, num_points: int = 10, epsilon: float = 1e-5) -> float:
    """Central-difference check of the coupling gradients.

    Returns the worst relative error over random interior points; a
    corrupted gradient shows up as an O(1) error.  The primal side checks
    both the whole-vector ``grad_x`` and the concatenated ``grad_x_block``:
    the one read-off of ``w = K x`` at ``slice(None)`` and at each block's
    slice.
    """
    if not 1e-8 < epsilon < 1e-3:
        raise ParameterError(f"epsilon must be in (1e-8, 1e-3), got {epsilon}")
    rng = np.random.default_rng(0)
    part = problem.partition
    worst = 0.0
    for _ in range(num_points):
        x = rng.standard_normal(part.n)
        y = _interior_dual_point(problem, rng)
        # primal blocks
        fd_g = np.zeros(part.n)
        for j in range(part.n):
            e = np.zeros(part.n)
            e[j] = epsilon
            fd_g[j] = (problem.phi_value(x + e, y) - problem.phi_value(x - e, y)) / (2 * epsilon)
        blocks = np.concatenate([problem.grad_x_block(i, x, y) for i in range(part.m)])
        worst = max(worst, _rel_err(fd_g, blocks), _rel_err(fd_g, problem.grad_x(x, y)))
        # dual side
        fd_h = np.zeros(problem.dual_dim)
        for j in range(problem.dual_dim):
            e = np.zeros(problem.dual_dim)
            e[j] = epsilon
            fd_h[j] = (problem.phi_value(x, y + e) - problem.phi_value(x, y - e)) / (2 * epsilon)
        gy = problem.grad_y(x, y)
        worst = max(worst, _rel_err(fd_h, gy))
    return worst


def _rel_err(a, b):
    return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b)))


def _interior_dual_point(problem, rng):
    """Random dual point in the interior of dom h (needed for convexity
    of couplings whose curvature depends on y, e.g. kernel weights)."""
    return problem.h.project_domain(rng.standard_normal(problem.dual_dim))


def lipschitz_spot_check(problem: SaddleProblem, draws: int = 1000, seed: int = 0,
                         x_scale: float = 1.0, v_scale: float = 1.0) -> dict:
    """Sampled residuals for the coordinate-smoothness bounds.

    For random ``(x, v, y, ybar)``, ``x`` drawn through
    :meth:`SaddleProblem.project_primal_domain`, the four inequalities
    below must hold; reported values are worst signed slacks (>= 0 means
    satisfied).  ``||y-ybar||`` is the dual geometry's ``ref_norm`` and
    ``||.||_*`` its ``dual_norm``; all other norms are l2:

    - ``L_xx``:  L_xx_i*||v|| - ||grad_xi phi(x+U_i v, y) - grad_xi phi(x, y)||
    - ``L_yx``:  L_yy*||y-ybar|| + L_yx_i*||v||
                 - ||grad_y phi(x+U_i v, ybar) - grad_y phi(x, y)||_*
    - ``convexity``: both sides of the Bregman sandwich
      ``0 <= phi(x+U_i v, y) - phi(x, y) - <grad_xi phi(x, y), v>
         <= 0.5*L_xx_i*||v||^2``
    - ``concavity``: ``0 >= phi(x, y) - phi(x, ybar) - <grad_y phi(x, ybar), y-ybar>
         >= -0.5*L_yy*||y-ybar||^2``
    """
    rng = np.random.default_rng(seed)
    part = problem.partition
    c = problem.constants
    geom = problem.dual_geometry
    out = {"L_xx": np.inf, "L_yx": np.inf, "convexity_lo": np.inf,
           "convexity_hi": np.inf, "concavity_hi": np.inf, "concavity_lo": np.inf}
    for _ in range(draws):
        x = problem.project_primal_domain(rng.standard_normal(part.n) * x_scale)
        y = _interior_dual_point(problem, rng)
        ybar = _interior_dual_point(problem, rng)
        i = int(rng.integers(part.m))
        sl = part.block_slice(i)
        v = rng.standard_normal(part.sizes[i]) * v_scale
        xv = x.copy()
        xv[sl] += v
        nv = float(np.linalg.norm(v))

        gxi = problem.grad_x_block(i, x, y)
        gxi_v = problem.grad_x_block(i, xv, y)
        out["L_xx"] = min(out["L_xx"],
                          c.L_xx[i] * nv - float(np.linalg.norm(gxi_v - gxi)))

        gy = problem.grad_y(x, y)
        gy_v = problem.grad_y(xv, ybar)
        ny = geom.ref_norm(y - ybar)
        out["L_yx"] = min(out["L_yx"], c.L_yy * ny + c.L_yx[i] * nv - geom.dual_norm(gy_v - gy))

        bread = problem.phi_value(xv, y) - problem.phi_value(x, y) - float(gxi @ v)
        out["convexity_lo"] = min(out["convexity_lo"], bread)
        out["convexity_hi"] = min(out["convexity_hi"],
                                  0.5 * c.L_xx[i] * nv ** 2 - bread)

        gyb = problem.grad_y(x, ybar)
        conc = problem.phi_value(x, y) - problem.phi_value(x, ybar) - float(gyb @ (y - ybar))
        out["concavity_hi"] = min(out["concavity_hi"], -conc)
        out["concavity_lo"] = min(out["concavity_lo"], conc + 0.5 * c.L_yy * ny ** 2)
    return out
