"""Multiple-kernel soft-margin SVM as a saddle problem, at desk scale.

The learner picks a convex combination of M normalized Gram matrices
while the SVM dual variable plays against it.  Mapped onto the solver's
min-max form, the blocked primal variable is the SVM dual vector (kept
nonnegative by ``f``), and the dual variable is the pair (kernel weights
on the unit simplex, free multiplier of the label-balance constraint):

    phi(x, (y, z)) = -2 e'x + sum_l (c/r_l) y_l x'G_l x + z (b'x)

with ``G_l = diag(b) K_l diag(b)``, stored stacked as one C-ordered
``(M, n, n)`` array.  The ridge term ``lam ||x||^2`` of the SVM lives in
the block functions ``f_i`` (scaled nonnegative projection prox), not in
phi, which gives every block modulus ``2 lam`` and makes the accelerated
regime applicable.

The primal product a solver keeps is ``G x``, one ``(M, n)`` array: a
block step moves it at ``O(M n n_i)`` cost, and the dual gradient
``(coef * (G x)'x, b'x)`` reads off it at ``O(M n)``.

A synthetic two-cluster dataset generator stands in for a real corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockcore import BlockPartition
from .bregman import (EntropyGeometry, EuclideanGeometry, IndicatorSimplex,
                      NonnegQuadratic, ProductGeometry, Separable, Zero)
from .exceptions import DimensionError, DomainError, ParameterError
from .problem import LipschitzConstants, SaddleProblem, spectral_norm


# ---------------------------------------------------------------------------
# kernels and data
# ---------------------------------------------------------------------------

def kernel_eval(kind: str, a: np.ndarray, abar: np.ndarray, bandwidth: float = 0.1) -> float:
    """Evaluate one kernel function.

    ``poly2``: (1 + a'abar)^2; ``gauss``: exp(-0.5 ||a - abar||^2 / bw);
    ``linear``: a'abar.
    """
    a = np.asarray(a, dtype=float)
    abar = np.asarray(abar, dtype=float)
    if a.shape != abar.shape:
        raise DimensionError(f"kernel arguments differ in shape: {a.shape} vs {abar.shape}")
    if kind == "poly2":
        return float((1.0 + a @ abar) ** 2)
    if kind == "gauss":
        d = a - abar
        return float(np.exp(-0.5 * (d @ d) / bandwidth))
    if kind == "linear":
        return float(a @ abar)
    raise ParameterError(f"unknown kernel kind '{kind}'")


def gram_matrix(kind: str, points: np.ndarray, bandwidth: float = 0.1) -> np.ndarray:
    """Dense Gram matrix of one kernel over all point pairs."""
    pts = np.asarray(points, dtype=float)
    inner = pts @ pts.T
    if kind == "poly2":
        return (1.0 + inner) ** 2
    if kind == "gauss":
        sq = np.diag(inner)
        d2 = sq[:, None] + sq[None, :] - 2.0 * inner
        return np.exp(-0.5 * np.maximum(d2, 0.0) / bandwidth)
    if kind == "linear":
        return inner.copy()
    raise ParameterError(f"unknown kernel kind '{kind}'")


def normalize_gram(K: np.ndarray) -> np.ndarray:
    """Scale to unit diagonal: ``K_ij / sqrt(K_ii K_jj)``."""
    dg = np.diag(K).copy()
    if dg.min() <= 1e-10:
        raise DomainError("gram diagonal too small to normalize")
    s = 1.0 / np.sqrt(dg)
    return K * np.outer(s, s)


@dataclass
class KernelDataset:
    points: np.ndarray   # (n_tr, d)
    labels: np.ndarray   # entries in {-1, +1}
    seed: int = 0
    separation: float = 2.0

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.points.shape[0] != self.labels.size or self.points.shape[0] < 2:
            raise DimensionError("need one label per point and at least two points")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise DomainError("labels must be -1 or +1")
        if np.all(self.labels == self.labels[0]):
            raise DomainError("both classes must be present")

    @property
    def n_tr(self) -> int:
        return self.points.shape[0]


def synth_dataset(n_tr: int, d: int, seed: int = 0, separation: float = 2.0) -> KernelDataset:
    """Two unit-covariance Gaussian clusters at ``+-separation * e_1``,
    balanced labels, deterministic per seed."""
    if n_tr < 10 or d < 2:
        raise ParameterError(f"need n_tr >= 10 and d >= 2, got {n_tr}, {d}")
    rng = np.random.default_rng(seed)
    half = n_tr // 2
    sizes = (half, n_tr - half)
    mean = np.zeros(d)
    mean[0] = separation
    pts = np.vstack([rng.standard_normal((sizes[0], d)) + mean,
                     rng.standard_normal((sizes[1], d)) - mean])
    lbl = np.concatenate([np.ones(sizes[0]), -np.ones(sizes[1])])
    order = rng.permutation(n_tr)
    return KernelDataset(points=pts[order], labels=lbl[order], seed=seed,
                         separation=separation)


# ---------------------------------------------------------------------------
# the saddle problem
# ---------------------------------------------------------------------------

class KernelProblem(SaddleProblem):
    """See the module docstring for the coupling; ``dual = (y, z)`` with
    the simplex weights first and the free multiplier last.  ``G_list``
    is the ``(M, n, n)`` stack of the Grams ``G_l``."""

    def __init__(self, G_list, b, lam, c, r, partition, B,
                 dual_geometry="entropy", lipschitz_scale=1.0):
        G = np.ascontiguousarray(G_list, dtype=float)
        M = G.shape[0]
        coef = c / np.asarray(r, dtype=float)
        slices = partition.slices()

        col_norms = np.array([[spectral_norm(Gl[:, sl]) for sl in slices] for Gl in G])
        diag_norms = np.array([[spectral_norm(Gl[sl, sl]) for sl in slices] for Gl in G])
        m = partition.m
        f = [NonnegQuadratic(lam) for _ in range(m)]
        constants = LipschitzConstants(
            L_xx=6.0 * col_norms.max(axis=0),
            L_yx=6.0 * np.sqrt(M) * B * (col_norms + diag_norms / m).max(axis=0),
            L_yy=0.0, mu=np.array([fi.modulus for fi in f])).scaled(lipschitz_scale)
        h = Separable([(IndicatorSimplex(1.0), M), (Zero(), 1)])
        if dual_geometry == "entropy":
            dg = ProductGeometry([EntropyGeometry(M), EuclideanGeometry(1)])
        elif dual_geometry == "euclidean":
            dg = EuclideanGeometry(M + 1)
        else:
            raise ParameterError(f"unknown dual geometry '{dual_geometry}'")
        super().__init__(partition, M + 1, f, h, constants, dual_geometry=dg)
        self.G_list = G
        self.b = np.asarray(b, dtype=float)
        self.lam = float(lam)
        self.c = float(c)
        self.r = np.asarray(r, dtype=float)
        self.coef = coef
        self.B = float(B)
        self.M = M
        self._slices = slices
        self._coef2 = 2.0 * coef
        self._b_blocks = [self.b[sl] for sl in slices]

    def phi_value(self, x, yz):
        y, z = yz[:self.M], yz[self.M]
        quad = (self.G_list @ x) @ x
        return float(-2.0 * x.sum() + self.coef * y @ quad + z * (self.b @ x))

    def grad_x_block(self, i, x, yz):
        return self._block_gradient(i, self.G_list[:, self._slices[i]] @ x, yz)

    def grad_x_block_cached(self, i, w, x, yz):
        return self._block_gradient(i, w[:, self._slices[i]], yz)

    def _block_gradient(self, i, Gx_block, yz):
        """The primal gradient on block ``i`` from the rows ``G_l[sl] x``."""
        M = self.M
        return -2.0 + (self._coef2 * yz[:M]) @ Gx_block + yz[M] * self._b_blocks[i]

    def primal_product(self, x):
        """``w = G x``: the ``(M, n)`` array of the products ``G_l x``."""
        return self.G_list @ x

    def grad_y_incremental(self, w, i, dx):
        # the Grams are symmetric, so the columns G_l[:, sl] are the rows G_l[sl]
        w += dx @ self.G_list[:, self._slices[i]]

    def grad_y_cached(self, w, x, yz):
        M = self.M
        g = np.empty(M + 1)
        np.multiply(self.coef, w @ x, out=g[:M])
        g[M] = self.b @ x
        return g

    def project_primal_domain(self, x):
        """Nonnegative orthant scaled into the ball of radius B (the
        region the coupling constants are valid on)."""
        w = np.maximum(np.asarray(x, dtype=float), 0.0)
        nrm = float(np.linalg.norm(w))
        if nrm > self.B:
            w *= self.B / nrm
        return w


def default_dual_bound(n_tr: int, lam: float) -> float:
    """Norm bound on the optimal blocked variable: at the inner optimum
    ``2 e'x - lam ||x||^2 >= 0`` forces ``||x|| <= 2 sqrt(n_tr)/lam``."""
    return 2.0 * np.sqrt(n_tr) / lam


def build_kernel_problem(dataset: KernelDataset, lam: float, B: float | None = None,
                         m_blocks: int = 8, c: float | None = None,
                         kernels=("poly2", "gauss", "linear"), bandwidth: float = 0.1,
                         dual_geometry: str = "entropy",
                         lipschitz_scale: float = 1.0) -> KernelProblem:
    """Assemble the saddle problem from a dataset.

    Gram matrices are normalized to unit diagonal, so each trace equals
    ``n_tr`` and the default mixing constant is ``c = sum_l r_l``.
    """
    if not lam > 0:
        raise ParameterError(f"need lam > 0, got {lam}")
    b = dataset.labels
    G = np.stack([normalize_gram(gram_matrix(kind, dataset.points, bandwidth))
                  for kind in kernels])
    r = np.array([np.trace(K) for K in G])
    G *= np.outer(b, b)
    c_val = float(r.sum()) if c is None else float(c)
    B_val = default_dual_bound(dataset.n_tr, lam) if B is None else float(B)
    if not B_val > 0:
        raise ParameterError(f"need B > 0, got {B_val}")
    partition = BlockPartition.even(dataset.n_tr, m_blocks)
    return KernelProblem(G, b, lam, c_val, r, partition, B_val,
                         dual_geometry=dual_geometry, lipschitz_scale=lipschitz_scale)


def dual_start(problem: KernelProblem) -> np.ndarray:
    """Interior starting dual point: uniform weights, zero multiplier."""
    return np.concatenate([np.full(problem.M, 1.0 / problem.M), [0.0]])
