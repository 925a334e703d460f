"""Multiple-kernel soft-margin SVM as a saddle problem, at desk scale.

The learner picks a convex combination of M normalized Gram matrices
while the SVM dual variable plays against it.  Mapped onto the solver's
min-max form, the blocked primal variable is the SVM dual vector (kept
nonnegative by ``f``), and the dual variable is the pair (kernel weights
on the unit simplex, free multiplier of the label-balance constraint):

    phi(x, (y, z)) = -2 e'x + sum_l (c/r_l) y_l x'G_l x + z (b'x)

with ``G_l = diag(b) K_l diag(b)``.  The Grams are stored once, in
block-row order: one C-ordered ``(n, M, n)`` array whose row ``c`` holds
row ``c`` of every ``G_l``, so the rows of block ``i`` are one contiguous
``(n_i, M n)`` matrix; ``G_list`` is the ``(M, n, n)`` view of it.  The
ridge term ``lam ||x||^2`` of the SVM lives in the block functions ``f_i``
(scaled nonnegative projection prox), not in phi, which gives every
block modulus ``2 lam`` and makes the accelerated regime applicable.

The primal product a solver keeps is ``w = [G_1 x; ...; G_M x; b]``, one
``(M + 1, n)`` array whose last row carries the labels and never moves.
Since the Grams are symmetric, ``G x`` is ``x`` times the ``(n, M n)``
row matrix, and a block step moves it by ``dx`` times the block's rows,
one product at ``O(M n n_i)`` cost.  The dual gradient
``(coef * (G x)'x, b'x) = (coef, 1) * (w x)`` and the primal gradient
``-2 + (2 coef * y, z)'w[:, sl]`` on the coordinates ``sl`` read off it
in one product each, at ``O(M n)`` at most, so a full pass computes
``G x`` once per point.

``L_yx`` holds on the B-ball of
:meth:`KernelProblem.project_primal_domain`.  The default radius ``B =
sqrt(n) / (lam + kappa)`` (:func:`default_dual_bound`) is proven to
contain ``x*``: ``z`` is free, so ``b'x* = 0``; Euler's identity for the
minimization over the nonnegative orthant gives ``lam ||x*||^2 + x*'Q x* =
e'x*`` with ``Q = sum_l coef_l y*_l G_l``; ``y*`` maximizes this form,
linear in ``y``, over the simplex, so ``x*'Q x* = max_l coef_l x*'G_l x* >=
kappa ||x*||^2`` with ``kappa = max_l coef_l lambda_lo(G_l)`` and
``lambda_lo`` Gershgorin's lower bound on the smallest eigenvalue, clipped
at 0 (:func:`gershgorin_floor`); and ``e'x* <= sqrt(n) ||x*||``.  For
``x`` and ``x+ = x + U_i v`` in the ball, as ``G_l`` is symmetric, the dual
gradient (free of ``(y, z)``) changes by exactly ``coef_l ((x+)'G_l x+ -
x'G_l x) = coef_l v'G_l[sl, :](x + x+)`` in entry ``l``, at most ``a_li
||v||`` with ``a_li = 2 B coef_l ||G_l[:, sl]||`` since ``||x + x+|| <=
2B``, and by ``b_sl'v`` in the last, at most ``beta_i ||v|| = ||b_sl||
||v||``.  The dual geometry's reference norm ``||.||`` is l2, or for the
entropy dual l1 on the weights (Pinsker) and ``|z|`` combined in l2; in its
dual ``||.||_*`` the change is at most ``L_yx_i ||v||``, ``L_yx_i =
sqrt(sum_l a_li^2 + beta_i^2)``, or ``sqrt(max_l a_li^2 + beta_i^2)`` for
the entropy dual.  By Hoelder's and then Young's inequality its product
with ``y - ybar`` is at most ``L_yx_i ||v|| ||y - ybar|| <= L_yx_i^2
||v||^2 / (2 s) + s ||y - ybar||^2 / 2 <= L_yx_i^2 ||v||^2 / (2 s) + s
D_Y(y, ybar)`` for any ``s > 0``, as ``D_Y`` is 1-strongly convex in
``||.||``: the coupling term of the step condition.  The radius and both
constants are proven bounds, so of the desk's constants only the
``lipschitz_scale`` deflation of :data:`DESK_SETTINGS` is uncertified.

A synthetic two-cluster dataset generator stands in for a real corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockcore import BlockPartition
from .bregman import (ConeDualBall, EntropyGeometry, EuclideanGeometry, IndicatorSimplex,
                      NonnegQuadratic, ProductGeometry, Separable, Zero)
from .exceptions import DimensionError, DomainError, ParameterError
from .problem import LipschitzConstants, SaddleProblem, spectral_norm

#: the kernels of the experiment, in the order of the dual weights
KERNELS = ("poly2", "gauss", "linear")


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
    return KernelDataset(points=pts[order], labels=lbl[order])


# ---------------------------------------------------------------------------
# the saddle problem
# ---------------------------------------------------------------------------

class KernelProblem(SaddleProblem):
    """See the module docstring for the coupling and ``L_yx``; ``dual =
    (y, z)`` with the simplex weights first and the free multiplier last.
    ``G_list`` is the ``(M, n, n)`` stack of the Grams ``G_l``; a view of
    the block-row store is taken as it is, any other stack is copied into
    one.  ``B=None`` takes the radius of :func:`default_dual_bound`."""

    def __init__(self, G_list, b, lam, r, partition, B=None, dual_geometry="entropy"):
        rows = np.ascontiguousarray(np.asarray(G_list, dtype=float).transpose(1, 0, 2))
        G = rows.transpose(1, 0, 2)
        M, n = G.shape[0], G.shape[1]
        if partition.n != n:
            raise DimensionError(f"partition of {partition.n} coordinates for {n} primal ones")
        b, r = np.asarray(b, dtype=float), np.asarray(r, dtype=float)
        c = float(r.sum())
        coef = c / r
        B = default_dual_bound(G, coef, lam) if B is None else float(B)
        slices = partition.slices()
        col_norms = np.array([[spectral_norm(Gl[:, sl]) for sl in slices] for Gl in G])
        a_sq = (2.0 * B * coef[:, None] * col_norms) ** 2
        beta_sq = np.array([float(np.dot(b[sl], b[sl])) for sl in slices])
        if dual_geometry == "entropy":
            dg = ProductGeometry([EntropyGeometry(M), EuclideanGeometry(1)])
            L_yx = np.sqrt(a_sq.max(axis=0) + beta_sq)
        elif dual_geometry == "euclidean":
            dg = EuclideanGeometry(M + 1)
            L_yx = np.sqrt(a_sq.sum(axis=0) + beta_sq)
        else:
            raise ParameterError(f"unknown dual geometry '{dual_geometry}'")
        f = [NonnegQuadratic(lam) for _ in range(partition.m)]
        # block i's gradient moves by sum_l 2 coef_l y_l G_l[sl, sl] v, y on the simplex
        L_xx = (2.0 * coef[:, None] * col_norms).max(axis=0)
        constants = LipschitzConstants(L_xx=L_xx, L_yx=L_yx, L_yy=0.0,
                                       mu=np.array([fi.modulus for fi in f]))
        h = Separable([(IndicatorSimplex(1.0), M), (Zero(), 1)])
        super().__init__(partition, M + 1, f, h, constants, dual_geometry=dg)
        self.G_list, self.b, self.lam, self.B, self.M = G, b, float(lam), B, M
        self.c, self.r, self.coef = c, r, coef
        self._region = ConeDualBall("nonneg", B)   # the orthant is self-dual
        # row c of every G_l side by side: the Grams are symmetric, so
        # x times these rows is G x, and a block's rows move it
        self._rows = rows.reshape(n, M * n)
        self._block_rows = [self._rows[sl] for sl in slices]
        # the read-offs' weights on the rows of w, the label row last
        self._c1 = np.append(coef, 1.0)
        self._c2 = np.append(2.0 * coef, 1.0)

    def phi_value(self, x, yz):
        y, z = yz[:self.M], yz[self.M]
        quad = (self.G_list @ x) @ x
        return float(-2.0 * x.sum() + self.coef * y @ quad + z * (self.b @ x))

    def grad_x_cached(self, w, x, yz, sl):
        return -2.0 + (self._c2 * yz).dot(w[:, sl])

    def primal_product(self, x):
        """``w = [G_1 x; ...; G_M x; b]``, the ``(M + 1, n)`` array of the
        products ``G_l x`` over the labels."""
        M, n = self.M, self.b.size
        w = np.empty((M + 1, n))
        np.dot(x, self._rows, out=w[:M].reshape(M * n))
        w[M] = self.b
        return w

    def grad_y_incremental(self, w, i, dx):
        top = w[:self.M]
        top += dx.dot(self._block_rows[i]).reshape(top.shape)

    def grad_y_cached(self, w, x, yz):
        return self._c1 * w.dot(x)

    def project_primal_domain(self, x):
        """Onto the nonnegative B-ball, the region the constants hold on."""
        return self._region.project_domain(x)


def gershgorin_floor(G) -> np.ndarray:
    """Gershgorin's lower bound on the smallest eigenvalue of each Gram of
    the ``(M, n, n)`` stack ``G``, clipped at 0: ``lambda_lo(G_l) = max(0,
    min_i (G_ii - sum_{j != i} |G_ij|))``.  ``G_l = diag(b) K_l diag(b)``
    with ``|b_i| = 1`` has the Gershgorin rows of ``K_l``."""
    # a Gram's diagonal is nonnegative: G_ii - sum_{j != i} |G_ij| = 2 G_ii - sum_j |G_ij|
    diag = np.diagonal(G, axis1=1, axis2=2)
    return np.maximum(0.0, (2.0 * diag - np.abs(G).sum(axis=2)).min(axis=1))


def default_dual_bound(G, coef, lam: float) -> float:
    """Norm bound on the optimal blocked variable, ``||x*|| <= sqrt(n) /
    (lam + kappa)`` with ``kappa = max_l coef_l lambda_lo(G_l)``, for the
    ``(M, n, n)`` stack ``G`` of the Grams and their mixing coefficients
    ``coef`` (``lambda_lo``: :func:`gershgorin_floor`), from the saddle
    point's optimality conditions.  The multiplier ``z`` is free, so ``b'x*
    = 0``.  ``x*`` minimizes the convex ``lam ||x||^2 + phi(x, (y*, z*))``
    over the nonnegative orthant, a cone, so its gradient there is
    orthogonal to ``x*`` (Euler's identity): ``lam ||x*||^2 + x*'Q(y*) x* =
    e'x*`` with ``Q(y) = sum_l coef_l y_l G_l``.  ``y*`` maximizes ``x*'Q(y)
    x*``, linear in ``y``, over the simplex, so ``x*'Q(y*) x* = max_l coef_l
    x*'G_l x* >= kappa ||x*||^2``, as ``lambda_lo(G_l) <= lambda_min(G_l)``.
    With ``e'x* <= sqrt(n) ||x*||``, ``(lam + kappa) ||x*||^2 <= sqrt(n)
    ||x*||``."""
    kappa = float((coef * gershgorin_floor(G)).max())
    return float(np.sqrt(G.shape[1]) / (lam + kappa))


def build_kernel_problem(dataset: KernelDataset, lam: float, B: float | None = None,
                         m_blocks: int = 8, bandwidth: float = 0.1,
                         dual_geometry: str = "entropy",
                         lipschitz_scale: float = 1.0) -> KernelProblem:
    """Assemble the saddle problem from a dataset, one Gram matrix per
    entry of :data:`KERNELS`, normalized to unit diagonal, so each trace
    equals ``n_tr`` and the mixing constant is ``c = sum_l r_l``.  The
    smoothness constants, not the moduli, are multiplied by
    ``lipschitz_scale``.
    """
    if not lam > 0:
        raise ParameterError(f"need lam > 0, got {lam}")
    if not lipschitz_scale > 0:
        raise ParameterError(f"Lipschitz scale must be > 0, got {lipschitz_scale}")
    b = dataset.labels
    # stacked on the middle axis: the block-row store KernelProblem keeps,
    # starting on a 64-byte line; at the 16- or 32-byte offsets the heap may
    # give it, its gemv (every full pass) takes about 1.7x as long
    n, M = dataset.n_tr, len(KERNELS)
    buf = np.empty(n * M * n + 8)
    start = (-buf.ctypes.data % 64) // 8
    G = np.stack([normalize_gram(gram_matrix(kind, dataset.points, bandwidth))
                  for kind in KERNELS], axis=1,
                 out=buf[start:start + n * M * n].reshape(n, M, n)).transpose(1, 0, 2)
    r = np.array([np.trace(K) for K in G])
    G *= np.outer(b, b)
    if B is not None and not B > 0:
        raise ParameterError(f"need B > 0, got {B}")
    partition = BlockPartition.even(dataset.n_tr, m_blocks)
    problem = KernelProblem(G, b, lam, r, partition, B, dual_geometry=dual_geometry)
    c, s = problem.constants, lipschitz_scale
    problem.constants = LipschitzConstants(c.L_xx * s, c.L_yx * s, c.L_yy * s, c.mu)
    return problem


def dual_start(problem: KernelProblem) -> np.ndarray:
    """Interior starting dual point: uniform weights, zero multiplier."""
    return np.concatenate([np.full(problem.M, 1.0 / problem.M), [0.0]])


#: the kernel desk's settings; its smoothness constants are deflated by
#: ``lipschitz_scale`` for larger steps, below the true bounds: the one
#: uncertified factor, as the radius ``B`` and the constants on it are proven
DESK_SETTINGS = {"d": 10, "dataset_seed": 7, "lam": 1.0, "dual": "entropy",
                 "lipschitz_scale": 0.1}


def kernel_desk(n: int = 200, m: int = 10):
    """The kernel learning experiment at desk scale, ``n`` points in ``m``
    blocks: ``(problem, x0 = 0, y0 = dual_start(problem), dataset)``."""
    s = DESK_SETTINGS
    ds = synth_dataset(n_tr=n, d=s["d"], seed=s["dataset_seed"])
    problem = build_kernel_problem(ds, lam=s["lam"], m_blocks=m, dual_geometry=s["dual"],
                                   lipschitz_scale=s["lipschitz_scale"])
    return problem, np.zeros(n), dual_start(problem), ds
