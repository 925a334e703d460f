"""Distance-generating functions, Bregman distances, and generalized proxes.

Two geometries ship: the Euclidean half-squared norm and negative entropy
(simplex/orthant domains).  A geometry knows its distance ``D(u, v)`` and
how to solve the elementary subproblem

    argmin_x  t*f(x) + <s, x> + (1/t)*... (see :func:`bregman_prox`)

for every prox-friendly ``f`` it supports.  The convention used throughout:

    bregman_prox(geom, f, t, s, xbar) = argmin_x  f(x) + <s, x> + D(x, xbar)/t

so that for the Euclidean geometry and ``f = 0`` the minimizer is exactly
``xbar - t*s``.

:func:`bregman_prox` is the checked public entry; the solvers' loops bind
``geom.stepper(f)`` once per run, checked there, and call it unchecked.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .exceptions import DimensionError, DomainError, ParameterError

_ENTROPY_FLOOR = 1e-300  # clamp before logs; far below any test tolerance


# ---------------------------------------------------------------------------
# prox-friendly functions
# ---------------------------------------------------------------------------

class ProxFriendlyFunction:
    """Convex function with a cheap generalized prox.

    Subclasses provide ``value`` and the Euclidean prox
    ``argmin_x t*f(x) + 0.5*||x - u||^2``; entropy proxes exist only for
    the kinds a simplex/orthant geometry pairs with.  ``modulus`` is the
    strong-convexity constant w.r.t. the geometry's reference norm.
    """

    modulus = 0.0
    kind = "abstract"
    entropy_scale_invariant = False  # whether prox_entropy ignores rescaling of w
    #: whether the Euclidean prox acts on each coordinate alone, so that
    #: one prox on a concatenation equals the proxes of its pieces
    coordinatewise = False

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def prox_euclidean(self, t: float, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def prox_entropy(self, t: float, w: np.ndarray) -> np.ndarray:
        """Minimize ``t*f(x) + KL(x, w)`` over the positive orthant;
        ``w`` already absorbs the linear term."""
        raise DomainError(f"{self.kind} has no entropy prox")

    def feasibility_gap(self, x: np.ndarray) -> float:
        """Distance-like violation of the effective domain (0 if free)."""
        return 0.0

    def project_domain(self, x: np.ndarray) -> np.ndarray:
        return x

    def __repr__(self):
        return f"<{type(self).__name__}>"


class Zero(ProxFriendlyFunction):
    kind = "zero"
    coordinatewise = True

    def value(self, x):
        return 0.0

    def prox_euclidean(self, t, u):
        return u

    def prox_entropy(self, t, w):
        return w


class L1(ProxFriendlyFunction):
    """``lam * ||x||_1`` (soft thresholding)."""

    kind = "l1"
    coordinatewise = True

    def __init__(self, lam: float):
        if not np.isfinite(lam) or lam < 0:
            raise ParameterError(f"l1 weight must be >= 0, got {lam}")
        self.lam = float(lam)

    def value(self, x):
        return self.lam * float(np.abs(x).sum())

    def prox_euclidean(self, t, u):
        th = t * self.lam
        return np.sign(u) * np.maximum(np.abs(u) - th, 0.0)


class SquaredL2(ProxFriendlyFunction):
    """``lam * ||x||^2``; strong-convexity modulus ``2*lam``."""

    kind = "squared-l2"
    coordinatewise = True

    def __init__(self, lam: float):
        if not np.isfinite(lam) or lam < 0:
            raise ParameterError(f"quadratic weight must be >= 0, got {lam}")
        self.lam = float(lam)
        self.modulus = 2.0 * self.lam

    def value(self, x):
        return self.lam * float(x @ x)

    def prox_euclidean(self, t, u):
        return u / (1.0 + 2.0 * t * self.lam)


class NonnegQuadratic(ProxFriendlyFunction):
    """``lam * ||x||^2`` on the nonnegative orthant, +inf outside.

    Carries the quadratic's modulus ``2*lam``; the prox is a scaled
    projection.
    """

    kind = "nonneg-squared-l2"
    coordinatewise = True

    def __init__(self, lam: float):
        if not np.isfinite(lam) or lam < 0:
            raise ParameterError(f"quadratic weight must be >= 0, got {lam}")
        self.lam = float(lam)
        self.modulus = 2.0 * self.lam

    def value(self, x):
        return self.lam * float(x @ x)

    def prox_euclidean(self, t, u):
        return np.maximum(u / (1.0 + 2.0 * t * self.lam), 0.0)

    def feasibility_gap(self, x):
        return float(np.maximum(-x, 0.0).max(initial=0.0))

    def project_domain(self, x):
        return np.maximum(x, 0.0)


class IndicatorNonneg(ProxFriendlyFunction):
    kind = "indicator-nonneg"
    coordinatewise = True

    def value(self, x):
        return 0.0

    def prox_euclidean(self, t, u):
        return np.maximum(u, 0.0)

    def prox_entropy(self, t, w):
        return w  # orthant is the entropy domain

    def feasibility_gap(self, x):
        return float(np.maximum(-x, 0.0).max(initial=0.0))

    def project_domain(self, x):
        return np.maximum(x, 0.0)


class IndicatorBox(ProxFriendlyFunction):
    kind = "indicator-box"
    coordinatewise = True

    def __init__(self, lo: float, hi: float):
        if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
            raise ParameterError(f"box bounds invalid: [{lo}, {hi}]")
        self.lo, self.hi = float(lo), float(hi)

    def value(self, x):
        return 0.0

    def prox_euclidean(self, t, u):
        return np.clip(u, self.lo, self.hi)

    def feasibility_gap(self, x):
        return float(max(np.maximum(self.lo - x, 0.0).max(initial=0.0),
                         np.maximum(x - self.hi, 0.0).max(initial=0.0)))

    def project_domain(self, x):
        return np.clip(x, self.lo, self.hi)


def _norm(u: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D float vector, bit for bit: numpy takes
    it as ``sqrt(u.dot(u))``, without the call's dispatch."""
    return math.sqrt(float(u @ u))


class IndicatorBall(ProxFriendlyFunction):
    kind = "indicator-ball"

    def __init__(self, radius: float):
        if not np.isfinite(radius) or radius <= 0:
            raise ParameterError(f"ball radius must be > 0, got {radius}")
        self.radius = float(radius)

    def value(self, x):
        return 0.0

    def prox_euclidean(self, t, u):
        nrm = _norm(u)
        if nrm <= self.radius:
            return u.copy()
        return u * (self.radius / nrm)

    def feasibility_gap(self, x):
        return max(_norm(x) - self.radius, 0.0)

    def project_domain(self, x):
        return self.prox_euclidean(1.0, np.asarray(x, dtype=float))


def project_simplex(u: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Euclidean projection onto ``{x >= 0, sum x = scale}``.

    Sort-and-threshold; ties in the sorted order are resolved by index,
    which the arithmetic makes irrelevant to the result.  The threshold
    condition holds on a prefix of the sorted order, so counting it finds
    the last index where it holds.
    """
    u = np.asarray(u, dtype=float)
    srt = np.sort(u)[::-1]
    css = np.cumsum(srt) - scale
    cond = srt - css / _ranks(u.size) > 0
    # the first rank always qualifies in exact arithmetic
    rho = max(int(np.count_nonzero(cond)), 1)
    out = u - css[rho - 1] / float(rho)
    return np.maximum(out, 0.0, out=out)


@functools.lru_cache(maxsize=8)
def _ranks(n: int) -> np.ndarray:
    """The read-only ranks ``1..n`` as floats."""
    ks = np.arange(1.0, n + 1.0)
    ks.setflags(write=False)
    return ks


class IndicatorSimplex(ProxFriendlyFunction):
    kind = "indicator-simplex"
    entropy_scale_invariant = True

    def __init__(self, scale: float = 1.0):
        if not np.isfinite(scale) or scale <= 0:
            raise ParameterError(f"simplex scale must be > 0, got {scale}")
        self.scale = float(scale)

    def value(self, x):
        return 0.0

    def prox_euclidean(self, t, u):
        return project_simplex(u, self.scale)

    def prox_entropy(self, t, w):
        s = float(w.sum())
        if s <= 0 or not math.isfinite(s):
            raise DomainError("entropy simplex update lost all mass")
        return w * (self.scale / s)

    def feasibility_gap(self, x):
        return float(abs(x.sum() - self.scale) + np.maximum(-x, 0.0).sum())

    def project_domain(self, x):
        return project_simplex(x, self.scale)


class ConeDualBall(ProxFriendlyFunction):
    """Indicator of the dual cone intersected with ``{||y|| <= B}``, for
    the nonnegative orthant cone.

    The orthant is self-dual, and orthant/ball projections commute, so
    projecting onto the orthant and then radially is the exact projection.
    """

    kind = "indicator-cone-dual-ball"

    def __init__(self, cone: str, bound: float):
        if cone != "nonneg":
            raise ParameterError(f"unsupported cone kind '{cone}' (only 'nonneg')")
        if not np.isfinite(bound) or bound <= 0:
            raise ParameterError(f"dual bound must be > 0, got {bound}")
        self.cone = cone
        self.bound = float(bound)

    def value(self, x):
        return 0.0

    def prox_euclidean(self, t, u):
        w = np.maximum(u, 0.0)
        nrm = _norm(w)
        if nrm > self.bound:
            w *= self.bound / nrm
        return w

    def feasibility_gap(self, x):
        return float(np.maximum(-x, 0.0).max(initial=0.0)
                     + max(_norm(np.maximum(x, 0.0)) - self.bound, 0.0))

    def project_domain(self, x):
        return self.prox_euclidean(1.0, np.asarray(x, dtype=float))


class Separable(ProxFriendlyFunction):
    """Concatenation of prox-friendly pieces on consecutive coordinate
    ranges; used for product duals such as (simplex weights, free scalar)."""

    kind = "separable"

    def __init__(self, parts):
        # parts: list of (function, size)
        self.parts = [(f, int(sz)) for f, sz in parts]
        self.modulus = min(f.modulus for f, _ in self.parts)
        ends = np.cumsum([sz for _, sz in self.parts]).tolist()
        self._size = ends[-1]
        # each part with the Python slice of its coordinates
        self._pieces = [(f, slice(lo, hi))
                        for (f, _), lo, hi in zip(self.parts, [0] + ends, ends)]

    def value(self, x):
        return sum(f.value(x[sl]) for f, sl in self._pieces)

    def prox_euclidean(self, t, u):
        out = np.empty(self._size)
        for f, sl in self._pieces:
            out[sl] = f.prox_euclidean(t, u[sl])
        return out

    def feasibility_gap(self, x):
        return max(f.feasibility_gap(x[sl]) for f, sl in self._pieces)

    def project_domain(self, x):
        out = np.empty(self._size)
        for f, sl in self._pieces:
            out[sl] = f.project_domain(x[sl])
        return out


# ---------------------------------------------------------------------------
# geometries
# ---------------------------------------------------------------------------

class BregmanGeometry:
    """Base geometry: distance ``D`` and the generalized prox solver."""

    kind = "abstract"

    def __init__(self, dim: int):
        if dim < 1:
            raise DimensionError(f"geometry dimension must be >= 1, got {dim}")
        self.dim = int(dim)

    def dist(self, u: np.ndarray, v: np.ndarray) -> float:
        raise NotImplementedError

    def prox(self, f: ProxFriendlyFunction, t: float, s: np.ndarray, xbar: np.ndarray) -> np.ndarray:
        """The generalized prox (see :func:`bregman_prox`), after checking
        the shapes and ``t > 0``."""
        s, xbar = np.asarray(s, dtype=float), np.asarray(xbar, dtype=float)
        self._check(s, xbar)
        if not t > 0:
            raise ParameterError(f"prox step must be > 0, got {t}")
        return self.stepper(f)(t, s, xbar)

    def stepper(self, f: ProxFriendlyFunction):
        """``step(t, s, xbar)``, the prox for ``f`` on float vectors of this
        geometry's shape and ``t > 0``, neither checked per call; a geometry
        that pairs with some functions only checks ``f`` here, once."""
        return functools.partial(self._step, f)

    def _step(self, f, t, s, xbar):
        """The prox, unchecked (see :meth:`stepper`)."""
        raise NotImplementedError

    def ref_norm(self, u: np.ndarray) -> float:
        """Norm w.r.t. which the generating function is 1-strongly convex."""
        raise NotImplementedError

    def _check(self, *vecs):
        for v in vecs:
            if np.asarray(v).shape != (self.dim,):
                raise DimensionError(
                    f"{self.kind} geometry of dim {self.dim} got shape {np.asarray(v).shape}"
                )

    def __repr__(self):
        return f"<{type(self).__name__} dim={self.dim}>"


class EuclideanGeometry(BregmanGeometry):
    """``phi(u) = 0.5*||u||^2``; ``D(u, v) = 0.5*||u - v||^2``."""

    kind = "euclidean"

    def dist(self, u, v):
        self._check(u, v)
        d = np.asarray(u, dtype=float) - np.asarray(v, dtype=float)
        return 0.5 * float(d @ d)

    def ref_norm(self, u):
        return float(np.linalg.norm(u))

    def _step(self, f, t, s, xbar):
        return f.prox_euclidean(t, xbar - t * s)


class EntropyGeometry(BregmanGeometry):
    """Negative entropy ``phi(u) = sum u_i log u_i`` on the positive
    orthant; ``D`` is the generalized Kullback-Leibler divergence.

    1-strong convexity w.r.t. the l1 norm holds on the unit simplex
    (Pinsker), which is the domain this geometry is paired with in the
    solvers.
    """

    kind = "negative-entropy"

    def dist(self, u, v):
        self._check(u, v)
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if np.any(v <= 0):
            raise DomainError("entropy distance needs strictly positive second argument")
        if np.any(u < 0):
            raise DomainError("entropy distance needs nonnegative first argument")
        usafe = np.maximum(u, _ENTROPY_FLOOR)
        kl = np.where(u > 0, u * np.log(usafe / v), 0.0).sum()
        return float(kl - u.sum() + v.sum())

    def ref_norm(self, u):
        return float(np.abs(u).sum())

    def _step(self, f, t, s, xbar):
        if (xbar <= 0).any():
            raise DomainError("entropy prox center must be strictly positive")
        # stationarity: log(x/xbar) + t*s + t*f' = 0 -> multiplicative update
        expo = -t * s
        if f.entropy_scale_invariant:
            expo -= expo.max()  # overflow guard; result is renormalized
        w = np.maximum(xbar, _ENTROPY_FLOOR)
        w *= np.exp(expo, out=expo)
        return f.prox_entropy(t, w)


class ProductGeometry(BregmanGeometry):
    """Direct product of geometries on consecutive coordinate ranges.

    Distances add; the prox requires a :class:`Separable` function with
    matching part sizes (or Zero, which splits trivially); the kernel dual
    takes one fused step, bit for bit the same.
    """

    kind = "product"

    def __init__(self, parts):
        self.parts = list(parts)
        super().__init__(sum(g.dim for g in self.parts))
        ends = np.cumsum([g.dim for g in self.parts]).tolist()
        self._slices = [slice(lo, hi) for lo, hi in zip([0] + ends, ends)]

    def _split(self, x):
        x = np.asarray(x, dtype=float)
        return [x[sl] for sl in self._slices]

    def dist(self, u, v):
        self._check(u, v)
        return sum(g.dist(us, vs) for g, us, vs in zip(self.parts, self._split(u), self._split(v)))

    def ref_norm(self, u):
        # l2 combination of the segment reference norms
        return float(np.sqrt(sum(g.ref_norm(seg) ** 2 for g, seg in zip(self.parts, self._split(u)))))

    def stepper(self, f):
        """Checks that ``f`` splits over the parts; see the base class."""
        if isinstance(f, Separable):
            pieces = f.parts
        elif isinstance(f, Zero):
            pieces = [(f, g.dim) for g in self.parts]
        else:
            raise DomainError("product geometry needs a separable function")
        if [sz for _, sz in pieces] != [g.dim for g in self.parts]:
            raise DimensionError("separable part sizes do not match product geometry")
        # numpy sums fewer than 8 entries left to right, as the fused step does
        if ([(type(g), type(fj)) for g, (fj, _) in zip(self.parts, pieces)]
                == [(EntropyGeometry, IndicatorSimplex), (EuclideanGeometry, Zero)]
                and pieces[0][1] < 8 and pieces[1][1] == 1):
            return functools.partial(_simplex_and_free_step, pieces[0][0])
        steps = [(g._step, fj, sl) for g, (fj, _), sl in zip(self.parts, pieces, self._slices)]

        def step(t, s, xbar):
            out = np.empty(self.dim)
            for part_step, fj, sl in steps:
                out[sl] = part_step(fj, t, s[sl], xbar[sl])
            return out
        return step


def _simplex_and_free_step(simplex, t, s, xbar):
    """The entropic ``simplex`` step on all but the last of ``s`` and ``xbar``
    and the free Euclidean step on the last: the part steps' IEEE
    operations in their order, on Python floats, with one ``np.exp`` call
    (``math.exp`` rounds differently), raising where they raise."""
    s, xbar = s.tolist(), xbar.tolist()
    centre = xbar[:-1]
    if any(v <= 0 for v in centre):   # not min(): a NaN must not hide a v <= 0
        raise DomainError("entropy prox center must be strictly positive")
    expo = [-t * v for v in s[:-1]]
    top = max(expo)
    grow = np.exp([e - top for e in expo]).tolist()
    w = [max(v, _ENTROPY_FLOOR) * e for v, e in zip(centre, grow)]
    total = functools.reduce(operator.add, w)   # left to right; sum() may compensate
    if total <= 0 or not math.isfinite(total):
        raise DomainError("entropy simplex update lost all mass")
    ratio = simplex.scale / total
    return np.array([v * ratio for v in w] + [xbar[-1] - t * s[-1]])


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def bregman_dist(geom: BregmanGeometry, u: np.ndarray, v: np.ndarray) -> float:
    """Bregman distance ``D(u, v) >= 0`` of the given geometry."""
    return geom.dist(u, v)


def bregman_prox(geom: BregmanGeometry, f: ProxFriendlyFunction, t: float,
                 s: np.ndarray, xbar: np.ndarray) -> np.ndarray:
    """Solve ``argmin_x f(x) + <s, x> + D(x, xbar)/t``.

    Euclidean geometry with ``f = 0`` returns ``xbar - t*s`` exactly.
    """
    return geom.prox(f, t, s, xbar)


def three_point_check(geom: BregmanGeometry, f: ProxFriendlyFunction, t: float,
                      xbar: np.ndarray, x_test: np.ndarray,
                      s: np.ndarray | None = None):
    """Check the three-point inequality at ``x_test``.

    With ``x+ = bregman_prox(geom, f, t, s, xbar)`` and
    ``F(x) = f(x) + <s, x>``, verifies

        F(x) + D(x, xbar)/t  >=  F(x+) + D(x+, xbar)/t + D(x, x+)/t
                                  + (mu/2)*||x - x+||^2

    in the geometry's reference norm.  Returns ``(passed, residual)`` with
    ``residual = lhs - rhs``, which passes from ``-1e-10`` (float error).
    """
    xbar = np.asarray(xbar, dtype=float)
    x_test = np.asarray(x_test, dtype=float)
    if s is None:
        s = np.zeros(geom.dim)
    s = np.asarray(s, dtype=float)
    if f.feasibility_gap(x_test) > 1e-12:
        raise DomainError("x_test outside the domain of f")
    xp = bregman_prox(geom, f, t, s, xbar)
    lhs = f.value(x_test) + float(s @ x_test) + geom.dist(x_test, xbar) / t
    rhs = (f.value(xp) + float(s @ xp) + geom.dist(xp, xbar) / t
           + geom.dist(x_test, xp) / t
           + 0.5 * f.modulus * geom.ref_norm(x_test - xp) ** 2)
    residual = lhs - rhs
    return bool(residual >= -1e-10), float(residual)

