"""Normalized centered Gaussian measures and their convolution semigroup.

The density of N[C] is (2 pi)^(-n/2) det(C)^(-1/2) exp(-x C^{-1} x / 2).
Convolution adds covariances, N(A) * N(B) = N(A + B), and GL(V) acts
through det(M) N(C) o M = N(M^{-1} C M^{-T}).  Evaluation is done in the
log domain (log-normalizer plus quadratic form).  ``GaussianMeasure`` is
the one place a covariance is checked and factored.  Expectations under
N(C) are taken with a tensor-product Gauss-Hermite ``QuadratureRule``
built on its measure's Cholesky factor, and every weighted sum over its
nodes is reduced by ``_weighted_sums``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import (
    DimensionMismatch,
    NonPositiveDeterminant,
    NotPositiveDefinite,
    QuadratureOverflow,
    UnsupportedOrder,
)
from .tensors import (
    GlElement,
    Sym2Tensor,
    act_sym,
    as_block,
    as_vector,
    is_positive_definite,
)

#: Default Gauss-Hermite order per dimension; tensor-product cost is q^n.
DEFAULT_ORDERS = {1: 40, 2: 20, 3: 12, 4: 8}


def default_order(dim: int) -> int:
    try:
        return DEFAULT_ORDERS[dim]
    except KeyError:
        raise DimensionMismatch(
            f"quadrature supported for dimensions {sorted(DEFAULT_ORDERS)}, got {dim}"
        ) from None


@dataclass(frozen=True)
class GaussianMeasure:
    """Mean-zero Gaussian N[C] with positive-definite covariance.

    Construction checks C once, raising NotPositiveDefinite, and computes
    its Cholesky factor and the log-normalizer; evaluation is pure and
    thread-safe.
    """

    covariance: Sym2Tensor

    def __post_init__(self):
        if not is_positive_definite(self.covariance):
            raise NotPositiveDefinite("Gaussian covariance must be positive definite")
        chol = np.linalg.cholesky(self.covariance.matrix)
        log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
        n = self.covariance.dim
        log_norm = -0.5 * (n * math.log(2.0 * math.pi) + log_det)
        object.__setattr__(self, "_chol", chol)
        object.__setattr__(self, "_log_norm", log_norm)

    @property
    def dim(self) -> int:
        return self.covariance.dim

    def log_density(self, points) -> np.ndarray:
        """log N[C] at each row of an (m, n) block of points."""
        X = as_block(points, self.dim)
        # x C^{-1} x = |L^{-1} x|^2, with L^{-1} x by forward substitution:
        # each row is solved on its own, whatever block it came in.
        L = self._chol
        z = np.empty_like(X)
        for j in range(self.dim):
            z[:, j] = (X[:, j] - np.sum(z[:, :j] * L[j, :j], axis=1)) / L[j, j]
        return self._log_norm - 0.5 * np.sum(z * z, axis=1)

    def log_eval(self, x) -> float:
        return float(self.log_density(as_vector(x, self.dim)[None, :])[0])


@functools.cache
def _hermite(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only 1-D Gauss-Hermite nodes and weights of order q, the weights
    normalized to sum to 1; built once per order.  An unsupported order
    raises, so it is never cached, and at most orders 1-370 are kept."""
    t, w = hermgauss(q)
    # numpy's weights underflow to 0 at q = 371 and are NaN beyond.
    if not np.all(np.isfinite(w) & (w > 0.0)):
        raise UnsupportedOrder(
            f"Gauss-Hermite weights at order {q} are not all finite and positive"
        )
    w = w / math.sqrt(math.pi)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor-product Gauss-Hermite rule for a Gaussian weight N(0, C).

    ``measure`` is N(C) itself.  ``nodes`` holds the transformed points
    x_i = sqrt(2) L t_i (L the measure's Cholesky factor) in canonical
    lexicographic order; ``weights`` are normalized to sum to 1, so the rule
    computes expectations under N(0, C).
    """

    nodes: np.ndarray
    weights: np.ndarray
    measure: GaussianMeasure

    @property
    def dim(self) -> int:
        return self.measure.dim

    @classmethod
    def for_covariance(cls, C: Sym2Tensor, order: int | None = None) -> "QuadratureRule":
        measure = GaussianMeasure(C)
        n = C.dim
        q = int(order) if order is not None else default_order(n)
        t, w = _hermite(q)
        # Row i holds the 1-D indices of node i; lexicographic order fixes
        # the reduction order.
        idx = np.indices((q,) * n).reshape(n, -1).T
        nodes = math.sqrt(2.0) * t[idx] @ measure._chol.T
        weights = np.prod(w[idx], axis=1)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        return cls(nodes=nodes, weights=weights, measure=measure)


#: log of the largest weighted integrand term a reduction accepts.
_OVERFLOW_LOG = 700.0


def _weighted_sums(log_weights, log_values, points, signs=None) -> np.ndarray:
    """Per row of an (m, q) block of log-integrand values, one row per point,
    the weighted sum exp(peak) * sum(sign * exp(e - peak)), e = log_weights
    + log_values; an all-zero row sums to 0.  Raises QuadratureOverflow,
    naming the row's point, when its peak exceeds ``_OVERFLOW_LOG``."""
    e = log_weights + log_values
    peak = e.max(axis=1)
    hot = np.flatnonzero(peak > _OVERFLOW_LOG)
    if hot.size:
        i = hot[0]
        raise QuadratureOverflow(
            f"integrand magnitude exp({peak[i]:.1f}) at a node for the point {points[i]}"
        )
    # An all-zero row has peak -inf; a shift of 0 keeps its terms at 0.
    shift = np.where(np.isneginf(peak), 0.0, peak)
    terms = np.exp(e - shift[:, None])
    if signs is not None:
        terms *= signs
    return np.exp(shift) * np.sum(terms, axis=1)


def act_fun_gaussian(M: GlElement, g: GaussianMeasure) -> GaussianMeasure:
    """det(M) N(C) o M = N(M^{-1} C M^{-T}); restricted to det(M) > 0."""
    if M.dim != g.dim:
        raise DimensionMismatch(f"dimension mismatch: {M.dim} vs {g.dim}")
    if M.det <= 0.0:
        raise NonPositiveDeterminant(f"det(M) = {M.det:.6g} must be positive")
    return GaussianMeasure(act_sym(M.inverse, g.covariance))


def shifted_log_eval(g: GaussianMeasure, C: Sym2Tensor, k, x) -> float:
    """log of exp(k(x) + kCk/2) g(x + Ck): the annihilation-orbit value.

    This is the closed form of the group action of the annihilation section
    of C on g; it equals log g(x) for every k exactly when C is the
    covariance of g.
    """
    kv = as_vector(k, g.dim)
    xv = as_vector(x, g.dim)
    ck = C.matrix @ kv
    return float(kv @ xv) + 0.5 * float(kv @ ck) + g.log_eval(xv + ck)


def normalization_by_quadrature(g: GaussianMeasure) -> float:
    """Total integral of g estimated with a mismatched Gauss-Hermite weight.

    The weight covariance is deliberately inflated to 2C so the result is a
    genuine quadrature estimate rather than an identity of the rule.
    """
    rule = QuadratureRule.for_covariance(2.0 * g.covariance)
    log_ratio = g.log_density(rule.nodes) - rule.measure.log_density(rule.nodes)
    # The integral is (g * 1)(0), so an overflow names the origin.
    origin = np.zeros((1, g.dim))
    return float(_weighted_sums(np.log(rule.weights), log_ratio[None, :], origin)[0])
