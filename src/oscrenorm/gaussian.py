"""Normalized centered Gaussian measures and their convolution semigroup.

The density of N[C] is (2 pi)^(-n/2) det(C)^(-1/2) exp(-x C^{-1} x / 2).
Convolution adds covariances exactly, and GL(V) acts through
det(M) N(C) o M = N(M^{-1} C M^{-T}).  Evaluation is done in the log
domain (log-normalizer plus quadratic form) and exponentiated at the
boundary.  Expectations under N(C) are taken with a tensor-product
Gauss-Hermite ``QuadratureRule``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .errors import (
    DimensionMismatch,
    NonPositiveDeterminant,
    NotPositiveDefinite,
    UnsupportedOrder,
)
from .tensors import (
    GlElement,
    Sym2Tensor,
    act_sym,
    as_block,
    as_vector,
    cholesky,
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

    The Cholesky factor and log-normalizer are computed once at
    construction; evaluation is pure and thread-safe.
    """

    covariance: Sym2Tensor

    def __post_init__(self):
        if not is_positive_definite(self.covariance):
            raise NotPositiveDefinite("Gaussian covariance must be positive definite")
        chol = cholesky(self.covariance)
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
        solved = cho_solve((self._chol, True), X.T).T
        return self._log_norm - 0.5 * np.sum(X * solved, axis=1)

    def log_eval(self, x) -> float:
        return float(self.log_density(as_vector(x, self.dim)[None, :])[0])

    def eval(self, x) -> float:
        return math.exp(self.log_eval(x))


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor-product Gauss-Hermite rule for a Gaussian weight N(0, C).

    ``nodes`` holds the transformed points x_i = sqrt(2) L t_i (L the
    Cholesky factor of C) in canonical lexicographic order; ``weights`` are
    normalized to sum to 1, so the rule computes expectations under N(0, C).
    """

    nodes: np.ndarray
    weights: np.ndarray
    covariance: Sym2Tensor
    order: int

    @property
    def dim(self) -> int:
        return self.covariance.dim

    @classmethod
    def for_covariance(cls, C: Sym2Tensor, order: int | None = None) -> "QuadratureRule":
        if not is_positive_definite(C):
            raise NotPositiveDefinite("quadrature weight covariance must be PD")
        n = C.dim
        q = int(order) if order is not None else default_order(n)
        t, w = np.polynomial.hermite.hermgauss(q)
        # numpy's weights underflow to 0 at q = 371 and are NaN beyond.
        if not np.all(np.isfinite(w) & (w > 0.0)):
            raise UnsupportedOrder(
                f"Gauss-Hermite weights at order {q} are not all finite and positive"
            )
        w = w / math.sqrt(math.pi)
        L = cholesky(C)
        # Lexicographic tensor product fixes the reduction order.
        grids = np.array(list(itertools.product(t, repeat=n)))
        weights = np.prod(np.array(list(itertools.product(w, repeat=n))), axis=1)
        nodes = math.sqrt(2.0) * grids @ L.T
        nodes.setflags(write=False)
        weights.setflags(write=False)
        return cls(nodes=nodes, weights=weights, covariance=C, order=q)


def gaussian_convolve(g1: GaussianMeasure, g2: GaussianMeasure) -> GaussianMeasure:
    """N(A) * N(B) = N(A + B), computed as exact covariance addition."""
    if g1.dim != g2.dim:
        raise DimensionMismatch(f"dimension mismatch: {g1.dim} vs {g2.dim}")
    return GaussianMeasure(g1.covariance + g2.covariance)


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


def normalization_by_quadrature(g: GaussianMeasure, order: int | None = None) -> float:
    """Total integral of g estimated with a mismatched Gauss-Hermite weight.

    The weight covariance is deliberately inflated to 2C so the result is a
    genuine quadrature estimate rather than an identity of the rule.
    """
    if order is None:
        order = {1: 40, 2: 24, 3: 14}.get(g.dim, 10)
    weight = GaussianMeasure(2.0 * g.covariance)
    rule = QuadratureRule.for_covariance(weight.covariance, order)
    ratio = np.exp(g.log_density(rule.nodes) - weight.log_density(rule.nodes))
    return float(np.sum(rule.weights * ratio))


def check_gauss_char(
    g: GaussianMeasure,
    C: Sym2Tensor,
    trials: int = 50,
    rng: np.random.Generator | None = None,
    atol: float = 1e-10,
    norm_atol: float = 1e-8,
    order: int | None = None,
) -> bool:
    """Fixed-point test: is g invariant under the annihilation orbit of C?

    Samples random (k, x) pairs and compares the closed-form orbit value
    against g pointwise, then confirms the total integral of g is 1 by
    quadrature.  Together the two conditions characterize g = N(C).
    """
    if g.dim != C.dim:
        raise DimensionMismatch(f"dimension mismatch: {g.dim} vs {C.dim}")
    if rng is None:
        rng = np.random.default_rng(0)
    for _ in range(int(trials)):
        k = rng.uniform(-1.0, 1.0, size=g.dim)
        x = rng.uniform(-2.0, 2.0, size=g.dim)
        moved = shifted_log_eval(g, C, k, x)
        if abs(moved - g.log_eval(x)) > atol:
            return False
    return abs(normalization_by_quadrature(g, order) - 1.0) <= norm_atol
