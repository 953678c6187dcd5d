"""Evaluable functions on field space and the oscillator-group action.

A ``FieldFunction`` is a pure evaluator plus structural metadata: the
coefficient table of a polynomial (or of the exponent of an exp-polynomial)
and an integrability flag.  Functions are evaluated pointwise and
integrated with tensor-product Gauss-Hermite quadrature.

Evaluators work on blocks of points: an (m, n) array, one point per row,
maps to the (m,) array of values.  ``f.values(points)`` is the batched
public entry and ``f(x)`` the single-point one; both validate their input.
Each row's value is reduced in a fixed order that does not depend on the
other rows of the block, so batching never changes a value.

The group acts on the right:

    sigma(f, (M, k, v, c))(x) = exp(k(x) + c) * f(Mx + v)
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .errors import (
    DimensionMismatch,
    NonPositiveConvolution,
    NonPositiveValue,
    NotIntegrable,
)
# default_order stays importable from here: perfbench/tracing.py reads
# functions.default_order to count the nodes of default-order convolutions.
from .gaussian import GaussianMeasure, QuadratureRule, _weighted_sums
from .gaussian import default_order  # noqa: F401
from .oscgroup import OscElement
from .tensors import GlElement, Sym2Tensor, as_block, as_vector

#: Most (point, node) integrand rows one chunk of a Gaussian convolution
#: evaluates at once; bounds the memory of its temporaries.
_CHUNK_ROWS = 4096

_LEADING_FORM_SAMPLES = 100


def monomials(X: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """(m, k) values of the monomials x^e, e the rows of ``exponents``, at the
    rows of X; built one coordinate at a time, with no (m, k, n) temporary.

    Powers come from repeated multiplication, x^d = x^(d-1) * x, and each
    term takes its power when the running power reaches its exponent, so
    the extra memory is O(m) whatever the degree. numpy's ``pow`` is not
    used: with an array exponent it sends negative bases to a scalar path
    about 10 times slower than its SIMD path for positive ones, and the two
    paths differ in the last bit. By multiplication, x^e at -x is
    (-1)^|e| x^e bit for bit.
    """
    out = np.ones((len(X), len(exponents)))
    for x, e in zip(X.T, exponents.T):
        power = np.ones(len(X))
        for d in range(1, e.max(initial=0) + 1):
            power = power * x
            terms = e == d
            if terms.any():
                out[:, terms] *= power[:, None]
    return out


def _poly_values(X, exponents, coeffs) -> np.ndarray:
    return np.sum(monomials(X, exponents) * coeffs, axis=1)


def _apply(m: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Rows of X mapped by the matrix m, i.e. X @ m.T, summed row by row."""
    return np.sum(X[:, None, :] * m, axis=2)


def _exp_integrable(exponents: np.ndarray, coeffs: np.ndarray) -> bool:
    """Whether exp of the polynomial has Gaussian-dominated decay.

    Degree <= 1 is always fine (any Gaussian factor dominates); otherwise the
    maximal total degree must be even with a strictly negative leading form
    on sampled random directions.
    """
    degrees = exponents.sum(axis=1)
    degree = degrees.max(initial=0)
    if degree <= 1:
        return True
    if degree % 2 != 0:
        return False
    leading = degrees == degree
    dim = exponents.shape[1]
    u = default_rng(0).normal(size=((2**dim) * _LEADING_FORM_SAMPLES, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return bool(np.all(_poly_values(u, exponents[leading], coeffs[leading]) < 0.0))


@dataclass(frozen=True)
class FieldFunction:
    """Evaluable real-valued function on R^n.

    ``evaluator`` maps a validated (m, n) block of points to its (m,)
    values.
    """

    evaluator: object
    dim: int
    terms: tuple = None
    integrable: bool = False

    def values(self, points) -> np.ndarray:
        """Values at the rows of an (m, n) block of points."""
        return self.evaluator(as_block(points, self.dim))

    def __call__(self, x) -> float:
        return float(self.evaluator(as_vector(x, self.dim)[None, :])[0])

    @classmethod
    def polynomial(cls, terms, dim: int) -> "FieldFunction":
        """Polynomial from a coefficient table [(exponents, coeff), ...].

        The ``integrable`` flag records whether exp of the polynomial decays
        against any Gaussian (the sense used by the convolution routines).
        """
        clean = []
        for exponents, coeff in terms:
            e = tuple(operator.index(v) for v in exponents)
            if len(e) != dim or any(v < 0 for v in e):
                raise DimensionMismatch(f"bad exponent tuple {e} for dimension {dim}")
            c = float(coeff)
            if not math.isfinite(c):
                raise ValueError(f"coefficient of {e} must be finite, got {c}")
            if c != 0.0:
                clean.append((e, c))
        clean = tuple(sorted(clean))
        exponents = np.array([e for e, _ in clean], dtype=int).reshape(len(clean), dim)
        coeffs = np.array([c for _, c in clean])
        return cls(
            evaluator=lambda X: _poly_values(X, exponents, coeffs),
            dim=dim,
            terms=clean,
            integrable=_exp_integrable(exponents, coeffs),
        )

    @classmethod
    def constant(cls, value: float, dim: int) -> "FieldFunction":
        return cls.polynomial([((0,) * dim, float(value))], dim)

    @classmethod
    def zero(cls, dim: int) -> "FieldFunction":
        return cls.constant(0.0, dim)

    @classmethod
    def gaussian(cls, C: Sym2Tensor) -> "FieldFunction":
        g = GaussianMeasure(C)
        return cls(lambda X: np.exp(g.log_density(X)), C.dim, integrable=True)

    @classmethod
    def exp_polynomial(cls, terms, dim: int) -> "FieldFunction":
        """exp of a polynomial, validated for Gaussian-dominated decay."""
        poly = cls.polynomial(terms, dim)
        if not poly.integrable:
            raise NotIntegrable(
                "exp-polynomial must have even maximal degree with a "
                "negative-definite leading form"
            )
        return cls(
            evaluator=lambda X: np.exp(poly.evaluator(X)),
            dim=dim,
            terms=poly.terms,
            integrable=True,
        )


def sigma_act(f: FieldFunction, g: OscElement) -> FieldFunction:
    """Right action (sigma f)(x) = exp(k(x) + c) f(Mx + v)."""
    if f.dim != g.dim:
        raise DimensionMismatch(f"dimension mismatch: {f.dim} vs {g.dim}")
    m, k, v, c = g.m.matrix, g.k, g.v, g.c

    def evaluator(X):
        return np.exp(np.sum(X * k, axis=1) + c) * f.evaluator(_apply(m, X) + v)

    # Gaussian-dominated decay survives the action: M is invertible and the
    # exponential-linear prefactor is subdominant.
    return FieldFunction(evaluator, f.dim, integrable=f.integrable)


def compose(f: FieldFunction, M: GlElement) -> FieldFunction:
    """Plain composition f o M (no determinant prefactor)."""
    if M.dim != f.dim:
        raise DimensionMismatch(f"dimension mismatch: {M.dim} vs {f.dim}")
    m = M.matrix
    return FieldFunction(
        lambda X: f.evaluator(_apply(m, X)), f.dim, integrable=f.integrable
    )


def convolve_numeric(
    f: FieldFunction, g: FieldFunction, rule: QuadratureRule, x
) -> float:
    """Quadrature estimate of (f * g)(x) = int f(y) g(x - y) dy.

    The integral is rewritten as an expectation under the rule's Gaussian
    weight; at least one factor must be declared integrable and the weight
    covariance must dominate the decay of the product for the estimate to
    converge.
    """
    if f.dim != g.dim or f.dim != rule.dim:
        raise DimensionMismatch("convolution factors and rule must share a dimension")
    if not (f.integrable or g.integrable):
        raise NotIntegrable("at least one convolution factor must be integrable")
    xv = as_vector(x, f.dim)
    nodes = rule.nodes
    # An overflowing product fails the reduction's guard; a zero one gives
    # log 0 = -inf and contributes exactly 0.
    with np.errstate(over="ignore", divide="ignore"):
        prod = f.evaluator(nodes) * g.evaluator(xv - nodes)
        log_ratio = np.log(np.abs(prod)) - rule.measure.log_density(nodes)
    log_weights, signs = np.log(rule.weights), np.sign(prod)[None, :]
    return float(_weighted_sums(log_weights, log_ratio[None, :], xv[None, :], signs)[0])


def gauss_convolve_exp(
    P: Sym2Tensor, I: FieldFunction, *, order: int | None = None
) -> FieldFunction:
    """The convolution N(P) * (exp o I) as an evaluable function.

    Computed at each point as the expectation of exp(I(x - y)) over
    y ~ N(0, P), via Hermite nodes transformed by the Cholesky factor of P;
    a P that is not positive definite fails its ``GaussianMeasure`` with
    NotPositiveDefinite.
    A block of points is taken in chunks of at most ``_CHUNK_ROWS``
    (point, node) rows, each reduced by ``gaussian._weighted_sums``.
    """
    if P.dim != I.dim:
        raise DimensionMismatch(f"dimension mismatch: {P.dim} vs {I.dim}")
    if not I.integrable:
        raise NotIntegrable("interaction is not exp-integrable")
    rule = QuadratureRule.for_covariance(P, order)
    nodes, log_weights = rule.nodes, np.log(rule.weights)
    per_chunk = max(1, _CHUNK_ROWS // len(nodes))

    def evaluator(X):
        out = np.empty(len(X))
        for lo in range(0, len(X), per_chunk):
            x = X[lo:lo + per_chunk]
            shifted = (x[:, None, :] - nodes).reshape(-1, P.dim)
            log_values = I.evaluator(shifted).reshape(len(x), -1)
            value = _weighted_sums(log_weights, log_values, x)
            bad = np.flatnonzero(~(value > 0.0))
            if bad.size:
                raise NonPositiveConvolution(
                    "Gaussian convolution of a positive integrand came out <= 0 "
                    f"at {x[bad[0]]}"
                )
            out[lo:lo + per_chunk] = value
        return out

    return FieldFunction(evaluator, P.dim, integrable=True)


def log_fn(f: FieldFunction) -> FieldFunction:
    """Pointwise natural log; raises at evaluation on non-positive values."""

    def evaluator(X):
        values = f.evaluator(X)
        bad = np.flatnonzero(values <= 0.0)
        if bad.size:
            i = bad[0]
            raise NonPositiveValue(f"log of non-positive value {values[i]} at {X[i]}")
        return np.log(values)

    return FieldFunction(evaluator, f.dim, integrable=f.integrable)
