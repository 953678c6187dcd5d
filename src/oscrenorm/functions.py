"""Evaluable functions on field space and the interaction generating
function ``wtilde``.

A ``FieldFunction`` is a pure evaluator plus structural metadata: the
``Polynomial`` it evaluates, if it is a polynomial, and one integrability
flag, ``integrable``: exp of the function decays against a Gaussian, which
``wtilde`` asks of an interaction.  Functions are evaluated pointwise, and
``wtilde`` integrates exp of an interaction against a Gaussian with
tensor-product Gauss-Hermite quadrature.  That is the one weighted sum
over a rule's nodes, and it stays in the log domain: ``_shifted_terms``
shifts each row by its peak, and ``wtilde`` takes the log of the shifted
sum.

``Polynomial`` alone reads an exponent table.  It takes powers by
multiplication, never by numpy's ``pow``, whose path for negative bases is
10 times slower and off in the last bit, and its design matrix is
C-ordered: a fit against a transposed one moves the residual's last digits.

Evaluators work on blocks of points: an (m, n) array, one point per row,
maps to the (m,) array of values.  ``f.values(points)`` is the batched
public entry and ``f(x)`` the single-point one; both validate their input.
Each row's value is reduced in a fixed order that does not depend on the
other rows of the block, so batching never changes a value.

Inside this module a block is laid out column by column (Fortran order):
a convolution evaluates its integrand on q^n rows per point, q^2n for a
nested pair, but only n <= 4 coordinates and a few polynomial terms, so
every array operation here runs along the long point axis, one coordinate
column or one term row at a time.  Short sums over coordinates or terms
are taken in order from 0.0, as numpy's own sum takes them up to 7 terms,
so a value's bits do not depend on the layout.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DimensionMismatch, NonPositiveConvolution, NotIntegrable
# default_order stays importable from here: perfbench/tracing.py reads
# functions.default_order to count the nodes of default-order convolutions.
from .gaussian import QuadratureRule
from .gaussian import default_order  # noqa: F401
from .tensors import MAX_DIM, Frozen, GlElement, Sym2Tensor, as_block, as_vector

#: (point, node) integrand rows one chunk of a Gaussian convolution aims
#: at: a chunk holds max(1, _CHUNK_ROWS // q^n) points, so at most
#: max(_CHUNK_ROWS, q^n) rows; bounds the memory of its temporaries.
_CHUNK_ROWS = 4096


def _dot(X: np.ndarray, w) -> np.ndarray:
    """X @ w for an (m, n) block, one coordinate column at a time, summed in
    coordinate order from 0.0."""
    total = 0.0
    for x, wj in zip(X.T, w):
        total = total + x * wj
    return total


def _apply(m: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Rows of X mapped by the matrix m, i.e. X @ m.T, as a Fortran-ordered
    block."""
    return np.stack([_dot(X, row) for row in m]).T


class Polynomial(Frozen):
    """sum_t coeffs[t] x^exponents[t] on R^n, called on an (m, n) block for
    its (m,) values: ``exponents`` is a read-only (k, n) integer array and
    ``coeffs`` the read-only (k,) coefficients."""

    exponents: np.ndarray
    coeffs: np.ndarray

    def __init__(self, exponents, coeffs):
        for name, table in (("exponents", np.array(exponents, dtype=int)),
                            ("coeffs", np.array(coeffs, dtype=float))):
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    @classmethod
    def from_terms(cls, terms, dim: int) -> "Polynomial":
        """Polynomial from a coefficient table [(exponents, coeff), ...]: the
        coefficients of equal exponents summed in input order from 0.0, zero
        sums dropped, the terms sorted by exponents.  ``dim`` must lie in
        1..``tensors.MAX_DIM``, as for every other type."""
        if not 1 <= dim <= MAX_DIM:
            raise DimensionMismatch(f"polynomial dimension {dim} outside 1..{MAX_DIM}")
        sums = {}
        for exponents, coeff in terms:
            e = tuple(operator.index(v) for v in exponents)
            if len(e) != dim or any(v < 0 for v in e):
                raise DimensionMismatch(f"bad exponent tuple {e} for dimension {dim}")
            c = sums[e] = sums.get(e, 0.0) + float(coeff)
            if not math.isfinite(c):
                raise ValueError(f"coefficient of {e} must be finite, got {c}")
        kept = sorted(e for e, c in sums.items() if c != 0.0)
        return cls(np.reshape(kept, (len(kept), dim)), [sums[e] for e in kept])

    @property
    def terms(self) -> tuple:
        """The table as ((exponents, coeff), ...), in stored order."""
        return tuple(zip(map(tuple, self.exponents.tolist()), self.coeffs.tolist()))

    @cached_property
    def _powers(self) -> tuple:
        """For each coordinate, for each power d = 1, 2, ... up to its highest
        exponent, the indices of the terms whose exponent there is d."""
        return tuple(
            tuple(np.flatnonzero(e == d).tolist() for d in range(1, e.max(initial=0) + 1))
            for e in self.exponents.T
        )

    def _table(self, X: np.ndarray) -> np.ndarray:
        """(k, m) term-major monomial values at the rows of X: each term's row
        takes the running power x^d = x^(d-1) * x of each coordinate in place."""
        table = np.ones((len(self.coeffs), len(X)))
        for x, powers in zip(X.T, self._powers):
            power = x
            for d, terms in enumerate(powers):
                if d:
                    power = power * x
                for t in terms:
                    table[t] *= power
        return table

    def design_matrix(self, X: np.ndarray) -> np.ndarray:
        """C-contiguous (m, k) values of the monomials at the rows of X."""
        return np.ascontiguousarray(self._table(X).T)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """Values at the rows of X, the terms summed in order from 0.0; numpy's
        sum over a one-point table's terms goes pairwise from 8 terms on."""
        total = np.zeros(len(X))
        for row, c in zip(self._table(X), self.coeffs):
            row *= c
            total += row
        return total

    def exp_integrable(self) -> bool:
        """Whether exp of the polynomial decays against a Gaussian: degree
        <= 1, or even degree with a leading form negative on every
        direction of ``_directions``.  On a direction where the leading form
        vanishes, the highest part of degree >= 1 that does not vanish
        there decides: it must have even degree and be negative.  A
        direction on which every part of degree >= 1 vanishes is rejected."""
        degrees = self.exponents.sum(axis=1)
        degree = degrees.max(initial=0)
        if degree <= 1:
            return True
        if degree % 2 != 0:
            return False
        u = _directions(self.exponents.shape[1])
        for d in range(degree, 0, -1):
            part = degrees == d
            if not part.any():
                continue
            values = Polynomial(self.exponents[part], self.coeffs[part])(u)
            if (d % 2 != 0 and np.any(values != 0.0)) or np.any(values > 0.0):
                return False
            u = u[values == 0.0]
            if not len(u):
                return True
        return False


@cache
def _directions(dim: int) -> np.ndarray:
    """The directions of the nonzero points of the integer cube {-k..k}^dim,
    one of each pair +-u, as a read-only Fortran-ordered block; k >= 1 is
    the largest with at most 100 * 2^dim such points.  The set
    holds every coordinate axis and every vector with entries in
    {-1, 0, 1}.  A homogeneous form keeps its sign from u to
    u / max|u_i|, so each point is scaled onto the cube's surface, where a
    power of a coordinate cannot overflow, and repeated directions are
    dropped."""
    k = 1
    while ((2 * k + 3) ** dim - 1) // 2 <= 100 * 2**dim:
        k += 1
    cube = np.indices((2 * k + 1,) * dim).reshape(dim, -1).T - k
    # Lexicographic order puts -u opposite u, so the half past the origin
    # holds each pair once.
    half = cube[len(cube) // 2 + 1:]
    # A point whose entries share a factor repeats a smaller point's direction.
    half = half[np.gcd.reduce(half, axis=1) == 1]
    u = np.asfortranarray(half / np.abs(half).max(axis=1, keepdims=True))
    u.setflags(write=False)
    return u


# A dataclass, unlike the other value types: perfbench/tracing.py wraps an
# evaluator with dataclasses.replace.
@dataclass(frozen=True)
class FieldFunction:
    """Evaluable real-valued function on R^n.

    ``evaluator`` maps a validated (m, n) block of points to its (m,)
    values; ``poly`` is the ``Polynomial`` it evaluates, if it is one.
    ``integrable``: exp of the function decays against a Gaussian.
    """

    evaluator: object
    dim: int
    poly: Polynomial | None = None
    integrable: bool = False

    def values(self, points) -> np.ndarray:
        """Values at the rows of an (m, n) block of points."""
        return self.evaluator(np.asfortranarray(as_block(points, self.dim)))

    def __call__(self, x) -> float:
        return float(self.evaluator(as_vector(x, self.dim)[None, :])[0])

    @classmethod
    def polynomial(cls, terms, dim: int) -> "FieldFunction":
        """Polynomial from a coefficient table [(exponents, coeff), ...], read
        by ``Polynomial.from_terms``; ``integrable`` is its ``exp_integrable``.
        """
        poly = Polynomial.from_terms(terms, dim)
        return cls(
            evaluator=poly, dim=dim, poly=poly, integrable=poly.exp_integrable()
        )

    @classmethod
    def constant(cls, value: float, dim: int) -> "FieldFunction":
        return cls.polynomial([((0,) * dim, float(value))], dim)

    @classmethod
    def zero(cls, dim: int) -> "FieldFunction":
        return cls.constant(0.0, dim)


def compose(f: FieldFunction, M: GlElement) -> FieldFunction:
    """Plain composition f o M (no determinant prefactor); an invertible M
    keeps ``integrable``."""
    if M.dim != f.dim:
        raise DimensionMismatch(f"dimension mismatch: {M.dim} vs {f.dim}")
    m = M.matrix
    return FieldFunction(
        lambda X: f.evaluator(_apply(m, X)), f.dim, integrable=f.integrable
    )


def _shifted_terms(log_weights, log_values) -> tuple[np.ndarray, np.ndarray]:
    """Per row of an (m, q) block of log-integrand values, one row per point,
    the shift and the terms exp(e - shift), e = log_weights + log_values.

    The shift is the row's peak, or 0 for an all-zero row (peak -inf), whose
    terms then stay 0.  A row with a NaN or +inf term gets NaN terms, which
    ``wtilde`` rejects."""
    e = log_weights + log_values
    peak = e.max(axis=1)
    shift = np.where(np.isneginf(peak), 0.0, peak)
    with np.errstate(invalid="ignore"):
        return shift, np.exp(e - shift[:, None])


def _rule_columns(P: Sym2Tensor, order: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (n, q^n) node columns and (q^n,) log weights of the
    rule for N(P) at ``order``, kept in ``P._rules`` for the order last
    asked for, so that a covariance holds at most one rule; a build that
    raises keeps nothing."""
    if order not in P._rules:
        rule = QuadratureRule.for_covariance(P, order)
        cols, log_weights = np.ascontiguousarray(rule.nodes.T), np.log(rule.weights)
        cols.setflags(write=False)
        log_weights.setflags(write=False)
        P._rules.clear()
        P._rules[order] = cols, log_weights
    return P._rules[order]


def wtilde(P: Sym2Tensor, I: FieldFunction, order: int | None = None) -> FieldFunction:
    """Interaction part of the generating function, log(N(P) * exp o I).

    A zero covariance acts as the delta for convolution, so wtilde(0, I)
    returns I unchanged.  Otherwise a point's value is the log of the
    expectation of exp(I(x - y)) over y ~ N(0, P), via Hermite nodes
    transformed by the Cholesky factor of P, taken in the log domain as
    shift + log(sum(exp(log_w + I(x - y) - shift))) with the terms of
    ``_shifted_terms``; a P that is not positive definite fails
    its ``GaussianMeasure`` with NotPositiveDefinite.  A point whose value
    is not finite (every term 0, or a term inf or NaN) raises
    NonPositiveConvolution.
    A block of points is taken in chunks of max(1, ``_CHUNK_ROWS`` // q^n)
    points, i.e. at most max(``_CHUNK_ROWS``, q^n) (point, node) rows.  A
    chunk's shifted block is built column by column from the (n, q^n) node
    columns, point-major as in the rule's reduction order, and passed on
    Fortran-ordered.  The columns and log weights come from one rule per
    covariance object, which every call on that P at the same order reuses:
    a flow's steps at one factor share their lift's covariance, so they
    share its rule.
    """
    if P.dim != I.dim:
        raise DimensionMismatch(f"dimension mismatch: {P.dim} vs {I.dim}")
    if P.is_zero():
        return I
    if not I.integrable:
        raise NotIntegrable("interaction is not exp-integrable")
    cols, log_weights = _rule_columns(P, order)
    per_chunk = max(1, _CHUNK_ROWS // cols.shape[1])

    def evaluator(X):
        out = np.empty(len(X))
        for lo in range(0, len(X), per_chunk):
            x = X[lo:lo + per_chunk]
            shifted = (x.T[:, :, None] - cols[:, None, :]).reshape(P.dim, -1).T
            log_values = I.evaluator(shifted).reshape(len(x), -1)
            shift, terms = _shifted_terms(log_weights, log_values)
            # An all-zero row takes log 0 = -inf, and fails the guard below.
            with np.errstate(divide="ignore"):
                value = shift + np.log(np.sum(terms, axis=1))
            bad = np.flatnonzero(~np.isfinite(value))
            if bad.size:
                raise NonPositiveConvolution(
                    "log of the Gaussian convolution of exp o I is not finite "
                    f"at {x[bad[0]]}"
                )
            out[lo:lo + per_chunk] = value
        return out

    return FieldFunction(evaluator, P.dim, integrable=True)
