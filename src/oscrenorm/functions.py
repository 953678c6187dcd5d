"""Evaluable functions on field space and the interaction generating
function ``wtilde``.

A ``FieldFunction`` is a pure evaluator plus structural metadata: the
``Polynomial`` it evaluates, if it is a polynomial, and one integrability
flag, ``integrable``: exp of the function decays against a Gaussian, which
``wtilde`` asks of an interaction.  Functions are evaluated pointwise, and
``wtilde`` integrates exp of an interaction against a Gaussian with
tensor-product Gauss-Hermite quadrature.  That is the one weighted sum
over a rule's nodes, and it stays in the log domain: ``_log_sums`` shifts
each row by its peak and takes the log of the shifted sum.

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
so a value's bits do not depend on the layout.  One sum is the exception:
on its expansion path ``wtilde`` sums a polynomial interaction's monomials
by a BLAS product, one matrix-vector product per point, whose bits depend
on neither the block nor the BLAS thread count.
"""

from __future__ import annotations

import itertools
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

# The expansion path of ``wtilde``; see its docstring.
#: Rows one expansion chunk aims at: max(1, _EXPAND_ROWS // q^n) points.  Its
#: one block of that size, the exponents, takes 512 KiB.
_EXPAND_ROWS = 2**16
#: Largest degree expanded: the expansion cancels like ((|x| + |y|) /
#: |x - y|)^d, so past it the bound admits few points.
_EXPAND_MAX_DEGREE = 8
#: Largest W, in entries (4 MiB).  A rule that would need a larger one takes
#: the row path and keeps its peak memory: for a 4-D quartic with 21
#: monomials, every order past 12, up to the largest rule of 2^20 nodes.
_EXPAND_MAX_ENTRIES = 2**19
#: A point keeps its expansion value when its bound B(x) is at most this
#: times 1 + |value|.  2^-36 = 1.5e-11 is 10 times the largest B(x) / (1 +
#: |value|) on the benchmark's configs, and over 600 times below the
#: tightest tolerance any check puts on a convolution (1e-8).
_EXPAND_RTOL = 2.0**-36
#: Unit roundoff of float64.
_UNIT_ROUNDOFF = 2.0**-53


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
            tuple([t for t, v in enumerate(e) if v == d] for d in range(1, max(e, default=0) + 1))
            for e in self.exponents.T.tolist()
        )

    @cached_property
    def _translation(self) -> tuple:
        """The expansion p(x - y) = sum_g x^g W_g(y) as (monomials, plan).
        ``monomials`` is the Polynomial of unit coefficients on the
        exponents g below some term's, sorted.  ``plan`` holds, for each term
        e and each g below it in term order, (index of g, b, factors, first)
        with b = c_e C(e, g) (-1)^|e - g|, ``factors`` the coordinate of each
        factor of y^(e - g) and ``first`` whether it is the first entry for
        g: W_g(y) sums b y^(e - g) over the entries for g.  The sign of
        (-y)^(e - g) rides on the exact integer factor of b."""
        exponents = self.exponents.tolist()
        below = [list(itertools.product(*[range(v + 1) for v in e])) for e in exponents]
        monomials = sorted(set().union(*below))
        index = {g: i for i, g in enumerate(monomials)}
        plan, seen = [], set()
        for e, c, gs in zip(exponents, self.coeffs.tolist(), below):
            for g in gs:
                delta = [v - a for v, a in zip(e, g)]
                b = c * (-1) ** sum(delta) * math.prod(map(math.comb, e, g))
                factors = [i for i, d in enumerate(delta) for _ in range(d)]
                plan.append((index[g], b, factors, index[g] not in seen))
                seen.add(index[g])
        unit = Polynomial(np.reshape(monomials, (-1, len(exponents[0]))), np.ones(len(monomials)))
        return unit, tuple(plan)

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


def _log_sums(e: np.ndarray) -> np.ndarray:
    """Per row of an (m, q) block e of log-integrand values plus log weights,
    one row per point, the log of its sum, shift + log(sum(exp(e - shift))).

    The shift is the row's peak, or 0 for an all-zero row (peak -inf), whose
    terms then stay 0 and whose log is -inf.  A row with a NaN or +inf term
    gets NaN terms, which ``wtilde`` rejects.  The terms are taken in place:
    e must be a block that the caller owns."""
    peak = e.max(axis=1)
    shift = np.where(np.isneginf(peak), 0.0, peak)
    with np.errstate(invalid="ignore"):
        e -= shift[:, None]
    np.exp(e, out=e)
    with np.errstate(divide="ignore"):
        return shift + np.log(np.sum(e, axis=1))


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


def _expansion(poly: Polynomial, cols: np.ndarray):
    """The expansion of I(x - y) in x at the node columns ``cols``, or None
    where ``wtilde`` takes the row path for every point.

    I(x - y) = sum_g x^g W_g(y), with g over the exponents below some term's
    and W_g(y) = sum_t c_t prod_i C(e_ti, g_i) (-y_i)^(e_ti - g_i), from the
    plan of ``Polynomial._translation``.  Returns (monomials, W, size):
    ``monomials`` the Polynomial of unit coefficients on the g, whose
    ``design_matrix`` gives a chunk's x^g; W the read-only C-ordered
    (|g|, q^n) matrix of the W_g at the nodes, each sum taken in term order,
    its powers by multiplication; and ``size`` the (|g|,) vector with
    sum_g |x^g| size[g] = B(x), the bound of ``wtilde``."""
    degree = int(poly.exponents.sum(axis=1).max(initial=0))
    if not len(poly.coeffs) or degree > _EXPAND_MAX_DEGREE:
        return None
    monomials, plan = poly._translation
    count, nodes = len(monomials.coeffs), cols.shape[1]
    if count * nodes > _EXPAND_MAX_ENTRIES:
        return None
    # Each entry goes straight into its row of W, or into one scratch row
    # when the row already holds a sum.  sum_g |x^g| size[g] = |I|(|x| + r)
    # by the binomial theorem, r the largest |node| per coordinate.
    W, scratch, ys = np.empty((count, nodes)), np.empty(nodes), list(cols)
    radius = np.maximum(cols.max(axis=1), -cols.min(axis=1)).tolist()
    size = [0.0] * count
    for r, b, factors, first in plan:
        out = W[r] if first else scratch
        if factors:
            np.multiply(ys[factors[0]], b, out=out)
            for i in factors[1:]:
                out *= ys[i]
        else:
            out.fill(b)
        if not first:
            W[r] += scratch
        size[r] += abs(b) * math.prod([radius[i] for i in factors])
    W.setflags(write=False)
    kappa = count + 2 * degree + len(poly.coeffs)
    return monomials, W, np.multiply(size, kappa * _UNIT_ROUNDOFF / (1.0 - kappa * _UNIT_ROUNDOFF))


def wtilde(P: Sym2Tensor, I: FieldFunction, order: int | None = None) -> FieldFunction:
    """Interaction part of the generating function, log(N(P) * exp o I).

    A zero covariance acts as the delta for convolution, so wtilde(0, I)
    returns I unchanged.  Otherwise a point's value is the log of the
    expectation of exp(I(x - y)) over y ~ N(0, P), via Hermite nodes
    transformed by the Cholesky factor of P, taken in the log domain by
    ``_log_sums``; a P that is not positive definite fails its
    ``GaussianMeasure`` with NotPositiveDefinite.  A point whose value is
    not finite (every term 0, or a term inf or NaN) raises
    NonPositiveConvolution.  The columns and log weights come from one rule
    per covariance object, which every call on that P at the same order
    reuses: a flow's steps at one factor share their lift's covariance, so
    they share its rule.

    The exponents I(x - y) are taken on one of two paths, chosen here.

    Row path: ``I.evaluator`` on every (point, node) row.  A block of points
    is taken in chunks of max(1, ``_CHUNK_ROWS`` // q^n) points, i.e. at
    most max(``_CHUNK_ROWS``, q^n) rows.  A chunk's shifted block is built
    column by column from the (n, q^n) node columns, point-major as in the
    rule's reduction order, and passed on Fortran-ordered.

    Expansion path, for a ``Polynomial`` I of k >= 1 terms and degree
    d <= ``_EXPAND_MAX_DEGREE``, when W has at most ``_EXPAND_MAX_ENTRIES``
    entries: ``_expansion`` writes I(x - y) = sum_g x^g W_g(y), over the
    exponents g below some term's, with W the (|g|, q^n) matrix of the W_g
    at the nodes, built once here.
    A chunk of max(1, ``_EXPAND_ROWS`` // q^n) points takes its (m, |g|)
    monomial table, one BLAS product of each point's row with W, and the
    same log sums.  The products go into one exponent block per call, which
    every chunk overwrites: a fresh block per chunk costs its page faults
    again, and a block per function would be shared by two threads that
    evaluate it at once.  Each point is its own (1, |g|) @ (|g|, q^n) product
    (gemv): a product of several rows (gemm) can round a row otherwise by
    the number of rows beside it and by the BLAS thread count, and then a
    value would depend on its block.

    Rounding bound of the expansion path.  Let u = 2^-53, kappa = |g| + 2 d
    + k and gamma = kappa u / (1 - kappa u).  Each exponent is within
    gamma |I|(|x| + |y|) of I(x - y), where |I| has the coefficients |c_t|
    and |.| is taken per coordinate: W is within gamma_(d+k), x^g within
    gamma_d and their product within gamma_|g| of exact, relative to the
    sums of absolute values, whose total is |I|(|x| + |y|) by the binomial
    theorem.  A log sum moves by at most its largest exponent error, so a
    point's value is within B(x) = gamma |I|(|x| + r) of the log sum of the
    exact exponents, r the largest |node| per coordinate, besides the
    rounding of the log sum itself, which both paths share.  A point keeps
    its expansion value when that value is finite and B(x) <=
    ``_EXPAND_RTOL`` (1 + |value|); any other point is taken again on the
    row path, so a point's path depends only on the point, the interaction
    and the rule.
    """
    if P.dim != I.dim:
        raise DimensionMismatch(f"dimension mismatch: {P.dim} vs {I.dim}")
    if P.is_zero():
        return I
    if not I.integrable:
        raise NotIntegrable("interaction is not exp-integrable")
    cols, log_weights = _rule_columns(P, order)
    nodes = cols.shape[1]

    def rows(X):
        out = np.empty(len(X))
        per_chunk = max(1, _CHUNK_ROWS // nodes)
        for lo in range(0, len(X), per_chunk):
            x = X[lo:lo + per_chunk]
            shifted = (x.T[:, :, None] - cols[:, None, :]).reshape(P.dim, -1).T
            value = _log_sums(log_weights + I.evaluator(shifted).reshape(len(x), -1))
            bad = np.flatnonzero(~np.isfinite(value))
            if bad.size:
                raise NonPositiveConvolution(
                    "log of the Gaussian convolution of exp o I is not finite "
                    f"at {x[bad[0]]}"
                )
            out[lo:lo + per_chunk] = value
        return out

    expansion = None if I.poly is None else _expansion(I.poly, cols)
    if expansion is None:
        return FieldFunction(rows, P.dim, integrable=True)
    monomials, W, size = expansion

    def expanded(X):
        out = np.empty(len(X))
        per_chunk = max(1, _EXPAND_ROWS // nodes)
        block = np.empty((min(per_chunk, len(X)), 1, nodes))
        for lo in range(0, len(X), per_chunk):
            x = X[lo:lo + per_chunk]
            table = monomials.design_matrix(x)
            # Rows that overflow are taken again on the row path, which
            # warns as it always has.
            with np.errstate(over="ignore", invalid="ignore"):
                # One (1, |g|) @ (|g|, q^n) product per point, as a stack.
                e = np.matmul(table[:, None, :], W, out=block[:len(x)]).reshape(len(x), nodes)
                e += log_weights
                value = _log_sums(e)
                bound = np.sum(np.abs(table) * size, axis=1)
                keep = bound <= _EXPAND_RTOL * (1.0 + np.abs(value))
            redo = ~(keep & np.isfinite(value))
            if redo.any():
                value[redo] = rows(x[redo])
            out[lo:lo + per_chunk] = value
        return out

    return FieldFunction(expanded, P.dim, integrable=True)
