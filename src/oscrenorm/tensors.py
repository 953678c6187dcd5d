"""Dense linear algebra on small field spaces.

Vectors and dual vectors are plain 1-D numpy arrays.  Symmetric 2-tensors
(covariances, propagators) and invertible transforms get thin immutable
wrappers that enforce their invariants at construction time.  The
conjugation action of an invertible transform M on a symmetric tensor C is
fixed as M C M^T throughout (row-major convention).

Validation rule: public constructors validate fully (shape, dimension cap,
finiteness, and symmetry or conditioning).  Entry-by-entry arithmetic on
validated symmetric tensors (``+``, ``-``, unary ``-``, scalar ``*``) yields
a bit-for-bit symmetric result, so it re-checks only finiteness.

Products of validated transforms are certified without an SVD where the
bounds allow.  Each ``GlElement`` stores a lower bound on its smallest
singular value and an upper bound on its largest: public construction takes
them from its SVD, widened by the SVD's own error (``_SVD_RTOL`` times the
largest singular value).  For ``A @ B`` the rounded product C satisfies
``sigma_min(C) >= sigma_min(A) sigma_min(B) - s`` and
``sigma_max(C) <= sigma_max(A) sigma_max(B) + s``, where
``s = n gamma_n sigma_max(A) sigma_max(B)`` bounds the rounding of the
product, ``gamma_n = n eps / (1 - n eps)``, and a few more ulps cover the
rounding of the bounds themselves.  When the lower bound exceeds
``SINGULAR_RTOL + 2 _SVD_RTOL`` times the upper bound, an SVD of C could not
reject it, so C re-checks only finiteness and keeps these bounds as its own.
Otherwise C goes through the public constructor, which raises exactly what
it always did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DimensionMismatch, SingularTensor

#: Hard cap on field-space dimension for the dense representations.
MAX_DIM = 8

#: Relative asymmetry tolerated before a matrix is rejected as non-symmetric.
SYMMETRY_RTOL = 1e-10

#: Smallest-to-largest singular value ratio below which inversion is refused.
SINGULAR_RTOL = 1e-12

#: Relative eigenvalue floor for positive-definiteness.
PD_RTOL = 1e-12

_EPS = float(np.finfo(float).eps)

#: Error assumed of each singular value ``np.linalg.svd`` returns for
#: n <= MAX_DIM, relative to the largest one. LAPACK bounds it by
#: p(n) eps sigma_max for a modestly growing p(n); 64 MAX_DIM is generous.
_SVD_RTOL = 64 * MAX_DIM * _EPS

#: Bound ratio above which the SVD of a product cannot reject it: the SVD
#: moves the smallest singular value by at most _SVD_RTOL times the largest.
_PRODUCT_RTOL = SINGULAR_RTOL + 2.0 * _SVD_RTOL


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float array, optionally of length ``dim``."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.size}")
    return v


def as_block(points, dim: int) -> np.ndarray:
    """Coerce ``points`` to a finite (m, dim) float array, one point per row,
    with m >= 1; it fails the way ``as_vector`` does on each row."""
    b = np.asarray(points, dtype=float)
    if b.ndim != 2 or b.shape[0] < 1:
        raise DimensionMismatch(f"expected an (m, n) block of points, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError("vector entries must be finite")
    if b.shape[1] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {b.shape[1]}")
    return b


def _as_square(matrix, what: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"{what} must be square, got shape {m.shape}")
    if m.shape[0] > MAX_DIM:
        raise DimensionMismatch(
            f"{what} dimension {m.shape[0]} exceeds supported cap {MAX_DIM}"
        )
    if not np.isfinite(m).all():
        raise ValueError(f"{what} entries must be finite")
    return m


def _inf_norm(m: np.ndarray) -> float:
    """Max absolute row sum; the same reduction as ``np.linalg.norm(m, np.inf)``."""
    return np.abs(m).sum(axis=1).max()


@dataclass(frozen=True)
class Sym2Tensor:
    """Symmetric 2-tensor on R^n, stored as an n x n matrix.

    Inputs are symmetrized as C/2 + C^T/2; asymmetry beyond
    ``SYMMETRY_RTOL`` relative to the matrix norm is rejected outright, since
    everything downstream silently assumes exact symmetry.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square(self.matrix, "symmetric 2-tensor")
        # Both norms are taken of m / 32: dividing by a power of two is exact,
        # and for n <= MAX_DIM a row sum of n differences stays finite. They
        # are the _inf_norm of each half of one stacked block: the row sums
        # reduce the same contiguous rows, so they match it bit for bit.
        unit = m * 0.03125
        block = np.concatenate((unit, unit - unit.T))
        scale, asym = np.abs(block).sum(axis=1).reshape(2, -1).max(axis=1)
        if asym > SYMMETRY_RTOL * scale:
            raise DimensionMismatch(
                f"relative matrix asymmetry {asym / scale:.3e} exceeds "
                f"{SYMMETRY_RTOL:.0e}"
            )
        # Halving before adding keeps entries near the float maximum finite.
        sym = 0.5 * m + 0.5 * m.T
        sym.setflags(write=False)
        object.__setattr__(self, "matrix", sym)

    @classmethod
    def _exact(cls, matrix: np.ndarray) -> "Sym2Tensor":
        """Wrap an exactly symmetric matrix the caller owns, such as the
        entry-by-entry combination of validated symmetric tensors; only
        finiteness can fail."""
        if not np.isfinite(matrix).all():
            raise ValueError("symmetric 2-tensor entries must be finite")
        matrix.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "matrix", matrix)
        return out

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def zero(cls, dim: int) -> "Sym2Tensor":
        return cls(np.zeros((dim, dim)))

    @classmethod
    def identity(cls, dim: int) -> "Sym2Tensor":
        return cls(np.eye(dim))

    @classmethod
    def diagonal(cls, entries) -> "Sym2Tensor":
        return cls(np.diag(as_vector(entries)))

    def __add__(self, other: "Sym2Tensor") -> "Sym2Tensor":
        _check_same_dim(self, other)
        return Sym2Tensor._exact(self.matrix + other.matrix)

    def __sub__(self, other: "Sym2Tensor") -> "Sym2Tensor":
        _check_same_dim(self, other)
        return Sym2Tensor._exact(self.matrix - other.matrix)

    def __mul__(self, scalar: float) -> "Sym2Tensor":
        return Sym2Tensor._exact(float(scalar) * self.matrix)

    __rmul__ = __mul__

    def __neg__(self) -> "Sym2Tensor":
        return Sym2Tensor._exact(-self.matrix)

    def is_zero(self, atol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.matrix) <= atol))


@dataclass(frozen=True)
class GlElement:
    """Invertible linear transform of R^n.

    Rejected when the smallest singular value falls below
    ``SINGULAR_RTOL`` times the largest, so that downstream inverses carry
    meaningful error bounds. ``_smin`` and ``_smax`` bound the smallest and
    largest singular values of ``matrix``; they are not fields, so equality
    and ``repr`` see only the matrix.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square(self.matrix, "linear transform")
        self._certify(m.copy(), np.linalg.svd(m, compute_uv=False))

    @classmethod
    def _from_svd(cls, matrix: np.ndarray, svals: np.ndarray) -> "GlElement":
        """Wrap a finite square matrix the caller owns, given its singular
        values in descending order, as ``np.linalg.svd`` returns them."""
        out = object.__new__(cls)
        out._certify(matrix, svals)
        return out

    def _certify(self, m: np.ndarray, svals: np.ndarray) -> None:
        if svals[-1] <= SINGULAR_RTOL * svals[0]:
            raise SingularTensor(
                f"transform is singular to working precision "
                f"(sigma_min/sigma_max = {svals[-1] / svals[0]:.3e})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        smax = float(svals[0])
        object.__setattr__(self, "_smin", float(svals[-1]) - _SVD_RTOL * smax)
        object.__setattr__(self, "_smax", smax + _SVD_RTOL * smax)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    @cache
    def identity(cls, dim: int) -> "GlElement":
        """The identity of GL(R^dim); one shared read-only instance per dim."""
        return cls(np.eye(dim))

    @cached_property
    def inverse(self) -> "GlElement":
        return GlElement(np.linalg.inv(self.matrix))

    @cached_property
    def det(self) -> float:
        return float(np.linalg.det(self.matrix))

    def __matmul__(self, other: "GlElement") -> "GlElement":
        """The product, certified from its factors' singular-value bounds
        where they allow (see the module docstring), else by the SVD."""
        _check_same_dim(self, other)
        m = self.matrix @ other.matrix
        n = self.dim
        top = self._smax * other._smax
        slack = (n * n * _EPS / (1.0 - n * _EPS) + 4.0 * _EPS) * top
        lo, hi = self._smin * other._smin - slack, top + slack
        # At the dimensions the group checks draw, a loop over Python floats
        # is several times cheaper than a numpy isfinite reduction.
        if not (
            lo > _PRODUCT_RTOL * hi and all(map(math.isfinite, m.ravel().tolist()))
        ):
            return GlElement(m)
        m.setflags(write=False)
        out = object.__new__(GlElement)
        object.__setattr__(out, "matrix", m)
        object.__setattr__(out, "_smin", lo)
        object.__setattr__(out, "_smax", hi)
        return out


def _check_same_dim(a, b):
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")


def contract(C: Sym2Tensor, k) -> np.ndarray:
    """Contract a symmetric tensor with a dual vector: Ck.

    Symmetry makes the slot choice irrelevant (kC = Ck).
    """
    kv = as_vector(k, C.dim)
    return C.matrix @ kv


def quad_form(k, C: Sym2Tensor) -> float:
    """Double contraction kCk."""
    kv = as_vector(k, C.dim)
    return float(kv @ C.matrix @ kv)


def act_sym(M: GlElement, C: Sym2Tensor) -> Sym2Tensor:
    """Conjugation action of GL(V) on symmetric tensors: M C M^T."""
    _check_same_dim(M, C)
    return Sym2Tensor(M.matrix @ C.matrix @ M.matrix.T)


def min_eigenvalue(C: Sym2Tensor) -> float:
    return float(np.linalg.eigvalsh(C.matrix)[0])


def is_positive_definite(C: Sym2Tensor) -> bool:
    """True iff the smallest eigenvalue clears ``PD_RTOL`` times the norm.

    The spectral norm of a symmetric tensor is its largest absolute
    eigenvalue, so one ``eigvalsh`` gives both sides.
    """
    eig = np.linalg.eigvalsh(C.matrix)
    scale = max(-eig[0], eig[-1])
    if scale == 0.0:
        return False
    return bool(eig[0] > PD_RTOL * scale)
