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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, SingularTensor

#: Hard cap on field-space dimension for the dense representations.
MAX_DIM = 8

#: Relative asymmetry tolerated before a matrix is rejected as non-symmetric.
SYMMETRY_RTOL = 1e-10

#: Smallest-to-largest singular value ratio below which inversion is refused.
SINGULAR_RTOL = 1e-12

#: Relative eigenvalue floor for positive-definiteness.
PD_RTOL = 1e-12


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
        # and for n <= MAX_DIM a row sum of n differences stays finite.
        unit = m * 0.03125
        scale = _inf_norm(unit)
        asym = _inf_norm(unit - unit.T)
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
        """Wrap the entry-by-entry combination of validated symmetric
        tensors, which is exactly symmetric; only finiteness can fail."""
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
    meaningful error bounds.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square(self.matrix, "linear transform")
        svals = np.linalg.svd(m, compute_uv=False)
        if svals[-1] <= SINGULAR_RTOL * svals[0]:
            raise SingularTensor(
                f"transform is singular to working precision "
                f"(sigma_min/sigma_max = {svals[-1] / svals[0]:.3e})"
            )
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

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
        _check_same_dim(self, other)
        return GlElement(self.matrix @ other.matrix)


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


def invert_form(C: Sym2Tensor) -> Sym2Tensor:
    """Inverse tensor, defined by C C^{-1} = id."""
    svals = np.linalg.svd(C.matrix, compute_uv=False)
    if svals[-1] <= SINGULAR_RTOL * svals[0] or svals[0] == 0.0:
        raise SingularTensor("tensor is singular to working precision")
    return Sym2Tensor(np.linalg.inv(C.matrix))


def act_sym(M: GlElement, C: Sym2Tensor) -> Sym2Tensor:
    """Conjugation action of GL(V) on symmetric tensors: M C M^T."""
    _check_same_dim(M, C)
    return Sym2Tensor(M.matrix @ C.matrix @ M.matrix.T)


def min_eigenvalue(C: Sym2Tensor) -> float:
    return float(np.linalg.eigvalsh(C.matrix)[0])


def is_positive_definite(C: Sym2Tensor, rtol: float = PD_RTOL) -> bool:
    """True iff the smallest eigenvalue clears ``rtol`` times the norm.

    The spectral norm of a symmetric tensor is its largest absolute
    eigenvalue, so one ``eigvalsh`` gives both sides.
    """
    eig = np.linalg.eigvalsh(C.matrix)
    scale = max(-eig[0], eig[-1])
    if scale == 0.0:
        return False
    return bool(eig[0] > rtol * scale)


def cholesky(C: Sym2Tensor) -> np.ndarray:
    """Lower-triangular L with L L^T = C."""
    if not is_positive_definite(C):
        raise NotPositiveDefinite("Cholesky factor requires a positive-definite tensor")
    return np.linalg.cholesky(C.matrix)
