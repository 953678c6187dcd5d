"""Dense linear algebra on small field spaces.

Vectors and dual vectors are plain 1-D numpy arrays.  Symmetric 2-tensors
(covariances, propagators) and invertible transforms get thin wrappers that
enforce their invariants at construction time.  They and the package's
other value types are plain classes on the immutable base ``Frozen``: each
``__init__`` validates and sets its fields once, and instances compare and
hash by identity.  The conjugation action of an invertible transform M on a
symmetric tensor C is fixed as M C M^T throughout (row-major convention).

Validation rule: public constructors validate fully (shape, dimension cap,
finiteness, and symmetry or conditioning).  Entry-by-entry arithmetic on
validated symmetric tensors (``+``, ``-``, unary ``-``, scalar ``*``) yields
a bit-for-bit symmetric result, so it re-checks only finiteness.

Stacks.  A ``Sym2Tensor`` or ``GlElement`` may hold a stack of matrices,
shape (..., n, n), for a stack of elements: ``dim`` is n, and ``_smin`` and
``_smax`` hold one bound per matrix.  Every operation takes the leading
axes as a stack and broadcasts a single element against a stack, so a
law is written once for both.  Stacks enter only through the private
constructors (``Sym2Tensor._exact``, ``GlElement._from_svd``); the public
constructors accept one element and reject anything else.  A stacked
result checks each matrix as the single-element operation does and raises
what it raises, for the first matrix that fails.  Each matrix of a stacked
result equals the single-element result bit for bit: products are numpy
matmuls, and a vector product inserts an axis (``k[..., None, :] @ M``)
rather than calling ``np.einsum``, which rounds differently.  A single
element keeps Python floats where a stack keeps arrays.

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
Otherwise C takes its bounds from its SVD, as public construction would,
and raises exactly what public construction raises.
"""

from __future__ import annotations

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


def _finite(m: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(m).all():
        raise ValueError(f"{what} entries must be finite")
    return m


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
    return _finite(m, what)


def _inf_norm(m: np.ndarray) -> float:
    """Max absolute row sum; the same reduction as ``np.linalg.norm(m, np.inf)``."""
    return np.abs(m).sum(axis=1).max()


def _vecmat(k: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Dual vectors composed with transforms, kM, i.e. M^T k."""
    return (k[..., None, :] @ m)[..., 0, :]


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Transforms applied to vectors, Mv."""
    return (m @ v[..., None])[..., 0]


def _dot(k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pairings k(v) of dual vectors with vectors."""
    return (k[..., None, :] @ v[..., None])[..., 0, 0]


def _float_or_stack(x):
    """A scalar field value: a Python float for one element, else the
    array of one value per element of a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _first(failed: np.ndarray, *values) -> tuple:
    """The first failing element's entries of ``values``; ``failed`` and
    each value hold one entry per element, or are scalars."""
    i = np.argmax(failed)
    return tuple(np.ravel(value)[i] for value in values)


def _symmetric(m: np.ndarray) -> np.ndarray:
    """The symmetric part of each finite square matrix of a stack, after
    rejecting asymmetry beyond ``SYMMETRY_RTOL`` relative to its norm."""
    # Both norms are taken of m / 32: dividing by a power of two is exact,
    # and for n <= MAX_DIM a row sum of n differences stays finite. They
    # are the _inf_norm of each half of one stacked block: the row sums
    # reduce the same contiguous rows, so they match it bit for bit.
    unit = m * 0.03125
    block = np.concatenate((unit, unit - np.swapaxes(unit, -1, -2)), axis=-2)
    norms = np.abs(block).sum(axis=-1).reshape(*m.shape[:-2], 2, -1).max(axis=-1)
    scale, asym = norms[..., 0], norms[..., 1]
    failed = asym > SYMMETRY_RTOL * scale
    if failed.any():
        asym, scale = _first(failed, asym, scale)
        raise DimensionMismatch(
            f"relative matrix asymmetry {asym / scale:.3e} exceeds "
            f"{SYMMETRY_RTOL:.0e}"
        )
    # Halving before adding keeps entries near the float maximum finite.
    return 0.5 * m + 0.5 * np.swapaxes(m, -1, -2)


def _svd_bounds(svals: np.ndarray) -> tuple:
    """Bounds on the smallest and largest singular values of each matrix,
    from its singular values in descending order, as ``np.linalg.svd``
    returns them; a matrix singular to working precision raises."""
    smin, smax = svals[..., -1], svals[..., 0]
    singular = smin <= SINGULAR_RTOL * smax
    if singular.any():
        smin, smax = _first(singular, smin, smax)
        raise SingularTensor(
            f"transform is singular to working precision "
            f"(sigma_min/sigma_max = {smin / smax:.3e})"
        )
    return smin - _SVD_RTOL * smax, smax + _SVD_RTOL * smax


class Frozen:
    """Base of the immutable value types.  ``__init__`` or a private
    constructor sets each field once with ``object.__setattr__``; after that
    a field can be neither assigned nor deleted.  No ``__slots__`` in the
    subclasses: ``cached_property`` stores into the instance ``__dict__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Sym2Tensor(Frozen):
    """Symmetric 2-tensor on R^n, stored as an n x n matrix.

    Inputs are symmetrized as C/2 + C^T/2; asymmetry beyond
    ``SYMMETRY_RTOL`` relative to the matrix norm is rejected outright, since
    everything downstream silently assumes exact symmetry.
    """

    matrix: np.ndarray

    def __init__(self, matrix):
        sym = _symmetric(_as_square(matrix, "symmetric 2-tensor"))
        sym.setflags(write=False)
        object.__setattr__(self, "matrix", sym)

    @classmethod
    def _exact(cls, matrix: np.ndarray) -> "Sym2Tensor":
        """Wrap an exactly symmetric matrix, or a stack of them, that the
        caller owns, such as the entry-by-entry combination of validated
        symmetric tensors; only finiteness can fail."""
        _finite(matrix, "symmetric 2-tensor")
        matrix.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "matrix", matrix)
        return out

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

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

    @cached_property
    def _eigenvalues(self) -> np.ndarray:
        """The eigenvalues of each matrix in ascending order, read-only:
        one ``eigvalsh`` per tensor serves every test of its spectrum."""
        eig = np.linalg.eigvalsh(self.matrix)
        eig.setflags(write=False)
        return eig

    @cached_property
    def _rules(self) -> dict:
        """``functions.wtilde``'s memo: the node columns and log weights of
        this covariance's quadrature rule, keyed by its order.  It lives
        exactly as long as the tensor."""
        return {}


class GlElement(Frozen):
    """Invertible linear transform of R^n.

    Rejected when the smallest singular value falls below
    ``SINGULAR_RTOL`` times the largest, so that downstream inverses carry
    meaningful error bounds. ``_smin`` and ``_smax`` bound the smallest and
    largest singular values of ``matrix``.
    """

    matrix: np.ndarray

    def __init__(self, matrix):
        m = _as_square(matrix, "linear transform")
        self._set(m.copy(), *_svd_bounds(np.linalg.svd(m, compute_uv=False)))

    @classmethod
    def _from_svd(cls, matrix: np.ndarray, svals: np.ndarray) -> "GlElement":
        """Wrap a finite square matrix, or a stack of them, that the caller
        owns, given the singular values of each in descending order, as
        ``np.linalg.svd`` returns them."""
        out = object.__new__(cls)
        out._set(matrix, *_svd_bounds(svals))
        return out

    def _set(self, m: np.ndarray, smin, smax) -> None:
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_smin", _float_or_stack(smin))
        object.__setattr__(self, "_smax", _float_or_stack(smax))

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @classmethod
    @cache
    def identity(cls, dim: int) -> "GlElement":
        """The identity of GL(R^dim); one shared read-only instance per dim."""
        return cls(np.eye(dim))

    @classmethod
    def _identities(cls, dim: int, stack: tuple) -> "GlElement":
        """A stack of identities of GL(R^dim), of stack shape ``stack``."""
        eye = np.broadcast_to(np.eye(dim), (*stack, dim, dim)).copy()
        return cls._from_svd(eye, np.ones((*stack, dim)))

    @cached_property
    def inverse(self) -> "GlElement":
        """The inverse, certified by its SVD as public construction would."""
        m = _finite(np.linalg.inv(self.matrix), "linear transform")
        return GlElement._from_svd(m, np.linalg.svd(m, compute_uv=False))

    @cached_property
    def det(self):
        return _float_or_stack(np.linalg.det(self.matrix))

    def __matmul__(self, other: "GlElement") -> "GlElement":
        """The product, certified from its factors' singular-value bounds
        where they allow (see the module docstring), else by the SVD."""
        _check_same_dim(self, other)
        m = _finite(self.matrix @ other.matrix, "linear transform")
        n = self.dim
        top = self._smax * other._smax
        slack = (n * n * _EPS / (1.0 - n * _EPS) + 4.0 * _EPS) * top
        lo, hi = self._smin * other._smin - slack, top + slack
        certified = lo > _PRODUCT_RTOL * hi
        if not np.all(certified):
            svd_lo, svd_hi = _svd_bounds(np.linalg.svd(m, compute_uv=False))
            lo = np.where(certified, lo, svd_lo)
            hi = np.where(certified, hi, svd_hi)
        out = object.__new__(GlElement)
        out._set(m, lo, hi)
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
    """Conjugation action of GL(V) on symmetric tensors: M C M^T, checked
    and symmetrized as public construction would."""
    _check_same_dim(M, C)
    m = M.matrix @ C.matrix @ np.swapaxes(M.matrix, -1, -2)
    return Sym2Tensor._exact(_symmetric(_finite(m, "symmetric 2-tensor")))


def min_eigenvalue(C: Sym2Tensor):
    """The smallest eigenvalue, one per element of a stack."""
    return _float_or_stack(C._eigenvalues[..., 0])


def is_positive_definite(C: Sym2Tensor):
    """True iff the smallest eigenvalue clears ``PD_RTOL`` times the norm;
    one bool per element of a stack.

    The spectral norm of a symmetric tensor is its largest absolute
    eigenvalue, so one ``eigvalsh`` gives both sides; a zero tensor fails.
    """
    eig = C._eigenvalues
    pd = eig[..., 0] > PD_RTOL * np.maximum(-eig[..., 0], eig[..., -1])
    return bool(pd) if pd.ndim == 0 else pd
