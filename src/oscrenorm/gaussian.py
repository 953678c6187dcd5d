"""Normalized centered Gaussian measures and their convolution semigroup.

The density of N[C] is (2 pi)^(-n/2) det(C)^(-1/2) exp(-x C^{-1} x / 2).
Convolution adds covariances, N(A) * N(B) = N(A + B), and GL(V) acts
through det(M) N(C) o M = N(M^{-1} C M^{-T}).  Evaluation is done in the
log domain (log-normalizer plus quadratic form).  ``GaussianMeasure`` is
the one place a covariance is checked and factored.  Expectations under
N(C) are taken with a tensor-product Gauss-Hermite ``QuadratureRule``
built on its measure's Cholesky factor; this module builds measures and
rules, and ``functions`` takes every sum over a rule's nodes.  The 1-D
rules of the default orders are constants, the bits of the port of numpy's
``hermgauss`` that builds every other order.

Stacks.  A measure on a stacked ``Sym2Tensor`` (see ``tensors``) is a stack
of measures, with one Cholesky factor and log-normalizer per element.
``log_eval``, ``act_fun_gaussian`` and ``shifted_log_eval`` take one point,
transform or source per element, raise for the first element that fails
what a single element raises, and give each element of a stacked result
the single-element result bit for bit.  Stacked covariances are built only
by the private constructors of ``tensors``, so stacks enter only through
them; ``log_density`` and ``QuadratureRule`` take a single measure.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    DimensionMismatch,
    NonPositiveDeterminant,
    NotPositiveDefinite,
    UnsupportedOrder,
)
from .tensors import (
    Frozen,
    GlElement,
    Sym2Tensor,
    _dot,
    _finite,
    _first,
    _float_or_stack,
    _matvec,
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


class GaussianMeasure(Frozen):
    """Mean-zero Gaussian N[C] with positive-definite covariance, or a stack
    of them from a stacked covariance.

    Construction checks C once, raising NotPositiveDefinite for the first
    element that fails, and computes its Cholesky factor and the
    log-normalizer, one per element of a stack; evaluation is pure and
    thread-safe.
    """

    covariance: Sym2Tensor

    def __init__(self, covariance: Sym2Tensor):
        if not np.all(is_positive_definite(covariance)):
            raise NotPositiveDefinite("Gaussian covariance must be positive definite")
        chol = np.linalg.cholesky(covariance.matrix)
        log_det = 2.0 * np.sum(np.log(np.diagonal(chol, 0, -2, -1)), axis=-1)
        log_norm = -0.5 * (covariance.dim * math.log(2.0 * math.pi) + log_det)
        object.__setattr__(self, "covariance", covariance)
        object.__setattr__(self, "_chol", chol)
        object.__setattr__(self, "_log_norm", _float_or_stack(log_norm))

    @property
    def dim(self) -> int:
        return self.covariance.dim

    def _log_at(self, X: np.ndarray) -> np.ndarray:
        """log N[C] at the points X, shape (..., n): a block of points for a
        single measure, one point per element for a stack."""
        # x C^{-1} x = |L^{-1} x|^2, with L^{-1} x by forward substitution:
        # each point is solved on its own, whatever block it came in.
        L = self._chol
        z = np.empty_like(X)
        for j in range(self.dim):
            z[..., j] = (
                X[..., j] - np.sum(z[..., :j] * L[..., j, :j], axis=-1)
            ) / L[..., j, j]
        return self._log_norm - 0.5 * np.sum(z * z, axis=-1)

    def log_density(self, points) -> np.ndarray:
        """log N[C] of a single measure at each row of an (m, n) block of
        points."""
        return self._log_at(as_block(points, self.dim))

    def log_eval(self, x):
        """log N[C] at x; a stack takes one point per element, shape
        (..., n), and returns one value per element."""
        X = _points(x, self._chol.shape[:-2], self.dim)
        return _float_or_stack(self._log_at(X))


def _points(x, stack: tuple, dim: int) -> np.ndarray:
    """One finite vector of length ``dim``, or one per element of a stack of
    shape ``stack``; a bad entry fails as ``as_vector`` fails."""
    if not stack:
        return as_vector(x, dim)
    v = _finite(np.asarray(x, dtype=float), "vector")
    if v.shape != (*stack, dim):
        raise DimensionMismatch(
            f"expected points of shape {(*stack, dim)}, got {v.shape}"
        )
    return v


def _normed_hermite(x: np.ndarray, n: int) -> np.ndarray:
    """The orthonormal Hermite function of degree n at x, by the three-term
    recurrence of ``numpy.polynomial.hermite``, whose values it matches bit
    for bit; the unnormalized polynomials overflow from n = 207."""
    c0, c1 = 0.0, 1.0 / math.sqrt(math.sqrt(math.pi))
    if n == 0:
        return np.full(x.shape, c1)
    nd = float(n)
    for _ in range(n - 1):
        c0, c1 = -c1 * math.sqrt((nd - 1.0) / nd), c0 + c1 * x * math.sqrt(2.0 / nd)
        nd -= 1.0
    return c0 + c1 * x * math.sqrt(2.0)


def _hermite_rule(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only 1-D Gauss-Hermite nodes and weights of order q, the weights
    normalized to sum to 1, computed afresh; an order whose weights are not
    all finite and positive (from q = 371) raises.

    The steps are those of numpy's ``hermgauss``, whose bits they return,
    so numpy.polynomial is never imported.  The nodes are the eigenvalues
    of the symmetric Jacobi matrix (Golub-Welsch), improved by one Newton
    step; the weights are 1 / h_{q-1}(t)^2 of the orthonormal Hermite
    function, scaled against overflow; both are symmetrized about 0."""
    if q < 1:
        raise ValueError(f"Gauss-Hermite order must be a positive integer, got {q}")
    # eigvalsh reads the lower triangle: the subdiagonal sqrt(i / 2).
    t = np.linalg.eigvalsh(np.diag(np.sqrt(0.5 * np.arange(1, q)), -1))
    t -= _normed_hermite(t, q) / (_normed_hermite(t, q - 1) * math.sqrt(2 * q))
    fm = _normed_hermite(t, q - 1)
    fm /= np.abs(fm).max()
    w = 1 / (fm * fm)
    w = (w + w[::-1]) / 2
    t = (t - t[::-1]) / 2
    # hermgauss's weights, which sum to sqrt(pi), underflow to 0 at q = 371
    # and are NaN beyond.
    w *= math.sqrt(math.pi) / w.sum()
    if not np.all(np.isfinite(w) & (w > 0.0)):
        raise UnsupportedOrder(
            f"Gauss-Hermite weights at order {q} are not all finite and positive"
        )
    w = w / math.sqrt(math.pi)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


#: The positive halves of the 1-D rules of the default orders, as
#: ``_hermite_rule`` computes them: nodes ascending, then their weights,
#: written so that each literal reads back to the same float.
_HERMITE_HALVES = {
    40: (
        (
            0.17453721459758237, 0.5238747138322772, 0.874006612357088,
            1.225480109046289, 1.5788698949316138, 1.9347914722822959,
            2.2939171418750837, 2.6569959984428957, 3.0248798839012845,
            3.398558265859628, 3.7792067534352234, 4.1682570668325,
            4.567502072844395, 4.9792609785452555, 5.406654247970128,
            5.8540950560304, 6.328255351220082, 6.840237305249356,
            7.411582531485469, 8.09876113925085,
        ),
        (
            0.19105900966199035, 0.14992111176357079, 0.09217657917006082,
            0.04427455520227683, 0.01653784414256942, 0.004773544881823361,
            0.0010558790169018142, 0.00017707292879924028,
            2.2211771432475823e-05, 2.048897436081468e-06,
            1.3603424215748798e-07, 6.325897188548879e-09,
            1.9891185260277685e-10, 4.0376385816952105e-12,
            4.96808852919777e-14, 3.3898534432483255e-16,
            1.1222752068271129e-18, 1.44860943155158e-21,
            4.820467940200768e-25, 1.46183987386939e-29,
        ),
    ),
    20: (
        (
            0.24534070830090124, 0.7374737285453944, 1.234076215395323,
            1.7385377121165861, 2.2549740020892757, 2.7888060584281305,
            3.3478545673832163, 3.944764040115625, 4.603682449550744,
            5.387480890011233,
        ),
        (
            0.2607930634495549, 0.16173933398399998, 0.0615063720639769,
            0.013997837447101022, 0.00183010313108049, 0.00012882627996192928,
            4.402121090230851e-06, 6.127490259982928e-08,
            2.4820623623151755e-10, 1.2578006724379234e-13,
        ),
    ),
    12: (
        (
            0.31424037625435913, 0.9477883912401638, 1.5976826351526048,
            2.2795070805010598, 3.0206370251208896, 3.889724897869782,
        ),
        (
            0.32166436151283, 0.14696704804532998, 0.02911668791236418,
            0.002203380687533198, 4.8371849225906334e-05,
            1.4999271676371695e-07,
        ),
    ),
    8: (
        (
            0.3811869902073221, 1.1571937124467802, 1.981656756695843,
            2.930637420257244,
        ),
        (
            0.3730122576790775, 0.117239907661759, 0.009635220120788263,
            0.0001126145383753679,
        ),
    ),
}


@functools.cache
def _hermite(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The rule of ``_hermite_rule``, the same read-only arrays on every
    call.  The default orders are constants, ``_HERMITE_HALVES`` mirrored
    about 0, so a default run solves no eigenproblem; the port builds every
    other order once.  An unsupported order raises, so it is never cached,
    and at most orders 1-370 are kept."""
    if q not in _HERMITE_HALVES:
        return _hermite_rule(q)
    # The port's symmetrization makes the nodes odd and the weights even
    # bit for bit, and every default order is even: no node is 0.
    t, w = (np.array(half) for half in _HERMITE_HALVES[q])
    t = np.concatenate((-t[::-1], t))
    w = np.concatenate((w[::-1], w))
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


class QuadratureRule(Frozen):
    """Tensor-product Gauss-Hermite rule for a Gaussian weight N(0, C).

    ``measure`` is N(C) itself.  ``nodes`` holds the transformed points
    x_i = sqrt(2) L t_i (L the measure's Cholesky factor) in canonical
    lexicographic order; ``weights`` are normalized to sum to 1, so the rule
    computes expectations under N(0, C).
    """

    nodes: np.ndarray
    weights: np.ndarray
    measure: GaussianMeasure

    def __init__(self, nodes: np.ndarray, weights: np.ndarray, measure: GaussianMeasure):
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "measure", measure)

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


def act_fun_gaussian(M: GlElement, g: GaussianMeasure) -> GaussianMeasure:
    """det(M) N(C) o M = N(M^{-1} C M^{-T}); restricted to det(M) > 0, which
    a stack checks per element, raising for the first that fails."""
    if M.dim != g.dim:
        raise DimensionMismatch(f"dimension mismatch: {M.dim} vs {g.dim}")
    failed = np.less_equal(M.det, 0.0)
    if failed.any():
        (det,) = _first(failed, M.det)
        raise NonPositiveDeterminant(f"det(M) = {det:.6g} must be positive")
    return GaussianMeasure(act_sym(M.inverse, g.covariance))


def shifted_log_eval(g: GaussianMeasure, C: Sym2Tensor, k, x):
    """log of exp(k(x) + kCk/2) g(x + Ck): the annihilation-orbit value.

    This is the closed form of the group action of the annihilation section
    of C on g; it equals log g(x) for every k exactly when C is the
    covariance of g. A stack of measures and tensors takes one k and one x
    per element, shape (..., n), and returns one value per element.
    """
    stack = g._chol.shape[:-2]
    kv, xv = _points(k, stack, g.dim), _points(x, stack, g.dim)
    ck = _matvec(C.matrix, kv)
    return _float_or_stack(_dot(kv, xv) + 0.5 * _dot(kv, ck) + g.log_eval(xv + ck))
