"""Propagator families, generating functions and the renormalization flow.

The interaction part of the cumulant generating function is

    wtilde(P, I)(x) = log((N(P) * exp o I)(x)),

with the zero-covariance convention wtilde(0, I) = I, so that step size
c = 1 is the exact identity.  The full generating function splits as
w(P, I)(J) = J P J / 2 + wtilde(P, I)(P J).

A one-parameter dilation family T_c = exp(ln(c) A) generates scale-indexed
propagators P_cL = T_c P_L T_c^T; a renormalization step at factor c >= 1
coarse-grains over the monotone difference P_L0 - P_cL0 and composes with
T_c:

    step(c): I -> wtilde(P_L0 - P_cL0, I) o T_c.

This is the composite of the lift M -> (M, P_L0 - M P_L0 M^T) with the
coarse-grain-and-compose action, and it satisfies the semigroup law
step(c') o step(c) = step(c c').
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .errors import (
    DivergentIntegral,
    MonotonicityViolated,
    NonPositiveDeterminant,
    NonPositiveScale,
    NotPositiveDefinite,
)
# wtilde lives next to the chunked convolution it evaluates.
from .functions import FieldFunction, Polynomial, compose, wtilde
from .oscgroup import UrElement, ur
from .tensors import (
    Frozen,
    GlElement,
    Sym2Tensor,
    _as_square,
    _inf_norm,
    act_sym,
    as_block,
    as_vector,
    contract,
    is_positive_definite,
    min_eigenvalue,
    quad_form,
)

#: Eigenvalue slack allowed when testing positive semi-definiteness of
#: coarse-graining covariances.
PSD_SLACK = 1e-10

#: Exp-sinh rule for the heat-kernel integral: the t window, the coarsest
#: step, the relative agreement between two levels that ends the halving,
#: and the number of halvings after which it raises.  At the finest level,
#: step 0.5 / 2**13, the rule has about 150,000 nodes.
_HK_T_MAX = 4.5
_HK_STEP = 0.5
_HK_RTOL = 1e-13
_HK_LEVELS = 13

#: Lifts a ``PropagatorFamily`` keeps, one per factor: a flow steps by its
#: ladder and, with a semigroup check, two more factors.
_MAX_LIFTS = 64


class DilationFamily(Frozen):
    """One-parameter family T_c = exp(ln(c) A) in GL(V)."""

    generator: np.ndarray

    def __init__(self, generator):
        a = _as_square(generator, "dilation generator").copy()
        a.setflags(write=False)
        object.__setattr__(self, "generator", a)

    @property
    def dim(self) -> int:
        return self.generator.shape[0]

    @classmethod
    def default(cls, dim: int) -> "DilationFamily":
        """Generator -I/2, giving T_c = c^(-1/2) id: monotone and
        contractive for c > 1 regardless of dimension."""
        return cls(-0.5 * np.eye(dim))

    def transform(self, c: float) -> GlElement:
        c = float(c)
        if c <= 0.0:
            raise NonPositiveScale(f"dilation parameter must be positive, got {c}")
        a = math.log(c) * self.generator
        if np.array_equal(a, np.diag(np.diag(a))):
            # The default generator's case: scipy's expm itself returns
            # exactly this for a diagonal input.
            return GlElement(np.diag(np.exp(np.diag(a))))
        # Local import: scipy.linalg is slow to import and only a
        # non-diagonal generator needs it.
        from scipy.linalg import expm

        return GlElement(expm(a))


class PropagatorFamily(Frozen):
    """A positive-definite base propagator P_L0 and a dilation family T_c.

    A step at factor c coarse-grains over P_L0 - T_c P_L0 T_c^T, so
    dilation equivariance holds by construction.  ``_lifts`` is
    ``step_lift``'s memo: the lift of each factor the family has served.
    """

    base: Sym2Tensor
    dilation: DilationFamily

    def __init__(self, base: Sym2Tensor, dilation: DilationFamily):
        if not is_positive_definite(base):
            raise NotPositiveDefinite("base propagator must be positive definite")
        if base.dim != dilation.dim:
            raise ValueError("base tensor and dilation generator dimensions differ")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "dilation", dilation)
        object.__setattr__(self, "_lifts", {})

    @property
    def dim(self) -> int:
        return self.base.dim

    @classmethod
    def with_default_dilation(cls, base: Sym2Tensor) -> "PropagatorFamily":
        return cls(base, DilationFamily.default(base.dim))


def step_lift(fam: PropagatorFamily, c: float) -> UrElement:
    """The lift (T_c, P_L0 - P_cL0) of one step at factor c >= 1.

    Built once per factor and family: later calls return the same
    immutable lift, so every step at c shares its covariance object and
    ``wtilde`` reuses that covariance's quadrature rule.  A family keeps
    at most ``_MAX_LIFTS`` lifts and forgets them all when it would hold
    more.  Raises ValueError for
    c < 1 and MonotonicityViolated when the step tensor is not positive
    semi-definite, i.e. the family does not coarse-grain monotonically;
    a factor that raises is never kept, so it raises on every call.
    """
    c = float(c)
    lift = fam._lifts.get(c)
    if lift is not None:
        return lift
    if c < 1.0:
        raise ValueError(f"step factor must be >= 1, got {c}")
    lift = ur(fam.base, fam.dilation.transform(c))
    gap = min_eigenvalue(lift.p)
    if gap < -PSD_SLACK:
        raise MonotonicityViolated(
            f"P_L0 - P_cL0 has eigenvalue {gap:.3e} < 0: the propagator "
            f"family is not monotone at c = {c}"
        )
    if len(fam._lifts) >= _MAX_LIFTS:
        fam._lifts.clear()
    fam._lifts[c] = lift
    return lift


def step_is_identity(fam: PropagatorFamily, lift: UrElement) -> bool:
    """Whether the step tensor of ``lift`` vanishes, to ``PSD_SLACK`` of the
    base's scale, so that the step returns its input unchanged."""
    scale = max(1.0, _inf_norm(fam.base.matrix))
    return lift.p.is_zero(atol=PSD_SLACK * scale)


def heat_kernel_base(
    spatial_dim: int, sites, fiducial_scale: float, mass: float = 0.0
) -> Sym2Tensor:
    """Propagator matrix on a finite set of lattice sites.

    Entry (i, j) is the integral over l in [L0, inf) of
    (4 pi l)^(-d/2) exp(-m^2 l - |x_i - x_j|^2 / (4 l)), evaluated by
    ``_heat_kernel_integrals`` to 1e-13 relative; a rule that does not
    converge raises DivergentIntegral.  For d <= 2 the massless integral
    diverges at the upper limit, so a mass with m^2 > 0 is required there.
    Every site must have ``spatial_dim`` coordinates.
    """
    d = operator.index(spatial_dim)
    m = float(mass)
    L0 = float(fiducial_scale)
    if d < 1:
        raise ValueError(f"spatial_dim must be at least 1, got {d}")
    if L0 <= 0.0:
        raise NonPositiveScale(f"fiducial scale must be positive, got {L0}")
    if not 0.0 <= m < math.inf:
        raise ValueError("mass must be non-negative and finite")
    if m * m == 0.0 and d <= 2:
        raise DivergentIntegral(
            f"with m^2 = 0 (mass {m!r}) the integrand ~ l^(-{d}/2) is not "
            "integrable at infinity"
        )
    if len(sites) == 0:
        raise ValueError("at least one site is required")
    pts = as_block(sites, d)
    rows, cols = np.triu_indices(len(pts))
    r2 = np.sum((pts[rows] - pts[cols]) ** 2, axis=1)
    out = np.empty((len(pts), len(pts)))
    out[rows, cols] = out[cols, rows] = _heat_kernel_integrals(d, r2, L0, m)
    tensor = Sym2Tensor(out)
    if not is_positive_definite(tensor):
        raise NotPositiveDefinite(
            "assembled heat-kernel propagator is not positive definite"
        )
    return tensor


def _heat_kernel_integrals(d: int, r2: np.ndarray, L0: float, m: float) -> np.ndarray:
    """The heat-kernel integral for each squared distance in ``r2``.

    Double-exponential (exp-sinh) trapezoid rule: l = L0 e^s with
    s = exp(pi/2 sinh t) maps [L0, inf) onto the real t line, where the
    integrand decays double-exponentially at both ends and is summed on
    [-_HK_T_MAX, _HK_T_MAX].  Each halving of the step adds only the new
    odd nodes; the rule stops once two levels agree to _HK_RTOL in every
    entry, and raises DivergentIntegral past _HK_LEVELS halvings.
    """
    # log of the integrand in t is c0 + (1 - d/2) s - eps e^s - rho e^-s
    # + log(ds/dt), with eps = m^2 L0 and rho = r^2 / (4 L0).
    c0 = (1.0 - 0.5 * d) * math.log(L0) - 0.5 * d * math.log(4.0 * math.pi)
    log_eps = 2.0 * math.log(m) + math.log(L0) if m > 0.0 else -math.inf
    rho = (r2 / (4.0 * L0))[:, None]

    def node_sum(t: np.ndarray) -> np.ndarray:
        u = 0.5 * math.pi * np.sinh(t)
        s = np.exp(u)
        # e^s overflows to inf far out at large t, where the integrand is 0.
        with np.errstate(over="ignore"):
            log_g = c0 + (1.0 - 0.5 * d) * s - np.exp(log_eps + s)
        log_g += u + np.log(0.5 * math.pi * np.cosh(t))
        return np.exp(log_g - rho * np.exp(-s)).sum(axis=1)

    h = _HK_STEP
    count = round(_HK_T_MAX / h)
    total = node_sum(h * np.arange(-count, count + 1))
    estimate = h * total
    for _ in range(_HK_LEVELS):
        h /= 2.0
        count *= 2
        total += node_sum(h * np.arange(1 - count, count, 2))
        previous, estimate = estimate, h * total
        if np.all(np.abs(estimate - previous) <= _HK_RTOL * np.abs(estimate)):
            return estimate
    raise DivergentIntegral(
        f"heat-kernel integral did not converge to {_HK_RTOL:g} at step {h:g} "
        f"(spatial_dim = {d}, mass = {m!r}, L0 = {L0!r})"
    )


def w_full(P: Sym2Tensor, I: FieldFunction, J, order: int | None = None) -> float:
    """Cumulant generating function J P J / 2 + wtilde(P, I)(P J)."""
    Jv = as_vector(J, P.dim)
    return 0.5 * quad_form(Jv, P) + wtilde(P, I, order=order)(contract(P, Jv))


def rescale(
    M: GlElement, P: Sym2Tensor, I: FieldFunction
) -> tuple[Sym2Tensor, FieldFunction]:
    """Pull a theory back along M: (M^{-1} P M^{-T}, I o M).

    Satisfies wtilde(P, I) o M = wtilde over the returned pair pointwise.
    """
    if M.det <= 0.0:
        raise NonPositiveDeterminant(f"det(M) = {M.det:.6g} must be positive")
    return act_sym(M.inverse, P), compose(I, M)


def cgrl_compose(
    M: GlElement,
    P: Sym2Tensor,
    I: FieldFunction,
    order: int | None = None,
) -> FieldFunction:
    """Coarse-grain-and-rescale: I -> wtilde(P, I) o M.

    This is the right action of the semidirect product,

        cgrl_compose(m1 m2, p1 + m1 p2 m1^T)
            = cgrl_compose(m2, p2) after cgrl_compose(m1, p1),

    with no det(M) prefactor: that would rescale exp of the interaction
    nonlinearly and break the law whenever det(M) != 1.
    """
    return compose(wtilde(P, I, order=order), M)


def renorm_step(
    fam: PropagatorFamily,
    c: float,
    I: FieldFunction,
    order: int | None = None,
) -> FieldFunction:
    """One renormalization step: I -> wtilde(P_L0 - P_cL0, I) o T_c, i.e.
    ``cgrl_compose`` of ``step_lift(fam, c)``.

    Every step at c on one family shares the family's immutable lift, so
    ``wtilde`` builds the quadrature rule of its covariance once per order.
    At c = 1 the step tensor vanishes and the input is returned unchanged.
    """
    lift = step_lift(fam, c)
    if step_is_identity(fam, lift):
        return I
    return cgrl_compose(lift.m, lift.p, I, order=order)


def project_polynomial(points, values, degree: int) -> tuple[list, float]:
    """Least-squares polynomial fit of ``values``, a function's values at the
    rows of ``points``.

    Returns the terms [(exponents, coeff), ...] of every monomial of total
    degree <= ``degree``, zero coefficients included, sorted by exponents,
    and the root-mean-square residual of the fit.  Intended for reporting
    flow tables, not for feeding back into the flow itself.

    With fewer sample points than monomials the fit is the minimum-norm
    solution, which interpolates: its residual is rounding noise, and an
    even interaction can get nonzero odd coefficients.
    """
    pts = np.asarray(points, dtype=float)
    exponents = [
        e
        for e in itertools.product(range(degree + 1), repeat=pts.shape[1])
        if sum(e) <= degree
    ]
    exponents.sort(key=lambda e: (sum(e), e))
    design = Polynomial(exponents, np.ones(len(exponents))).design_matrix(pts)
    values = np.asarray(values, dtype=float)
    coeffs, *_ = np.linalg.lstsq(design, values, rcond=None)
    residual = float(np.sqrt(np.mean((design @ coeffs - values) ** 2)))
    return sorted(zip(exponents, coeffs.tolist())), residual
