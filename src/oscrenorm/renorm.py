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
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import (
    DivergentIntegral,
    MonotonicityViolated,
    NonPositiveDeterminant,
    NonPositiveScale,
    NotPositiveDefinite,
)
from .functions import (
    FieldFunction,
    QuadratureRule,
    compose,
    gauss_convolve_exp,
    log_fn,
    monomials,
)
from .oscgroup import UrElement, ur
from .tensors import (
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


@dataclass(frozen=True)
class DilationFamily:
    """One-parameter family T_c = exp(ln(c) A) in GL(V)."""

    generator: np.ndarray

    def __post_init__(self):
        a = _as_square(self.generator, "dilation generator").copy()
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
        return GlElement(expm(math.log(c) * self.generator))


@dataclass(frozen=True)
class PropagatorFamily:
    """Scale-indexed covariances generated from a base tensor by dilation.

    P at scale L is defined as T_{L/L0} P_base T_{L/L0}^T, so dilation
    equivariance holds by construction.
    """

    base: Sym2Tensor
    dilation: DilationFamily
    fiducial_scale: float = 1.0

    def __post_init__(self):
        if not is_positive_definite(self.base):
            raise NotPositiveDefinite("base propagator must be positive definite")
        if self.base.dim != self.dilation.dim:
            raise ValueError("base tensor and dilation generator dimensions differ")
        if not self.fiducial_scale > 0.0:
            raise NonPositiveScale(
                f"fiducial scale must be positive, got {self.fiducial_scale}"
            )

    @property
    def dim(self) -> int:
        return self.base.dim

    @classmethod
    def with_default_dilation(
        cls, base: Sym2Tensor, fiducial_scale: float = 1.0
    ) -> "PropagatorFamily":
        return cls(base, DilationFamily.default(base.dim), fiducial_scale)


def step_lift(fam: PropagatorFamily, c: float) -> UrElement:
    """The lift (T_c, P_L0 - P_cL0) of one step at factor c >= 1.

    Raises MonotonicityViolated when the step tensor is not positive
    semi-definite, i.e. the family does not coarse-grain monotonically.
    """
    c = float(c)
    if c < 1.0:
        raise ValueError(f"step factor must be >= 1, got {c}")
    lift = ur(fam.base, fam.dilation.transform(c))
    gap = min_eigenvalue(lift.p)
    if gap < -PSD_SLACK:
        raise MonotonicityViolated(
            f"P_L0 - P_cL0 has eigenvalue {gap:.3e} < 0: the propagator "
            f"family is not monotone at c = {c}"
        )
    return lift


def heat_kernel_base(
    spatial_dim: int, sites, fiducial_scale: float, mass: float = 0.0
) -> Sym2Tensor:
    """Propagator matrix on a finite set of lattice sites.

    Entry (i, j) is the integral over l in [L0, inf) of
    (4 pi l)^(-d/2) exp(-m^2 l - |x_i - x_j|^2 / (4 l)), evaluated by
    adaptive quadrature and symmetrized.  For d <= 2 the massless integral
    diverges at the upper limit, so a positive mass is required there.
    """
    # Local import: scipy.integrate is slow to import and only heat kernels need it.
    from scipy.integrate import quad

    d = int(spatial_dim)
    m = float(mass)
    L0 = float(fiducial_scale)
    if L0 <= 0.0:
        raise NonPositiveScale(f"fiducial scale must be positive, got {L0}")
    if m < 0.0:
        raise ValueError("mass must be non-negative")
    if m == 0.0 and d <= 2:
        raise DivergentIntegral(
            f"massless integrand ~ l^(-{d}/2) is not integrable at infinity"
        )
    pts = [as_vector(p) for p in sites]
    count = len(pts)
    if count == 0:
        raise ValueError("at least one site is required")

    def entry(r2: float) -> float:
        def integrand(l):
            return (4.0 * math.pi * l) ** (-d / 2.0) * math.exp(
                -m * m * l - r2 / (4.0 * l)
            )

        value, _ = quad(integrand, L0, np.inf, limit=200)
        return value

    out = np.zeros((count, count))
    for i in range(count):
        for j in range(i, count):
            r2 = float(np.sum((pts[i] - pts[j]) ** 2))
            out[i, j] = out[j, i] = entry(r2)
    tensor = Sym2Tensor(out)
    if not is_positive_definite(tensor):
        raise NotPositiveDefinite(
            "assembled heat-kernel propagator is not positive definite"
        )
    return tensor


def wtilde(
    P: Sym2Tensor,
    I: FieldFunction,
    rule: QuadratureRule | None = None,
    order: int | None = None,
) -> FieldFunction:
    """Interaction part of the generating function, log(N(P) * exp o I).

    A zero covariance acts as the delta for convolution, so wtilde(0, I)
    returns I unchanged.
    """
    if P.is_zero():
        return I
    return log_fn(gauss_convolve_exp(P, I, rule=rule, order=order))


def w_full(
    P: Sym2Tensor,
    I: FieldFunction,
    J,
    rule: QuadratureRule | None = None,
    order: int | None = None,
) -> float:
    """Cumulant generating function J P J / 2 + wtilde(P, I)(P J)."""
    Jv = as_vector(J, P.dim)
    return 0.5 * quad_form(Jv, P) + wtilde(P, I, rule=rule, order=order)(
        contract(P, Jv)
    )


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

    At c = 1 the step tensor vanishes and the input is returned unchanged.
    """
    lift = step_lift(fam, c)
    scale = max(1.0, _inf_norm(fam.base.matrix))
    if lift.p.is_zero(atol=PSD_SLACK * scale):
        return I
    return cgrl_compose(lift.m, lift.p, I, order=order)


def project_polynomial(
    f: FieldFunction, points, degree: int, values=None
) -> tuple[FieldFunction, float]:
    """Least-squares polynomial fit of f on the given points.

    Returns the fitted polynomial (total degree <= ``degree``, capped at 8)
    and the root-mean-square residual of the fit.  ``values``, if given, are
    f's values at ``points``, so that f is not evaluated again.  Intended
    for reporting flow tables, not for feeding back into the flow itself.
    """
    degree = min(int(degree), 8)
    pts = as_block(points, f.dim)
    exponents = [
        e
        for e in itertools.product(range(degree + 1), repeat=f.dim)
        if sum(e) <= degree
    ]
    exponents.sort(key=lambda e: (sum(e), e))
    design = monomials(pts, np.array(exponents))
    values = f.values(pts) if values is None else np.asarray(values, dtype=float)
    coeffs, *_ = np.linalg.lstsq(design, values, rcond=None)
    residual = float(np.sqrt(np.mean((design @ coeffs - values) ** 2)))
    fitted = FieldFunction.polynomial(
        [(e, c) for e, c in zip(exponents, coeffs)], f.dim
    )
    return fitted, residual
