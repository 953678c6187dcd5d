"""Oscillator-group renormalization numerics over finite-dimensional field
spaces: symmetric-tensor algebra, the oscillator group and its sections,
the Gaussian convolution semigroup, generating functions as convolutions,
and the one-parameter renormalization flow."""

from .errors import (
    ConfigError,
    DimensionMismatch,
    DivergentIntegral,
    MonotonicityViolated,
    NonPositiveConvolution,
    NonPositiveDeterminant,
    NonPositiveScale,
    NonPositiveValue,
    NotIntegrable,
    NotPositiveDefinite,
    OscRenormError,
    QuadratureOverflow,
    SingularTensor,
    UnsupportedOrder,
)
from .functions import (
    FieldFunction,
    QuadratureRule,
    act_fun,
    compose,
    convolve_numeric,
    gauss_convolve_exp,
    log_fn,
    sigma_act,
)
from .gaussian import (
    GaussianMeasure,
    act_fun_gaussian,
    check_gauss_char,
    gaussian_convolve,
)
from .oscgroup import (
    OscElement,
    Section,
    UrElement,
    act_sec,
    an_apply,
    an_section,
    osc_inv,
    osc_mul,
    sd_mul,
    section_sum,
    to_matrix,
    ur,
)
from .renorm import (
    DilationFamily,
    PropagatorFamily,
    RenormStep,
    cgrl_compose,
    heat_kernel_base,
    propagator_at,
    renorm_step,
    rescale,
    w_full,
    wtilde,
)
from .tensors import (
    GlElement,
    Sym2Tensor,
    act_sym,
    as_vector,
    cholesky,
    contract,
    invert_form,
    is_positive_definite,
    min_eigenvalue,
    quad_form,
)

__version__ = "0.1.0"
