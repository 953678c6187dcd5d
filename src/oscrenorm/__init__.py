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
    NotIntegrable,
    NotPositiveDefinite,
    OscRenormError,
    SingularTensor,
    UnsupportedOrder,
)
from .functions import (
    FieldFunction,
    QuadratureRule,
    compose,
)
from .gaussian import (
    GaussianMeasure,
    act_fun_gaussian,
)
from .oscgroup import (
    OscElement,
    UrElement,
    an_apply,
    osc_inv,
    osc_mul,
    sd_mul,
    to_matrix,
    ur,
)
from .renorm import (
    DilationFamily,
    PropagatorFamily,
    cgrl_compose,
    heat_kernel_base,
    renorm_step,
    rescale,
    step_lift,
    w_full,
    wtilde,
)
from .tensors import (
    GlElement,
    Sym2Tensor,
    act_sym,
    as_vector,
    contract,
    is_positive_definite,
    min_eigenvalue,
    quad_form,
)

__version__ = "0.1.0"
