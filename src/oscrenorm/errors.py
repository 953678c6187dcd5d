"""Exception hierarchy shared by all modules."""


class OscRenormError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(OscRenormError):
    """Operands live on field spaces of different dimension."""


class SingularTensor(OscRenormError):
    """Tensor is singular (or too ill-conditioned) to invert."""


class NotPositiveDefinite(OscRenormError):
    """A positive-definite tensor was required."""


class NonPositiveDeterminant(OscRenormError):
    """The function-space action is only defined for det(M) > 0."""


class NotIntegrable(OscRenormError):
    """Function lacks the decay needed for the requested integral."""


class QuadratureOverflow(OscRenormError):
    """Integrand exceeded the representable range at a quadrature node."""


class UnsupportedOrder(OscRenormError):
    """Gauss-Hermite weights at this order are not all finite and positive."""


class NonPositiveValue(OscRenormError):
    """Logarithm requested of a non-positive function value."""


class NonPositiveConvolution(OscRenormError):
    """Defensive guard: a convolution of positive functions came out <= 0."""


class DivergentIntegral(OscRenormError):
    """The regularized propagator integral does not converge."""


class NonPositiveScale(OscRenormError):
    """Length scales must be strictly positive."""


class MonotonicityViolated(OscRenormError):
    """Coarse-graining covariance P_L - P_cL failed to be positive
    semi-definite."""


class ConfigError(OscRenormError):
    """Run configuration failed validation."""
