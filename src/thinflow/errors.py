"""Exception types raised by the toolkit."""


class ThinflowError(Exception):
    """Base class for all toolkit errors."""


class InvalidResolutionError(ThinflowError):
    """Mesh resolution parameters violate a precondition."""


class ThinDomainError(ThinflowError):
    """The half-width is too large for the requested box."""


class OutOfDomainError(ThinflowError):
    """Evaluation point outside the coefficient's domain."""


class NonEllipticCoefficientError(ThinflowError):
    """Sampled Rayleigh quotients are not positive."""


class UnsupportedFieldError(ThinflowError):
    """Field class has no computable mean value."""


class InvalidRegimeError(ThinflowError):
    """Permeability exponent outside the admissible range."""


class SpaceMismatchError(ThinflowError):
    """Function spaces do not share a mesh."""


class SingularSystemError(ThinflowError):
    """Linear system is structurally singular (e.g. missing gauge)."""


class AsymmetricOperatorError(ThinflowError):
    """An assembled operator that must be symmetric is not."""


class ConvergenceFailureError(ThinflowError):
    """Linear solver did not reach the requested residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InvalidParameterError(ThinflowError):
    """Operation parameter violates a precondition."""


class UnsupportedRegimeCoefficientError(ThinflowError):
    """Coefficient class not admissible for the requested local problem."""


class RegimeMismatchError(ThinflowError):
    """Cell solutions were produced for a different regime."""


class InvalidEffectiveMatrixError(ThinflowError):
    """Upscaled matrix fails symmetry / definiteness requirements."""


class PicardDivergenceError(ThinflowError):
    """Fixed-point iteration exceeded its iteration budget."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history or [])


class InvalidDataError(ThinflowError):
    """Data unsuitable for the requested reduction (e.g. log of zero)."""


class ConfigError(ThinflowError):
    """Malformed experiment configuration."""


class PipelineError(ThinflowError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
