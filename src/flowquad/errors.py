"""Exception hierarchy shared across the package.

Each failure mode that callers may want to dispatch on (CLI exit codes,
staged pipelines) gets its own class; everything derives from FlowQuadError.
"""


class FlowQuadError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(FlowQuadError, ValueError):
    """An argument violates a documented precondition."""


class InvalidWeightError(FlowQuadError, ValueError):
    """A quadrature weight function is negative or not finite on the probe grid."""


class EvaluationError(FlowQuadError):
    """An integrand returned a non-finite value at a quadrature node."""

    def __init__(self, message, node_index=None):
        super().__init__(message)
        self.node_index = node_index


class UnsupportedDimensionError(FlowQuadError):
    """The requested operation has no oracle path in this dimension."""


class NumericalOverflowError(FlowQuadError):
    """A network produced a non-finite intermediate value."""

    def __init__(self, message, layer=None):
        super().__init__(message)
        self.layer = layer


class IntegrationFailureError(FlowQuadError):
    """An ODE integration produced a non-finite state."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class TrainingFailureError(FlowQuadError):
    """Training diverged (non-finite loss)."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


class DomainError(FlowQuadError):
    """A density was evaluated where it is zero or negative."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class ConfigurationError(FlowQuadError):
    """An experiment spec is malformed; carries the offending field path."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
