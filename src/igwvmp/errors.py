"""Exception types shared across the package."""


class IGWVMPError(Exception):
    """Base class for all package errors."""


class AsymmetricInput(IGWVMPError, ValueError):
    """A matrix that must be symmetric is not, beyond tolerance."""


class DimensionMismatch(IGWVMPError, ValueError):
    """Array dimensions are inconsistent with the requested operation."""


class InvalidShape(IGWVMPError, ValueError):
    """A shape parameter violates its graph-specific bound."""


class NonSPDScale(IGWVMPError, ValueError):
    """A scale matrix (explicit or implied by natural parameters) is not
    symmetric positive definite, or has a non-positive diagonal entry in the
    diagonal-graph case."""


class NonSPDPrecision(IGWVMPError, ValueError):
    """A Gaussian natural vector implies a precision matrix that is not SPD."""


class DomainError(IGWVMPError, ValueError):
    """A value lies outside its domain: a density evaluated outside its
    support, or a NaN or infinite data value."""


class DivergentIntegral(IGWVMPError, ValueError):
    """A normalizing integral does not converge for the given parameters."""


class InvalidHyperparameter(IGWVMPError, ValueError):
    """A prior hyperparameter violates its positivity/SPD requirement."""


class ImproperMessage(IGWVMPError, RuntimeError):
    """A combined natural parameter vector does not correspond to a proper
    density (eta1 >= -1 or implied scale not positive definite)."""


class GraphTagMismatch(IGWVMPError, ValueError):
    """A message carries an Inverse G-Wishart graph tag different from the
    tag of the node it is stored on."""


class MissingMessage(IGWVMPError, KeyError):
    """A message required by an update has not been initialized."""


class NotConverged(IGWVMPError, RuntimeError):
    """Iteration terminated without reaching the requested tolerance."""


class NumericalFailure(IGWVMPError, RuntimeError):
    """A sampler conditional produced a numerically unusable quantity."""
