"""Exception types shared across the package.

A ``NumericalFailure`` is a failure of a computed quantity: it can happen on
valid input, rejects an extrapolated state in ``FactorGraph.run`` and ends a
command with exit code 3. Every other ``IGWVMPError`` rejects input or usage
(exit code 2).
"""


class IGWVMPError(Exception):
    """Base class for all package errors."""


class NumericalFailure(IGWVMPError, RuntimeError):
    """A computed quantity is numerically unusable: an improper message, a
    non-SPD precision or scale, a divergent integral, a sampler conditional
    that cannot be drawn from, or an iteration that did not converge."""


class DimensionMismatch(IGWVMPError, ValueError):
    """Array dimensions are inconsistent with the requested operation."""


class InvalidShape(NumericalFailure, ValueError):
    """A shape parameter violates its graph-specific bound."""


class NonSPDScale(NumericalFailure, ValueError):
    """A scale matrix (explicit or implied by natural parameters) is not
    symmetric positive definite, or has a non-positive diagonal entry in the
    diagonal-graph case."""


class NonSPDPrecision(NumericalFailure, ValueError):
    """A Gaussian natural vector implies a precision matrix that is not SPD."""


class DomainError(IGWVMPError, ValueError):
    """A value lies outside its domain: a density evaluated outside its
    support, or a NaN or infinite data value."""


class DivergentIntegral(NumericalFailure, ValueError):
    """A normalizing integral, or the integral of a requested moment, does
    not converge for the given parameters."""


class InvalidHyperparameter(IGWVMPError, ValueError):
    """A prior hyperparameter violates its positivity/SPD requirement."""


class ImproperMessage(NumericalFailure):
    """A natural parameter vector does not correspond to a proper density
    (eta1 >= -1, an implied scale not positive definite, a non-finite entry,
    or Moon Rock naturals outside alpha >= 0, beta > 0)."""


class GraphTagMismatch(IGWVMPError, ValueError):
    """A message carries an Inverse G-Wishart graph tag different from the
    tag of the node it is stored on."""


class MissingMessage(IGWVMPError, KeyError):
    """A message required by an update has not been initialized."""


class NotConverged(NumericalFailure):
    """Iteration terminated without reaching the requested tolerance."""
