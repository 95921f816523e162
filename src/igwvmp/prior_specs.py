"""Planning variance priors as Inverse G-Wishart fragment configurations.

Seven prior families are supported. Three are single-level (the prior factor
sits directly on the variance node): inverse chi-squared, inverse gamma and
inverse Wishart. Four are two-level (the prior factor sits on an auxiliary
node A and a conditional factor p(Sigma | A) = IGW(graph, xi, A^{-1}) links
the two): half-t, half-Cauchy, Huang-Wand and matrix-F.

``plan_prior`` maps a specification to the corresponding configuration.
Specifications that induce exactly the same prior plan identically; the
tests check this against ``equivalent_specs`` in ``tests/oracles.py``.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import CommonIGW, Graph
from .errors import InvalidHyperparameter

__all__ = [
    "InverseChiSquaredSpec",
    "InverseGammaSpec",
    "InverseWishartSpec",
    "HalfTSpec",
    "HalfCauchySpec",
    "HuangWandSpec",
    "MatrixFSpec",
    "ConditionalConfig",
    "PriorPlan",
    "plan_prior",
    "check_scales",
]


def check_scales(values, what: str) -> None:
    """Raise ``InvalidHyperparameter`` unless every value is positive with a
    square and a reciprocal square that are finite and nonzero floats, as the
    priors use them (about 1e-154 to 1e154); beyond that a prior's parameters
    overflow or vanish."""
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        squares = values * values
        inverse = 1.0 / squares
    if not np.all((values > 0) & np.isfinite(squares) & np.isfinite(inverse)):
        raise InvalidHyperparameter(
            f"{what} must be positive, with finite and nonzero squares and "
            f"reciprocal squares; got {values.tolist()}"
        )


def _auxiliary_scales(df: float, scales) -> np.ndarray:
    """1/(df s^2) for each scale s: the scales of a two-level prior's
    auxiliary factor. Raises ``InvalidHyperparameter`` unless each is
    positive and finite; df and s can each be valid while df s^2
    overflows or underflows."""
    scales = np.asarray(scales, dtype=float)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        aux = 1.0 / (df * scales * scales)
    if not np.all((aux > 0) & np.isfinite(aux)):
        raise InvalidHyperparameter(
            f"the auxiliary scales 1/(df s^2) must be positive and finite; "
            f"got {aux.tolist()} from df {df} and scales {scales.tolist()}"
        )
    return aux


@dataclass(frozen=True)
class InverseChiSquaredSpec:
    """sigma^2 ~ Inverse-chi^2(delta, lam)."""

    delta: float
    lam: float

    def __post_init__(self):
        if self.delta <= 0 or self.lam <= 0:
            raise InvalidHyperparameter("inverse chi-squared needs delta, lam > 0")


@dataclass(frozen=True)
class InverseGammaSpec:
    """sigma^2 ~ Inverse-Gamma(shape, rate)."""

    shape: float
    rate: float

    def __post_init__(self):
        if self.shape <= 0 or self.rate <= 0:
            raise InvalidHyperparameter("inverse gamma needs shape, rate > 0")


@dataclass(frozen=True)
class InverseWishartSpec:
    """Sigma ~ Inverse-Wishart with conventional shape kappa and scale Lambda,
    so that E(Sigma^{-1}) = kappa Lambda^{-1}."""

    kappa: float
    Lambda: np.ndarray

    def __post_init__(self):
        Lam = np.atleast_2d(np.asarray(self.Lambda, dtype=float))
        object.__setattr__(self, "Lambda", Lam)
        if self.kappa <= Lam.shape[0] - 1:
            raise InvalidHyperparameter(
                f"inverse Wishart needs kappa > d - 1 = {Lam.shape[0] - 1}"
            )


@dataclass(frozen=True)
class HalfTSpec:
    """sigma ~ Half-t(scale, df), i.e. density proportional to
    (1 + (sigma/scale)^2/df)^{-(df+1)/2} on sigma > 0."""

    scale: float
    df: float

    def __post_init__(self):
        check_scales(self.scale, "the half-t scale")
        if not self.df > 0:
            raise InvalidHyperparameter("half-t needs df > 0")


@dataclass(frozen=True)
class HalfCauchySpec:
    """sigma ~ Half-Cauchy(scale); the df = 1 half-t."""

    scale: float

    def __post_init__(self):
        check_scales(self.scale, "the half-Cauchy scale")


@dataclass(frozen=True)
class HuangWandSpec:
    """Sigma ~ Huang-Wand(scales; nu): marginally each sqrt(Sigma_jj) is
    Half-t(scales_j, nu) and at nu = 2 every correlation is uniform on
    (-1, 1). nu defaults to the uniform-correlation value.
    """

    scales: tuple
    nu: float = 2.0

    def __post_init__(self):
        s = tuple(float(v) for v in np.atleast_1d(np.asarray(self.scales, dtype=float)))
        object.__setattr__(self, "scales", s)
        if not s:
            raise InvalidHyperparameter("Huang-Wand needs at least one scale")
        check_scales(s, "Huang-Wand scales")
        if self.nu <= 0:
            raise InvalidHyperparameter("Huang-Wand needs nu > 0")


@dataclass(frozen=True)
class MatrixFSpec:
    """Sigma ~ Matrix-F(nu, delta, B): Sigma | A ~ IGW(full, delta + 2d - 2,
    A^{-1}) with A^{-1} ~ Wishart(nu, B) conventional."""

    nu: float
    delta: float
    B: np.ndarray

    def __post_init__(self):
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        object.__setattr__(self, "B", B)
        d = B.shape[0]
        if self.nu <= d - 1:
            raise InvalidHyperparameter(f"matrix-F needs nu > d - 1 = {d - 1}")
        if self.delta <= 0:
            raise InvalidHyperparameter("matrix-F needs delta > 0")


@dataclass(frozen=True)
class ConditionalConfig:
    """Configuration of the conditional factor p(Sigma | A) in a two-level
    plan: its shape and its graph. The auxiliary node A carries the graph of
    the plan's prior factor."""

    xi: float
    graph: Graph


@dataclass(frozen=True)
class PriorPlan:
    """How to realize a prior with the two fragment types.

    ``prior_factor`` is the Inverse G-Wishart prior whose constant message the
    prior fragment emits. With ``conditional`` unset it attaches directly to
    the variance node; otherwise it attaches to the auxiliary node and the
    conditional factor links auxiliary and variance nodes.
    """

    prior_factor: CommonIGW
    conditional: Optional[ConditionalConfig] = None

    @property
    def dim(self) -> int:
        return self.prior_factor.dim


def plan_prior(spec) -> PriorPlan:
    """Translate a prior specification into its fragment configuration."""
    if isinstance(spec, InverseChiSquaredSpec):
        return PriorPlan(
            CommonIGW(Graph.FULL, spec.delta, np.array([[spec.lam]]))
        )
    if isinstance(spec, InverseGammaSpec):
        return PriorPlan(
            CommonIGW(Graph.FULL, 2.0 * spec.shape, np.array([[2.0 * spec.rate]]))
        )
    if isinstance(spec, InverseWishartSpec):
        d = spec.Lambda.shape[0]
        return PriorPlan(CommonIGW(Graph.FULL, spec.kappa + d - 1.0, spec.Lambda))
    if isinstance(spec, HalfTSpec):
        return PriorPlan(
            CommonIGW(Graph.DIAG, 1.0, np.diag(_auxiliary_scales(spec.df, [spec.scale]))),
            ConditionalConfig(spec.df, Graph.FULL),
        )
    if isinstance(spec, HalfCauchySpec):
        return plan_prior(HalfTSpec(spec.scale, 1.0))
    if isinstance(spec, HuangWandSpec):
        d = len(spec.scales)
        return PriorPlan(
            CommonIGW(Graph.DIAG, 1.0, np.diag(_auxiliary_scales(spec.nu, spec.scales))),
            ConditionalConfig(spec.nu + 2.0 * d - 2.0, Graph.FULL),
        )
    if isinstance(spec, MatrixFSpec):
        d = spec.B.shape[0]
        return PriorPlan(
            CommonIGW(Graph.FULL, spec.nu + d - 1.0, np.linalg.inv(spec.B)),
            ConditionalConfig(spec.delta + 2.0 * d - 2.0, Graph.FULL),
        )
    raise InvalidHyperparameter(f"unknown prior specification {type(spec).__name__}")
