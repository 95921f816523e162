"""Variational inference for the t-response linear mixed model.

The model has grouped responses with fixed effects beta, per-group random
effects u_i, t-distributed noise with scale sigma and degrees of freedom
nu = 2 upsilon, a Huang-Wand prior on the random-effects covariance and a
Half-Cauchy prior on sigma. Inference runs by message passing on a factor
graph with eight factors and six stochastic nodes; the per-observation
scale-mixture variables are marginalized inside the likelihood updates.
"""

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import fragments as fr
from . import matops
from .distributions import (
    CommonIGW,
    Graph,
    MoonRockParams,
    NaturalIGW,
    combined_mean_inverse,
    igw_from_natural,
    implied_scale,
    inv_chisq_sqrt_mean,
    inv_chisq_sqrt_sd,
    moonrock_log_density,
    moonrock_mean,
    moonrock_quantile,
    moonrock_variance,
)
from .errors import (
    DimensionMismatch,
    DomainError,
    ImproperMessage,
    InvalidHyperparameter,
    NonSPDPrecision,
    NotConverged,
)
from .graph_engine import ConvergenceReport, Factor, FactorGraph, Message, Node
from .prior_specs import HalfCauchySpec, HuangWandSpec, plan_prior

__all__ = [
    "TRUE_BETA",
    "TRUE_NOISE_VARIANCE",
    "TRUE_RANDOM_COV",
    "TRUE_DF",
    "TLMMData",
    "TLMMHyper",
    "TLMMTruth",
    "DesignInfo",
    "PosteriorSummary",
    "TLMMFit",
    "posterior_block",
    "design_sizes",
    "assemble_design",
    "coefficient_names",
    "simulate",
    "initial_messages",
    "build_graph",
    "df_density_grid",
    "fit",
]

TRUE_BETA = (-0.58, 1.89)
TRUE_NOISE_VARIANCE = 0.2
TRUE_RANDOM_COV = ((2.58, 0.22), (0.22, 1.73))
TRUE_DF = 1.5

# (fixed-effect columns, random effects per group) of each design
_DESIGN_SIZES = {"slope": (2, 2), "intercept": (2, 1), "micro": (1, 1)}

NODE_NAMES = ("cov_aux", "noise_aux", "cov", "noise", "coefficients", "df_half")
FACTOR_NAMES = (
    "cov_aux_prior",
    "noise_aux_prior",
    "cov_conditional",
    "noise_conditional",
    "coefficient_prior",
    "likelihood",
    "scale_mix",
    "df_prior",
)


@dataclass(frozen=True)
class TLMMData:
    """Grouped regression data: responses, a scalar predictor, and
    zero-based group labels covering 0..m-1."""

    y: np.ndarray
    x: np.ndarray
    group: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).copy()
        x = np.asarray(self.x, dtype=float).copy()
        group = np.asarray(self.group).copy()
        if y.ndim != 1 or x.shape != y.shape or group.shape != y.shape:
            raise DimensionMismatch(
                f"y, x, group must be equal-length vectors, got "
                f"{y.shape}, {x.shape}, {group.shape}"
            )
        if not np.issubdtype(group.dtype, np.integer):
            if not np.all(group == np.floor(group)):
                raise DimensionMismatch("group labels must be integers")
            group = group.astype(int)
        if y.size == 0:
            raise DimensionMismatch("data must contain at least one observation")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
            raise DomainError("y and x must be finite (no NaN or infinity)")
        m = int(group.max()) + 1
        present = np.unique(group)
        if group.min() < 0 or present.size != m:
            raise DimensionMismatch(
                "group labels must cover 0..m-1 with every label present"
            )
        for a in (y, x, group):
            a.flags.writeable = False
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "group", group)

    @property
    def n_obs(self) -> int:
        return self.y.size

    @property
    def n_groups(self) -> int:
        return int(self.group.max()) + 1


@dataclass(frozen=True)
class TLMMHyper:
    """Prior hyperparameters: the fixed-effects scale sigma_beta, the noise
    Half-Cauchy scale, the per-component Huang-Wand scales for the random
    effects, and the rate of the exponential prior on the half degrees of
    freedom."""

    fixed_scale: float = 1e5
    noise_scale: float = 1e5
    random_scales: tuple = (1e5, 1e5)
    df_rate: float = 0.01

    def __post_init__(self):
        scales = tuple(float(s) for s in self.random_scales)
        values = (self.fixed_scale, self.noise_scale, self.df_rate, *scales)
        if not all(np.isfinite(v) and v > 0 for v in values):
            raise InvalidHyperparameter("all hyperparameters must be finite and positive")
        object.__setattr__(self, "fixed_scale", float(self.fixed_scale))
        object.__setattr__(self, "noise_scale", float(self.noise_scale))
        object.__setattr__(self, "random_scales", scales)
        object.__setattr__(self, "df_rate", float(self.df_rate))

    @classmethod
    def diffuse(cls, n_random: int) -> "TLMMHyper":
        """The example's weakly informative setting, sized to q components."""
        return cls(random_scales=(1e5,) * n_random)


@dataclass(frozen=True, eq=False)
class DesignInfo:
    """Index form of the design C = [X Z_1 ... Z_m]: row l of C holds X[l]
    in the p fixed-effect columns, Z[l] in the q columns of group[l]'s
    random effects and zeros elsewhere.

    C itself is never formed. Products with it gather per row. Sums over
    its rows are ``np.bincount``s of per-row entries fixed at construction:
    C^T W C of x x^T, x z^T and z z^T, raveled, whose bins are their
    positions in ``matops.ravel_arrowhead``, and C^T W y of x and z, whose
    bins are their coefficients' positions.
    """

    X: np.ndarray
    Z: np.ndarray
    group: np.ndarray
    n_groups: int
    _quad: np.ndarray = field(init=False, repr=False)
    _values: np.ndarray = field(init=False, repr=False)
    _columns: np.ndarray = field(init=False, repr=False)
    _bins: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        X = np.array(self.X, dtype=float)
        Z = np.array(self.Z, dtype=float)
        group = np.array(self.group, dtype=np.intp)
        n, m = group.size, self.n_groups
        if X.ndim != 2 or Z.ndim != 2 or X.shape[0] != n or Z.shape[0] != n:
            raise DimensionMismatch(
                f"X {X.shape}, Z {Z.shape} and group {group.shape} must share their rows"
            )
        if n and not (0 <= group.min() and group.max() < m):
            raise DimensionMismatch(f"group labels must lie in 0..{m - 1}")
        p, q = X.shape[1], Z.shape[1]
        quad = np.concatenate(
            (
                (X[:, :, None] * X[:, None, :]).reshape(n, p * p),
                (X[:, :, None] * Z[:, None, :]).reshape(n, p * q),
                (Z[:, :, None] * Z[:, None, :]).reshape(n, q * q),
            ),
            axis=1,
        )
        # a row's entries sit in the corner (shared by all groups) and in
        # its own group's border, block and coefficients
        at = matops.unravel_arrowhead(np.arange(matops.arrowhead_len(p, q, m)), p, q, m)
        bins = np.concatenate(
            (
                np.broadcast_to(at.corner.ravel(), (n, p * p)),
                at.border[group].reshape(n, p * q),
                at.blocks[group].reshape(n, q * q),
            ),
            axis=1,
        ).astype(np.intp)
        columns = np.concatenate(
            (np.broadcast_to(np.arange(p), (n, p)), p + group[:, None] * q + np.arange(q)),
            axis=1,
        )
        fields = {
            "X": X,
            "Z": Z,
            "group": group,
            "_quad": quad,
            "_values": np.concatenate((X, Z), axis=1),
            "_columns": columns,
            "_bins": bins,
        }
        for name, value in fields.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_fixed(self) -> int:
        return self.X.shape[1]

    @property
    def n_random(self) -> int:
        return self.Z.shape[1]

    @property
    def n_coefficients(self) -> int:
        return self.n_fixed + self.n_groups * self.n_random

    def predict(self, coefficients: np.ndarray) -> np.ndarray:
        """C theta for theta = (beta, u_1, ..., u_m)."""
        return np.einsum("lj,lj->l", self._values, coefficients.take(self._columns))

    def row_variance(self, cov: matops.Arrowhead) -> np.ndarray:
        """diag(C S C^T) for a symmetric S given by its arrowhead blocks."""
        # each border entry stands for itself and its transposed copy
        flat = matops.ravel_arrowhead(cov._replace(border=2.0 * cov.border))
        return np.einsum("le,le->l", self._quad, flat.take(self._bins))

    def weighted_cross(self, w: np.ndarray, y: np.ndarray):
        """(C^T W y, ``matops.ravel_arrowhead`` of C^T W C) for W = diag(w)."""
        arrow = matops.arrowhead_len(self.n_fixed, self.n_random, self.n_groups)
        gram = np.bincount(
            self._bins.ravel(), (self._quad * w[:, None]).ravel(), minlength=arrow
        )
        cross_y = np.bincount(
            self._columns.ravel(),
            (self._values * (w * y)[:, None]).ravel(),
            minlength=self.n_coefficients,
        )
        return cross_y, gram


class TLMMTruth(NamedTuple):
    beta: np.ndarray
    u: np.ndarray
    noise_variance: float
    random_cov: np.ndarray
    df: float


def design_sizes(design: str) -> tuple:
    """(p, q) of a design: fixed-effect columns and random effects per group."""
    try:
        return _DESIGN_SIZES[design]
    except KeyError:
        raise InvalidHyperparameter(f"unknown design {design!r}") from None


def assemble_design(data: TLMMData, design: str = "slope") -> DesignInfo:
    """The index-form design C = [X Z] of ``data``.

    ``slope`` and ``intercept`` pair fixed intercept-plus-predictor columns
    with a random intercept and slope (q=2) or a random intercept alone
    (q=1). ``micro`` is the minimal intercept-only layout (p=q=1) used by
    degenerate smoke tests.
    """
    design_sizes(design)  # rejects an unknown name
    ones = np.ones(data.n_obs)
    if design == "slope":
        X = np.column_stack((ones, data.x))
        z = np.column_stack((ones, data.x))
    elif design == "intercept":
        X = np.column_stack((ones, data.x))
        z = ones[:, None]
    else:  # micro
        X = ones[:, None]
        z = ones[:, None]
    return DesignInfo(X, z, data.group, data.n_groups)


def coefficient_names(n_fixed: int, n_random: int, n_groups: int):
    """Labels matching C's columns: beta0..; then u[i,j] for group i
    (1-based) and component j."""
    names = [f"beta{j}" for j in range(n_fixed)]
    for i in range(n_groups):
        names.extend(f"u[{i + 1},{j}]" for j in range(n_random))
    return tuple(names)


def simulate(
    seed=None,
    n_groups: int = 20,
    group_size: int = 15,
    beta=TRUE_BETA,
    noise_variance: float = TRUE_NOISE_VARIANCE,
    random_cov=TRUE_RANDOM_COV,
    df: float = TRUE_DF,
    design: str = "slope",
):
    """Draw one data set from the model with the given truth.

    Predictors are Uniform(0,1), random effects are Gaussian with covariance
    ``random_cov``, and noise is sigma times a standard t with ``df`` degrees
    of freedom. Returns (data, truth).
    """
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise InvalidHyperparameter(f"the seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    beta = np.asarray(beta, dtype=float)
    Sigma = np.atleast_2d(np.asarray(random_cov, dtype=float))
    if n_groups < 1 or group_size < 1:
        raise InvalidHyperparameter("n_groups and group_size must be positive")
    if noise_variance < 0 or df <= 0:
        raise InvalidHyperparameter("noise_variance must be >= 0 and df > 0")
    if not matops.is_spd(Sigma):
        raise InvalidHyperparameter("random_cov must be SPD")
    p_design, q_design = design_sizes(design)
    if Sigma.shape[0] != q_design:
        raise DimensionMismatch(
            f"random_cov is {Sigma.shape[0]}x{Sigma.shape[0]} but the "
            f"{design} design has {q_design} random effects per group"
        )
    if beta.shape != (p_design,):
        raise DimensionMismatch(
            f"beta must have {p_design} entries for the {design} design"
        )

    n = n_groups * group_size
    x = rng.uniform(size=n)
    group = np.repeat(np.arange(n_groups), group_size)
    L = np.linalg.cholesky(Sigma)
    u = rng.standard_normal((n_groups, Sigma.shape[0])) @ L.T

    data0 = TLMMData(np.zeros(n), x, group)
    des = assemble_design(data0, design)
    coeffs = np.concatenate((beta, u.ravel()))
    y = des.predict(coeffs) + np.sqrt(noise_variance) * rng.standard_t(df, size=n)
    return (
        TLMMData(y, x, group),
        TLMMTruth(beta, u, float(noise_variance), Sigma, float(df)),
    )


# ---------------------------------------------------------------------------
# q* extraction
# ---------------------------------------------------------------------------


def extract_gaussian(
    eta: np.ndarray, n_fixed: int, n_random: int, n_groups: int, dense: bool = False
):
    """Mean and covariance of the coefficients' Gaussian from its natural
    vector: eta1 = P mu, then eta2 = ``matops.ravel_arrowhead`` of -P/2 for
    a precision P that is zero off the arrowhead.

    The covariance comes back as ``matops.Arrowhead`` blocks, or as the
    k x k matrix with ``dense``; both come from one block Cholesky factor
    of P. Raises NonSPDPrecision unless every eigenvalue of P exceeds
    t = ``matops.spd_threshold`` of its diagonal (``matops.is_spd``'s rule).
    Every eigenvalue is at least 1/trace(P^{-1}), so a covariance trace
    below 1/(2t) settles that; otherwise P - t I is factored to decide.
    """
    p, q, m = n_fixed, n_random, n_groups
    k = p + m * q
    eta = np.asarray(eta, dtype=float)
    P = matops.unravel_arrowhead(-2.0 * eta[k:], p, q, m)
    diagonal = np.concatenate((P.corner.diagonal(), P.blocks.diagonal(axis1=1, axis2=2).ravel()))
    threshold = matops.spd_threshold(diagonal)
    try:
        L = matops.arrowhead_cholesky(P)
        mean, cov = matops.arrowhead_moments(L, eta[:k], dense=dense)
        trace = cov.trace() if dense else cov.corner.trace() + cov.blocks.trace(0, 1, 2).sum()
        if not 2.0 * threshold * trace < 1.0:
            matops.arrowhead_cholesky(P, shift=threshold)
    except np.linalg.LinAlgError:
        raise NonSPDPrecision("natural vector implies a non-SPD precision") from None
    return mean, cov


def extract_igw_full(eta: np.ndarray) -> CommonIGW:
    """Common (xi, Lambda) form of a full-graph combined natural vector."""
    return igw_from_natural(NaturalIGW.from_vector(Graph.FULL, np.asarray(eta, dtype=float)))


def extract_inv_chisq(eta) -> tuple:
    """(delta, lambda) of the scalar-variance density the combined vector
    represents."""
    eta = np.asarray(eta, dtype=float)
    delta = -2.0 * eta[0] - 2.0
    lam = -2.0 * eta[1]
    if delta <= 0 or lam <= 0:
        raise ImproperMessage(
            f"combined vector implies delta={delta}, lambda={lam}; both must be positive"
        )
    return float(delta), float(lam)


def df_density_grid(df_half: MoonRockParams):
    """Evaluate the degrees-of-freedom posterior density q(nu) = q(2 upsilon)
    on 401 equally spaced points from 1e-3 to where less than 1e-10 of its
    mass lies beyond."""
    hi = 2.0 * moonrock_quantile(df_half, 1.0 - 1e-10)
    nu = np.linspace(1e-3, hi, 401)
    density = 0.5 * np.exp(moonrock_log_density(df_half, nu / 2.0))
    return nu, density


@dataclass(frozen=True)
class PosteriorSummary:
    """Converged posterior in common parameters.

    Coefficients are Gaussian, the random-effects covariance is inverse
    Wishart (stored in (xi, Lambda) form), the noise variance is scaled
    inverse chi-squared, and the half degrees of freedom follow the two
    parameter density with naturals (alpha, -beta).
    """

    names: tuple
    coefficient_mean: np.ndarray
    coefficient_cov: np.ndarray
    variance: CommonIGW
    noise_delta: float
    noise_lambda: float
    df_half: MoonRockParams
    nu_grid: np.ndarray
    nu_density: np.ndarray
    report: ConvergenceReport

    def __post_init__(self):
        if self.noise_delta <= 0 or self.noise_lambda <= 0:
            raise ImproperMessage("noise posterior parameters must be positive")
        if not matops.is_spd(np.asarray(self.coefficient_cov)):
            raise ImproperMessage("coefficient covariance must be SPD")

    @property
    def coefficient_sd(self) -> np.ndarray:
        return np.sqrt(np.diag(self.coefficient_cov))

    def variance_mean(self) -> np.ndarray:
        d = self.variance.dim
        if self.variance.xi <= 2 * d:
            raise DomainError("covariance posterior mean needs xi > 2d")
        return self.variance.Lambda / (self.variance.xi - 2 * d)

    def noise_variance_mean(self) -> float:
        if self.noise_delta <= 2:
            raise DomainError("noise variance mean needs delta > 2")
        return self.noise_lambda / (self.noise_delta - 2.0)

    def noise_sd_mean(self) -> float:
        """E(sigma) for sigma^2 scaled inverse chi-squared."""
        return inv_chisq_sqrt_mean(self.noise_delta, self.noise_lambda)

    def noise_sd_sd(self) -> float:
        return inv_chisq_sqrt_sd(self.noise_delta, self.noise_lambda)

    def df_mean(self) -> float:
        return 2.0 * moonrock_mean(self.df_half)

    def df_sd(self) -> float:
        return 2.0 * float(np.sqrt(moonrock_variance(self.df_half)))

    def to_dict(self) -> dict:
        """The posterior in the ``fit-vmp`` JSON schema."""
        return {
            "iterations": self.report.iterations,
            "final_change": self.report.final_change,
            **posterior_block(
                self.names,
                self.coefficient_mean,
                self.coefficient_cov,
                (self.noise_delta, self.noise_lambda),
                self.variance,
                self.df_half,
                (self.nu_grid, self.nu_density),
            ),
        }


def posterior_block(
    names, coefficient_mean, coefficient_cov, noise, variance, df_half, nu_density
) -> dict:
    """The posterior keys that the ``fit-vmp`` and ``fit-mcmc`` JSON share.

    ``noise`` is the (delta, lambda) of sigma^2, ``variance`` the CommonIGW
    of Sigma, ``df_half`` the MoonRockParams of nu/2 and ``nu_density`` a
    (grid, values) pair. Nothing is validated: a chain's sample covariance
    of the coefficients can be singular.
    """
    delta, lam = noise
    grid, values = nu_density
    return {
        "names": list(names),
        "beta_u": {"mean": coefficient_mean.tolist(), "cov": coefficient_cov.tolist()},
        "sigma2": {"delta": delta, "lambda": lam},
        "Sigma": {
            "xi": variance.xi,
            "Lambda": variance.Lambda.tolist(),
            "kappa": variance.xi - variance.dim + 1.0,
        },
        "upsilon": {"alpha": df_half.alpha, "beta": df_half.beta},
        "nu_density": {"grid": grid.tolist(), "values": values.tolist()},
    }


class TLMMFit(NamedTuple):
    graph: FactorGraph
    design: DesignInfo
    summary: PosteriorSummary


# ---------------------------------------------------------------------------
# graph assembly
# ---------------------------------------------------------------------------


def initial_messages(hyper: TLMMHyper, n_fixed: int, n_random: int, n_groups: int):
    """The documented start state, as {(factor, node): Message}.

    Prior-factor messages are their permanent values; the rest are simple
    legal vectors (implied scales are identity matrices) chosen so every
    combined vector the first sweep reads is proper.
    """
    q, m, p = n_random, n_groups, n_fixed
    k = p + m * q
    plan_cov = plan_prior(HuangWandSpec(scales=hyper.random_scales))
    plan_noise = plan_prior(HalfCauchySpec(scale=hyper.noise_scale))
    igw_init = np.concatenate(([-0.5], -0.5 * matops.fold_vech(np.eye(q))))
    identity = matops.Arrowhead(
        np.eye(p), np.zeros((m, p, q)), np.broadcast_to(np.eye(q), (m, q, q))
    )
    gauss_init = np.concatenate((np.zeros(k), -0.5 * matops.ravel_arrowhead(identity)))
    cov_msg = fr.igw_prior_update(plan_cov.prior_factor)
    noise_msg = fr.igw_prior_update(plan_noise.prior_factor)
    scalar_init = np.array([-2.0, -1.0])
    return {
        ("cov_aux_prior", "cov_aux"): Message(cov_msg.eta, cov_msg.graph),
        ("noise_aux_prior", "noise_aux"): Message(noise_msg.eta, noise_msg.graph),
        ("cov_conditional", "cov_aux"): Message(igw_init, Graph.DIAG),
        ("cov_conditional", "cov"): Message(igw_init, Graph.FULL),
        ("noise_conditional", "noise_aux"): Message(scalar_init, Graph.DIAG),
        ("noise_conditional", "noise"): Message(scalar_init, Graph.FULL),
        ("coefficient_prior", "cov"): Message(igw_init, Graph.FULL),
        ("coefficient_prior", "coefficients"): Message(gauss_init),
        ("likelihood", "coefficients"): Message(gauss_init),
        ("likelihood", "noise"): Message(scalar_init, Graph.FULL),
        ("scale_mix", "df_half"): Message(np.array([1.0, -1.1])),
        ("df_prior", "df_half"): Message(fr.moonrock_prior_update(0.0, hyper.df_rate)),
    }


def _assert_initial_proper(messages: dict, n_fixed: int, n_random: int, n_groups: int):
    """Reject a start state whose messages are not simple legal vectors:
    implied scales and precisions SPD, shape entries negative, degrees-of
    freedom naturals with beta > alpha >= 0."""
    dims = {"cov_aux": n_random, "cov": n_random, "noise_aux": 1, "noise": 1}
    for (factor, node), msg in messages.items():
        eta = np.asarray(msg.eta, dtype=float)
        if node in dims:
            if eta[0] >= 0 or not matops.is_spd(implied_scale(eta[1:], dims[node])):
                raise ImproperMessage(
                    f"initial message {factor} -> {node} is not a legal start vector"
                )
        elif node == "coefficients":
            extract_gaussian(eta, n_fixed, n_random, n_groups)
        elif node == "df_half":
            alpha, beta = eta[0], -eta[1]
            if not beta > alpha >= 0:
                raise ImproperMessage(
                    f"initial message {factor} -> {node} needs beta > alpha >= 0"
                )


def build_graph(data: TLMMData, hyper: TLMMHyper, design="slope") -> FactorGraph:
    """Assemble the eight-factor graph with its initial messages stored.

    ``design`` is a design name or the DesignInfo already assembled from
    ``data``.

    The default schedule follows construction order; the covariance
    conditional must run before the coefficient prior on the first sweep,
    because the initial combined vector on the covariance node only becomes
    proper once the conditional has refreshed its half.
    """
    des = design if isinstance(design, DesignInfo) else assemble_design(data, design)
    p, q, m = des.n_fixed, des.n_random, des.n_groups
    if len(hyper.random_scales) != q:
        raise DimensionMismatch(
            f"{q} random-effect components need {q} scales, got "
            f"{len(hyper.random_scales)}"
        )
    plan_cov = plan_prior(HuangWandSpec(scales=hyper.random_scales))
    plan_noise = plan_prior(HalfCauchySpec(scale=hyper.noise_scale))
    y = data.y

    nodes = [
        Node("cov_aux", 1 + matops.vech_len(q), tag=plan_cov.prior_factor.graph),
        Node("noise_aux", 2, tag=plan_noise.prior_factor.graph),
        Node("cov", 1 + matops.vech_len(q), tag=plan_cov.conditional.graph),
        Node("noise", 2, tag=plan_noise.conditional.graph),
        Node("coefficients", des.n_coefficients + matops.arrowhead_len(p, q, m)),
        Node("df_half", 2),
    ]

    inits = initial_messages(hyper, p, q, m)
    _assert_initial_proper(inits, p, q, m)

    def constant(factor, node):
        # a prior factor emits its start message on every sweep
        message = inits[(factor, node)]
        return lambda g: {node: message}

    def iterated_update(g, name, variance_node, aux_node, plan):
        res = fr.iterated_igw_update(
            plan.conditional.graph,
            plan.conditional.xi,
            to_variance=g.factor_to_node(name, variance_node).eta,
            from_variance=g.node_to_factor(variance_node, name).eta,
            to_auxiliary=g.factor_to_node(name, aux_node).eta,
            from_auxiliary=fr.IGWMessage(
                g.node_to_factor(aux_node, name).eta, plan.conditional.aux_graph
            ),
        )
        return {
            variance_node: Message(res.to_variance.eta, res.to_variance.graph),
            aux_node: Message(res.to_auxiliary.eta, res.to_auxiliary.graph),
        }

    def cov_conditional_update(g):
        return iterated_update(g, "cov_conditional", "cov", "cov_aux", plan_cov)

    def noise_conditional_update(g):
        return iterated_update(g, "noise_conditional", "noise", "noise_aux", plan_noise)

    def gaussian_moments(g):
        return extract_gaussian(g.q_star("coefficients").eta, p, q, m)

    df_half_memo = []

    def df_half_params(g):
        # one instance, and so one Moon Rock grid, while q(df_half) is unchanged
        eta = g.q_star("df_half").eta
        if not (df_half_memo and np.array_equal(df_half_memo[0], eta)):
            df_half_memo[:] = [eta, MoonRockParams.from_vector(eta)]
        return df_half_memo[1]

    def coefficient_prior_update(g):
        mu, Sig = gaussian_moments(g)
        inv_cov = combined_mean_inverse(g.q_star("cov").eta, Graph.FULL)
        res = fr.gaussian_penalization_update(mu, Sig, p, m, hyper.fixed_scale, inv_cov)
        return {
            "coefficients": Message(res.to_coefficients),
            "cov": Message(res.to_variance.eta, res.to_variance.graph),
        }

    def composite(g):
        mu, Sig = gaussian_moments(g)
        inv_noise = float(combined_mean_inverse(g.q_star("noise").eta, Graph.FULL)[0, 0])
        mean_df_half = moonrock_mean(df_half_params(g))
        return fr.t_likelihood_update(y, des, mu, Sig, inv_noise, mean_df_half)

    def likelihood_update(g):
        res = composite(g)
        return {
            "coefficients": Message(res.to_coefficients),
            "noise": Message(res.to_noise.eta, res.to_noise.graph),
        }

    def scale_mix_update(g):
        return {"df_half": Message(composite(g).to_df_half)}

    # Updates read whole q* densities, so each also sees the other factors'
    # messages on its own nodes. The reads across edges come from the shared
    # t-likelihood update (composite): likelihood reads q*(df_half), and
    # scale_mix reads q*(coefficients) and q*(noise).
    factors = [
        Factor("cov_aux_prior", ("cov_aux",), constant("cov_aux_prior", "cov_aux")),
        Factor("noise_aux_prior", ("noise_aux",), constant("noise_aux_prior", "noise_aux")),
        Factor("cov_conditional", ("cov", "cov_aux"), cov_conditional_update),
        Factor("noise_conditional", ("noise", "noise_aux"), noise_conditional_update),
        Factor("coefficient_prior", ("coefficients", "cov"), coefficient_prior_update),
        Factor("likelihood", ("coefficients", "noise"), likelihood_update),
        Factor("scale_mix", ("df_half",), scale_mix_update),
        Factor("df_prior", ("df_half",), constant("df_prior", "df_half")),
    ]
    graph = FactorGraph(nodes, factors)
    for (fac, node), msg in inits.items():
        graph.store(fac, node, msg)
    return graph


def summarize_graph(
    graph: FactorGraph, design: DesignInfo, report: ConvergenceReport
) -> PosteriorSummary:
    """Extract the converged q densities in common parameters."""
    p, q, m = design.n_fixed, design.n_random, design.n_groups
    mu, Sig = extract_gaussian(graph.q_star("coefficients").eta, p, q, m, dense=True)
    variance = extract_igw_full(graph.q_star("cov").eta)
    delta, lam = extract_inv_chisq(graph.q_star("noise").eta)
    df_half = MoonRockParams.from_vector(graph.q_star("df_half").eta)
    nu_grid, nu_density = df_density_grid(df_half)
    return PosteriorSummary(
        names=coefficient_names(p, q, m),
        coefficient_mean=mu,
        coefficient_cov=Sig,
        variance=variance,
        noise_delta=delta,
        noise_lambda=lam,
        df_half=df_half,
        nu_grid=nu_grid,
        nu_density=nu_density,
        report=report,
    )


def fit(
    data: TLMMData,
    hyper: Optional[TLMMHyper] = None,
    design: str = "slope",
    tol: float = 1e-10,
    max_iters: int = 500,
    schedule=None,
) -> TLMMFit:
    """Run message passing to convergence and extract the posterior.

    Raises NotConverged (with the report attached) if the maximum relative
    message change has not fallen below ``tol`` within ``max_iters`` sweeps.
    """
    des = assemble_design(data, design)
    if hyper is None:
        hyper = TLMMHyper.diffuse(des.n_random)
    graph = build_graph(data, hyper, des)
    report = graph.run(tol=tol, max_iters=max_iters, schedule=schedule)
    if not report.converged:
        err = NotConverged(
            f"final relative change {report.final_change:.3e} after "
            f"{report.iterations} sweeps (tol {tol:g})"
        )
        err.report = report
        raise err
    return TLMMFit(graph, des, summarize_graph(graph, des, report))
