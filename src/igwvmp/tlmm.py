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
    NumericalFailure,
)
from .graph_engine import ConvergenceReport, Factor, FactorGraph, Message, Node
from .prior_specs import HalfCauchySpec, HuangWandSpec, check_scales, plan_prior

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
_DESIGN_SIZES = {"slope": (2, 2), "intercept": (2, 1)}

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
    zero-based group labels covering 0..m-1. The rows may come in any
    order; they are stored stably sorted by group, as ``DesignInfo`` needs."""

    y: np.ndarray
    x: np.ndarray
    group: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        group = np.asarray(self.group)
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
        # fancy indexing copies, so the caller's arrays stay writable
        order = np.argsort(group, kind="stable")
        y, x, group = y[order], x[order], group[order]
        # the sorted labels start at 0 and step by at most 1; np.unique
        # would import numpy.ma (about 12 ms) on every command
        if group[0] != 0 or np.any(np.diff(group) > 1):
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
        return int(self.group[-1]) + 1


@dataclass(frozen=True)
class TLMMHyper:
    """Prior hyperparameters: the fixed-effects scale sigma_beta, the noise
    Half-Cauchy scale, the per-component Huang-Wand scales for the random
    effects, and the rate of the exponential prior on the half degrees of
    freedom.

    Each must be positive with a square and a reciprocal square that are
    finite and nonzero floats (``prior_specs.check_scales``).
    """

    fixed_scale: float = 1e5
    noise_scale: float = 1e5
    random_scales: tuple = (1e5, 1e5)
    df_rate: float = 0.01

    def __post_init__(self):
        scales = tuple(float(s) for s in self.random_scales)
        check_scales(
            (self.fixed_scale, self.noise_scale, self.df_rate, *scales), "all hyperparameters"
        )
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

    C itself is never formed. The labels must be sorted and cover 0..m-1,
    so each group's rows are one segment. Products with C repeat a group's
    coefficients over its segment. Sums over rows of the per-row x x^T and
    of [x z^T; z z^T] (raveled) are a matrix-vector product for the corner
    and an ``np.add.reduceat`` over the segments for the groups' entries.
    """

    X: np.ndarray
    Z: np.ndarray
    group: np.ndarray
    n_groups: int
    _corner_terms: np.ndarray = field(init=False, repr=False)
    _group_terms: np.ndarray = field(init=False, repr=False)
    _starts: np.ndarray = field(init=False, repr=False)
    _counts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        X = np.array(self.X, dtype=float)
        Z = np.array(self.Z, dtype=float)
        group = np.array(self.group, dtype=np.intp)
        n, m = group.size, self.n_groups
        if X.ndim != 2 or Z.ndim != 2 or X.shape[0] != n or Z.shape[0] != n:
            raise DimensionMismatch(
                f"X {X.shape}, Z {Z.shape} and group {group.shape} must share their rows"
            )
        # the first label of each run; reduceat would misread a split or
        # missing segment
        starts = np.flatnonzero(np.diff(group, prepend=-1))
        if n == 0 or not np.array_equal(group[starts], np.arange(m)):
            raise DimensionMismatch(
                f"group labels must run 0..{m - 1} in sorted order with every label present"
            )
        # a row's x z^T and z z^T stacked as the (p + q) x q block [x; z] z^T
        XZ = np.concatenate((X, Z), axis=1)
        fields = {
            "X": X,
            "Z": Z,
            "group": group,
            "_corner_terms": (X[:, :, None] * X[:, None, :]).reshape(n, -1),
            "_group_terms": (XZ[:, :, None] * Z[:, None, :]).reshape(n, -1),
            "_starts": starts,
            "_counts": np.diff(starts, append=n),
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
        p, q = self.n_fixed, self.n_random
        u = coefficients[p:].reshape(-1, q).repeat(self._counts, axis=0)
        # the row-wise dot of Z and u: a product with ones sums its q terms
        # faster than einsum does
        return self.X @ coefficients[:p] + (self.Z * u) @ np.ones(q)

    def row_variance(self, cov: matops.Arrowhead) -> np.ndarray:
        """diag(C S C^T) for a symmetric S given by its arrowhead blocks."""
        # each border entry stands for itself and its transposed copy
        groups = np.concatenate((2.0 * cov.border, cov.blocks), axis=1).reshape(self.n_groups, -1)
        rows = groups.repeat(self._counts, axis=0)
        corner = self._corner_terms @ cov.corner.ravel()
        return corner + np.einsum("le,le->l", self._group_terms, rows)

    def weighted_cross(self, w: np.ndarray, y: np.ndarray):
        """(C^T W y, ``matops.ravel_arrowhead`` of C^T W C) for W = diag(w)."""
        pq = self.n_fixed * self.n_random
        groups = np.add.reduceat(w[:, None] * self._group_terms, self._starts)
        gram = np.concatenate((w @ self._corner_terms, groups[:, :pq], groups[:, pq:]), axis=None)
        wy = w * y
        by_group = np.add.reduceat(wy[:, None] * self.Z, self._starts)
        return np.concatenate((wy @ self.X, by_group), axis=None), gram


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
    (q=1).
    """
    design_sizes(design)  # rejects an unknown name
    ones = np.ones(data.n_obs)
    X = np.column_stack((ones, data.x))
    z = X if design == "slope" else ones[:, None]
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
    of P, ``matops.arrowhead_cholesky``, which serves p and q of 1 or 2 and
    raises DimensionMismatch otherwise. Raises NonSPDPrecision unless every
    eigenvalue of P exceeds t = ``matops.spd_threshold`` of its diagonal
    (``matops.is_spd``'s rule). Every eigenvalue is at least 1/trace(P^{-1}), so a covariance trace
    below 1/(2t) settles that; otherwise P - t I is factored to decide.
    """
    p, q, m = n_fixed, n_random, n_groups
    k = p + m * q
    eta = np.asarray(eta, dtype=float)
    P = matops.unravel_arrowhead(-2.0 * eta[k:], p, q, m)
    diagonal = np.concatenate((P.corner.diagonal(), P.blocks.diagonal(axis1=1, axis2=2).ravel()))
    threshold = matops.spd_threshold(diagonal)
    try:
        L, v = matops.arrowhead_cholesky(P, eta[:k])
        mean, cov = matops.arrowhead_moments(L, v, dense=dense)
        trace = cov.trace() if dense else cov.corner.trace() + cov.blocks.trace(0, 1, 2).sum()
        if not 2.0 * threshold * trace < 1.0:
            matops.arrowhead_cholesky(P, eta[:k], shift=threshold)
    except NumericalFailure:
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
    scalar_init = np.array([-2.0, -1.0])
    return {
        ("cov_aux_prior", "cov_aux"): fr.igw_prior_update(plan_cov.prior_factor),
        ("noise_aux_prior", "noise_aux"): fr.igw_prior_update(plan_noise.prior_factor),
        ("cov_conditional", "cov_aux"): Message(igw_init, Graph.DIAG),
        ("cov_conditional", "cov"): Message(igw_init, Graph.FULL),
        ("noise_conditional", "noise_aux"): Message(scalar_init, Graph.DIAG),
        ("noise_conditional", "noise"): Message(scalar_init, Graph.FULL),
        ("coefficient_prior", "cov"): Message(igw_init, Graph.FULL),
        ("coefficient_prior", "coefficients"): Message(gauss_init),
        ("likelihood", "coefficients"): Message(gauss_init),
        ("likelihood", "noise"): Message(scalar_init, Graph.FULL),
        ("scale_mix", "df_half"): Message(np.array([1.0, -1.1])),
        ("df_prior", "df_half"): fr.moonrock_prior_update(0.0, hyper.df_rate),
    }


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
            from_auxiliary=g.node_to_factor(aux_node, name),
        )
        return {variance_node: res.to_variance, aux_node: res.to_auxiliary}

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
        return {"coefficients": res.to_coefficients, "cov": res.to_variance}

    def scale_mixture_inputs(g):
        mu, Sig = gaussian_moments(g)
        inv_noise = float(combined_mean_inverse(g.q_star("noise").eta, Graph.FULL)[0, 0])
        return y, des, mu, Sig, inv_noise, moonrock_mean(df_half_params(g))

    def likelihood_update(g):
        res = fr.t_likelihood_update(*scale_mixture_inputs(g))
        return {"coefficients": res.to_coefficients, "noise": res.to_noise}

    def scale_mix_update(g):
        return {"df_half": fr.scale_mixture_update(*scale_mixture_inputs(g))}

    # Updates read whole q* densities, so each also sees the other factors'
    # messages on its own nodes. The reads across edges come from
    # marginalizing the scale mixture b inside both t-likelihood fragments:
    # likelihood reads q*(df_half), and scale_mix reads q*(coefficients) and
    # q*(noise).
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
