"""Gibbs sampler for the t-response linear mixed model.

The augmented model (scale-mixture variables b, auxiliary scale matrices A
and a) has standard full conditionals for every block except the half
degrees of freedom. Its conditional is a Moon Rock density, updated by one
slice-sampling step in s = log t from the current value, which builds no
grid. The sampler serves as a simulation ground truth for the variational
fit.

Its 1 x 1 and 2 x 2 algebra, including the coefficients' block Cholesky
factor that the variational fit also uses, is ``matops``'.
"""

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple, Optional

import numpy as np

from . import matops
from .distributions import (
    CommonIGW,
    Graph,
    MoonRockParams,
    inv_chisq_sample,
    moonrock_mean,
    moonrock_slice_update,
    moonrock_variance,
)
from .errors import (
    DimensionMismatch,
    DivergentIntegral,
    DomainError,
    InvalidHyperparameter,
    InvalidShape,
    NonSPDScale,
    NotConverged,
    NumericalFailure,
)
from .matops import _cholesky, _is_spd, _symmetric_vech, _vech_matrix
from .tlmm import TLMMData, TLMMHyper, assemble_design, coefficient_names

__all__ = [
    "GibbsConfig",
    "ChainOutput",
    "ChainSummary",
    "ParameterSummary",
    "draw_coefficients",
    "draw_scale_mixture",
    "draw_noise_variance",
    "draw_noise_auxiliary",
    "draw_random_cov",
    "draw_cov_auxiliary",
    "draw_df_half",
    "gibbs_fit",
    "chain_series",
    "kde_density",
    "summarize",
    "match_inv_chisq",
    "match_igw_full",
    "match_moonrock",
]

# the covariance prior level fixed by the model (uniform correlations)
HW_SHAPE = 2.0

# fewest retained draws ``summarize`` accepts
MIN_SUMMARY_DRAWS = 100

# most secant steps of a moment-matching root find
_ROOT_MAX_STEPS = 100


@dataclass(frozen=True)
class GibbsConfig:
    """Chain settings: warmup discarded, kept retained, and the seed."""

    warmup: int = 1000
    kept: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.warmup < 0 or self.kept < 1:
            raise InvalidHyperparameter("need warmup >= 0 and kept >= 1")
        if self.seed < 0:
            raise InvalidHyperparameter(f"the seed must be non-negative, got {self.seed}")


class ChainOutput(NamedTuple):
    """Retained draws. ``coefficients`` has one column per entry of (beta, u)
    named in ``names``; ``Sigma`` stacks q x q matrices; ``A`` holds the
    diagonal of the covariance auxiliary matrix."""

    names: tuple
    coefficients: np.ndarray
    sigma2: np.ndarray
    Sigma: np.ndarray
    nu: np.ndarray
    a: np.ndarray
    A: np.ndarray


class ParameterSummary(NamedTuple):
    mean: float
    sd: float
    split_z: float


@dataclass(frozen=True)
class ChainSummary:
    """Per-parameter moments with a split-half mean-agreement diagnostic
    (z per parameter; the overall flag compares the worst z against a
    threshold sized for the number of parameters)."""

    parameters: dict
    converged: bool
    z_threshold: float


# ---------------------------------------------------------------------------
# full conditionals
# ---------------------------------------------------------------------------


def draw_coefficients(rng, y, design, b, sigma2, Sigma_inv, fixed_scale):
    """(beta, u) | rest is Gaussian with precision M = C'WC/sigma2 plus the
    prior's block diagonal (I/fixed_scale^2 on beta, Sigma^{-1} per group),
    W = diag(1/b), and mean M^{-1} r, r = C'Wy/sigma2; C is the index-form
    ``design``, and the weights 1/(sigma2 b) carry the 1/sigma2 scaling.

    ``matops.arrowhead_cholesky`` factors M = L L' and gives v = L^{-1} r;
    with z standard normal, the draw is L^{-T}(v + z). It raises
    NumericalFailure unless M is positive definite with a finite factor,
    and DimensionMismatch unless p and q are 1 or 2.
    """
    p, q, m = design.n_fixed, design.n_random, design.n_groups
    if Sigma_inv.shape != (q, q):
        raise DimensionMismatch(f"Sigma_inv must be {q} x {q}, got {Sigma_inv.shape}")
    with np.errstate(all="ignore"):
        r, gram = design.weighted_cross(1.0 / (sigma2 * b), y)
        M = matops.unravel_arrowhead(gram, p, q, m)
        # the prior, added in place to the fresh C'WC/sigma2
        np.add(M.blocks, Sigma_inv, out=M.blocks)
        fixed = gram[: p * p : p + 1]  # the corner's diagonal
        fixed += 1.0 / fixed_scale**2
        L, v = matops.arrowhead_cholesky(M, r)
        z = rng.standard_normal(p + m * q)
        return matops.arrowhead_backward(L, v + z)


def draw_scale_mixture(rng, resid, sigma2, upsilon):
    """b_l | rest, one inverse-chi^2 per observation."""
    lam = 2.0 * upsilon + resid**2 / sigma2
    return inv_chisq_sample(2.0 * upsilon + 1.0, lam, rng, size=resid.size)


def draw_noise_variance(rng, resid, b, a_aux):
    lam = 1.0 / a_aux + np.sum(resid**2 / b)
    return inv_chisq_sample(resid.size + 1.0, lam, rng)


def draw_noise_auxiliary(rng, sigma2, noise_scale):
    return inv_chisq_sample(2.0, 1.0 / sigma2 + 1.0 / noise_scale**2, rng)


def draw_random_cov(rng, xi, Lam):
    """Sigma | rest, inverse Wishart with shape xi and scale Lam in the xi
    convention; returns (Sigma, Sigma^{-1}). ``gibbs_fit`` passes
    xi = 2q + m and Lam = diag(1/A) + sum_i u_i u_i'.

    As in ``igw_sample``: with R R' = Lam and A the lower-triangular
    Bartlett factor of a Wishart(xi - q + 1, I) draw, Sigma = (R A^{-T})
    (R A^{-T})' and, from the same factors, Sigma^{-1} = (R^{-T} A)
    (R^{-T} A)', both in closed form. The random draws are those of
    ``igw_sample``. Raises InvalidShape unless 2q - 2 < xi < inf,
    NonSPDScale unless Lam passes ``matops.is_spd``, and NumericalFailure
    when a Bartlett pivot is zero, Sigma fails ``matops.is_spd`` or
    Sigma^{-1} is not finite.
    """
    q = Lam.shape[0]
    lam = _symmetric_vech(Lam)
    if not 2 * q - 2 < xi < math.inf:
        raise InvalidShape(f"full graph requires a finite xi > 2d-2 = {2 * q - 2}, got {xi}")
    if not _is_spd(lam):
        raise NonSPDScale("scale matrix is not SPD")
    R = _cholesky(lam, "scale matrix")
    z = rng.standard_normal((1, q * (q - 1) // 2))
    chi2 = rng.chisquare([xi - q + 1.0 - j for j in range(q)], (1, q))
    (pivots,) = chi2.tolist()
    if not min(pivots) > 0.0:
        raise NumericalFailure("a Bartlett pivot of the covariance draw is zero")
    if q == 1:
        ratio, inverse = R[0] / math.sqrt(pivots[0]), math.sqrt(pivots[0]) / R[0]
        sigma, sigma_inv = (ratio * ratio,), (inverse * inverse,)
    else:
        r11, r21, r22 = R
        a11, a22 = math.sqrt(pivots[0]), math.sqrt(pivots[1])
        ((a21,),) = z.tolist()
        # B = R A^{-T} solves B A' = R row by row
        b11 = r11 / a11
        b12 = -b11 * a21 / a22
        b21 = r21 / a11
        b22 = (r22 - b21 * a21) / a22
        sigma = (b11 * b11 + b12 * b12, b21 * b11 + b22 * b12, b21 * b21 + b22 * b22)
        # C = R^{-T} A solves R' C = A column by column
        c21 = a21 / r22
        c22 = a22 / r22
        c11 = (a11 - r21 * c21) / r11
        c12 = -r21 * c22 / r11
        sigma_inv = (c11 * c11 + c12 * c12, c21 * c11 + c22 * c12, c21 * c21 + c22 * c22)
    if not _is_spd(sigma):
        raise NumericalFailure("covariance draw is not SPD")
    if not math.isfinite(sum(sigma_inv)):
        raise NumericalFailure("random-effects covariance draw is singular")
    return _vech_matrix(sigma), _vech_matrix(sigma_inv)


def draw_cov_auxiliary(rng, Sigma_inv, scales):
    """A_jj | rest are independent inverse-chi^2; the shape q + 2 combines
    the prior's 1 with the conditional covariance level."""
    q = scales.size
    lam = Sigma_inv.diagonal() + 1.0 / (HW_SHAPE * scales**2)
    return inv_chisq_sample(q + 2.0, lam, rng, size=q)


def draw_df_half(rng, b, df_rate, upsilon):
    """upsilon | rest follows the conjugate two-parameter density with
    alpha = N and beta = lambda_nu + sum(log b + 1/b); one slice update from
    the current upsilon leaves it invariant. Raises NumericalFailure when
    overflowing draws of b leave beta non-finite."""
    beta = df_rate + float(np.sum(np.log(b) + 1.0 / b))
    if not np.isfinite(beta):
        raise NumericalFailure(f"the degrees-of-freedom rate {beta} is not finite")
    return moonrock_slice_update(MoonRockParams(float(b.size), beta), upsilon, rng)


# ---------------------------------------------------------------------------
# the sampler
# ---------------------------------------------------------------------------


def gibbs_fit(
    data: TLMMData,
    hyper: Optional[TLMMHyper] = None,
    cfg: Optional[GibbsConfig] = None,
    design: str = "slope",
    init: Optional[dict] = None,
) -> ChainOutput:
    """Run the Gibbs sampler and return the retained draws.

    ``init`` may override starting values by key: ``coefficients`` (k
    entries), ``sigma2``, ``a``, ``A`` (q entries) and ``nu``. These are the
    blocks read before they are drawn; any other key raises
    InvalidHyperparameter, as does a value that is not finite or, except
    for the coefficients, not positive. A wrong shape raises
    DimensionMismatch.
    """
    cfg = cfg if cfg is not None else GibbsConfig()
    rng = np.random.default_rng(cfg.seed)
    des = assemble_design(data, design)
    p, q, m = des.n_fixed, des.n_random, des.n_groups
    if hyper is None:
        hyper = TLMMHyper.diffuse(q)
    if len(hyper.random_scales) != q:
        raise DimensionMismatch(
            f"{q} random-effect components need {q} scales, got "
            f"{len(hyper.random_scales)}"
        )
    scales = np.asarray(hyper.random_scales, dtype=float)
    y = data.y
    k = des.n_coefficients

    start = {"coefficients": np.zeros(k), "sigma2": 1.0, "a": 1.0, "A": np.ones(q), "nu": 2.0}
    for name, value in (init or {}).items():
        if name not in start:
            raise InvalidHyperparameter(f"init takes only {', '.join(start)}; got {name!r}")
        try:
            value = np.array(value, dtype=float)
        except (TypeError, ValueError):
            raise InvalidHyperparameter(f"init {name} is not numeric: {value!r}") from None
        if value.shape != np.shape(start[name]):
            raise DimensionMismatch(
                f"init {name} must have shape {np.shape(start[name])}, got {value.shape}"
            )
        if not np.all(np.isfinite(value) & ((value > 0) | (name == "coefficients"))):
            raise InvalidHyperparameter(
                f"init values must be finite, and all but the coefficients positive; "
                f"got {name} = {value}"
            )
        start[name] = value
    theta = start["coefficients"]
    sigma2, a_aux, upsilon = float(start["sigma2"]), float(start["a"]), float(start["nu"]) / 2.0
    A_diag = start["A"]

    out_coeff = np.empty((cfg.kept, k))
    out_sigma2 = np.empty(cfg.kept)
    out_Sigma = np.empty((cfg.kept, q, q))
    out_nu = np.empty(cfg.kept)
    out_a = np.empty(cfg.kept)
    out_A = np.empty((cfg.kept, q))

    for it in range(cfg.warmup + cfg.kept):
        resid = y - des.predict(theta)
        b = draw_scale_mixture(rng, resid, sigma2, upsilon)
        upsilon = draw_df_half(rng, b, hyper.df_rate, upsilon)
        sigma2 = draw_noise_variance(rng, resid, b, a_aux)
        a_aux = draw_noise_auxiliary(rng, sigma2, hyper.noise_scale)
        u = theta[p:].reshape(m, q)
        Lam = u.T @ u
        Lam.flat[:: q + 1] += 1.0 / A_diag
        Sigma, Sigma_inv = draw_random_cov(rng, 2.0 * q + m, Lam)
        A_diag = draw_cov_auxiliary(rng, Sigma_inv, scales)
        theta = draw_coefficients(rng, y, des, b, sigma2, Sigma_inv, hyper.fixed_scale)
        if it >= cfg.warmup:
            j = it - cfg.warmup
            out_coeff[j] = theta
            out_sigma2[j] = sigma2
            out_Sigma[j] = Sigma
            out_nu[j] = 2.0 * upsilon
            out_a[j] = a_aux
            out_A[j] = A_diag

    if np.any(out_sigma2 <= 0) or not np.all(np.isfinite(out_coeff)):
        raise NumericalFailure("chain produced non-finite or non-positive draws")
    return ChainOutput(
        coefficient_names(p, q, m),
        out_coeff,
        out_sigma2,
        out_Sigma,
        out_nu,
        out_a,
        out_A,
    )


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def chain_series(chain: ChainOutput) -> dict:
    """The draws of every reported scalar, by name: the coefficients, the
    noise scale sigma = sqrt(sigma2), the covariance scales sigma_j =
    sqrt(Sigma_jj) and pairwise correlations, and the degrees of freedom."""
    series = {name: chain.coefficients[:, i] for i, name in enumerate(chain.names)}
    series["sigma"] = np.sqrt(chain.sigma2)
    q = chain.Sigma.shape[-1]
    sds = np.sqrt(chain.Sigma[:, np.arange(q), np.arange(q)])
    for j in range(q):
        series[f"sigma{j + 1}"] = sds[:, j]
    for i in range(q):
        for j in range(i + 1, q):
            name = "rho" if q == 2 else f"rho[{i + 1},{j + 1}]"
            series[name] = chain.Sigma[:, i, j] / (sds[:, i] * sds[:, j])
    series["nu"] = chain.nu
    return series


# bytes of float64 kernel values evaluated at once: the kernel sum runs over
# blocks of grid points so that no temporary grows with grid size x draws
_KDE_BLOCK_BYTES = 1 << 20


def kde_density(draws, grid=None):
    """(grid, density) of the draws' Gaussian kernel estimate with Silverman's
    bandwidth h = sd (3n/4)^(-1/5); the default grid has 401 points from three
    h below the smallest draw to three h above the largest. A constant chain c
    has no h: it is drawn as a spike of width w = max(|c|, 1) 1e-8, on c +- 6w
    by default."""
    if float(np.std(draws)) == 0.0:
        center = float(draws[0])
        width = max(abs(center), 1.0) * 1e-8
        if grid is None:
            grid = np.linspace(center - 6 * width, center + 6 * width, 401)
        return grid, np.exp(-0.5 * ((grid - center) / width) ** 2) / (width * np.sqrt(2 * np.pi))
    draws = np.asarray(draws, dtype=float)
    n = draws.size
    h = float(np.std(draws, ddof=1)) * (0.75 * n) ** -0.2
    if grid is None:
        grid = np.linspace(float(np.min(draws)) - 3 * h, float(np.max(draws)) + 3 * h, 401)
    # differences before scaling: dividing first, as scipy's gaussian_kde
    # does, loses digits of (x - d)/h when the draws sit far from zero
    points = np.asarray(grid, dtype=float)
    density = np.empty(points.size)
    block = max(1, _KDE_BLOCK_BYTES // (8 * n))
    for start in range(0, points.size, block):
        z = points[start : start + block, None] - draws
        z *= z
        z *= -0.5 / (h * h)
        np.exp(z, out=z)
        z.sum(axis=1, out=density[start : start + block])
    density /= n * h * np.sqrt(2 * np.pi)
    return grid, density


def _split_half_z(draws):
    """Half-mean disagreement in batch-means standard errors, from 10
    batches per half."""
    half = draws.size // 2
    ses = []
    means = []
    for part in (draws[:half], draws[half : 2 * half]):
        batches = np.array_split(part, 10)
        bm = np.array([np.mean(chunk) for chunk in batches])
        means.append(float(np.mean(part)))
        ses.append(float(np.std(bm, ddof=1) / np.sqrt(len(batches))))
    denom = float(np.hypot(*ses))
    diff = abs(means[0] - means[1])
    if denom == 0.0:
        return 0.0 if diff == 0.0 else np.inf
    return diff / denom


# ---------------------------------------------------------------------------
# moment matching, for serializing chains in the parametric posterior schema
# ---------------------------------------------------------------------------


def match_inv_chisq(draws):
    """(delta, lambda) of the inverse-chi^2 with the draws' mean and variance.

    From mean = lambda/(delta-2) and var = 2 mean^2/(delta-4)."""
    m = float(np.mean(draws))
    v = float(np.var(draws, ddof=1))
    if m <= 0 or v <= 0:
        raise DomainError("moment matching needs positive mean and variance")
    delta = 4.0 + 2.0 * m * m / v
    return delta, m * (delta - 2.0)


def match_igw_full(Sigma_draws) -> CommonIGW:
    """Full-graph (xi, Lambda) matching the draws' E(Sigma) and E(Sigma^-1).

    tr(E(Sigma^-1) E(Sigma)) = q(xi - q + 1)/(xi - 2q) pins xi; Lambda then
    follows from the mean. Jensen makes the trace ratio exceed 1 for any
    non-degenerate sample, which keeps the matched xi above 2q.
    """
    mean = Sigma_draws.mean(axis=0)
    mean_inv = np.linalg.inv(Sigma_draws).mean(axis=0)
    q = mean.shape[-1]
    c = float(np.trace(mean_inv @ mean)) / q
    if c <= 1.0:
        raise NumericalFailure("degenerate covariance draws cannot be matched")
    xi = (2.0 * q * c - q + 1.0) / (c - 1.0)
    Lam = (xi - 2.0 * q) * mean
    return CommonIGW(Graph.FULL, xi, 0.5 * (Lam + Lam.T))


def _root_in(f, a: float, b: float, xtol: float) -> float:
    """A root of f in the bracket [a, b], where f(a) and f(b) differ in sign,
    to within xtol, by Illinois false position (Dowell & Jarratt 1971): the
    secant point replaces the end whose value has its sign, and an end kept
    twice in a row has its value halved, so both ends converge."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise NumericalFailure("root finding needs a sign change over its bracket")
    kept = None
    for _ in range(_ROOT_MAX_STEPS):
        c = b - fb * (b - a) / (fb - fa)
        fc = f(c)
        if fc == 0.0:
            return c
        if (fc > 0) == (fb > 0):
            b, fb = c, fc
            if kept == "a":
                fa /= 2.0
            kept = "a"
        else:
            a, fa = c, fc
            if kept == "b":
                fb /= 2.0
            kept = "b"
        if abs(b - a) < xtol:
            return c
    raise NotConverged(f"root finding did not converge in {_ROOT_MAX_STEPS} steps")


def _beta_matching_mean(alpha: float, target: float) -> float:
    """The rate at which the two-parameter density has the target mean; the
    mean decreases from infinity to zero as beta rises above alpha."""

    def mean_at(g):
        return moonrock_mean(MoonRockParams(alpha, alpha + g))

    g = max(1.0 / target, 1e-2)
    if mean_at(g) >= target:
        lo = g
        while mean_at(lo * 4.0) >= target:
            lo *= 4.0
            if lo > 1e12:
                raise NumericalFailure("mean matching failed to bracket")
        hi = lo * 4.0
    else:
        hi = g
        while True:
            candidate = hi / 4.0
            try:
                if mean_at(candidate) >= target:
                    break
            except DivergentIntegral:
                # so close to the propriety boundary that the quadrature
                # gave up; the mean there is certainly above target
                break
            hi = candidate
            if hi < 1e-12:
                break
        lo = hi / 4.0
    root = _root_in(lambda s: mean_at(np.exp(s)) - target, np.log(lo), np.log(hi), xtol=1e-12)
    return alpha + float(np.exp(root))


def match_moonrock(draws) -> MoonRockParams:
    """Parameters matching the draws' mean and variance.

    A sample at least as dispersed as an exponential gets the alpha = 0
    member (variance cannot exceed mean^2 beyond it); otherwise alpha is
    solved so the variance matches, with beta re-solved for the mean at
    each candidate.
    """
    m = float(np.mean(draws))
    v = float(np.var(draws, ddof=1))
    if m <= 0 or v <= 0:
        raise DomainError("moment matching needs positive mean and variance")
    if v >= m * m:
        return MoonRockParams(0.0, 1.0 / m)

    def excess(log_alpha):
        alpha = float(np.exp(log_alpha))
        beta = _beta_matching_mean(alpha, m)
        return moonrock_variance(MoonRockParams(alpha, beta)) - v

    lo = np.log(1e-4)
    hi = np.log(1.0)
    while excess(hi) > 0:
        hi += np.log(8.0)
        if hi > np.log(1e9):
            raise NumericalFailure("variance matching failed to bracket")
    while excess(lo) < 0:
        lo -= np.log(8.0)
        if lo < np.log(1e-12):
            raise NumericalFailure("variance matching failed to bracket")
    root = _root_in(excess, lo, hi, xtol=1e-10)
    alpha = float(np.exp(root))
    return MoonRockParams(alpha, _beta_matching_mean(alpha, m))


def summarize(chain: ChainOutput) -> ChainSummary:
    """Mean, standard deviation and split-half z of every series that
    ``chain_series`` derives."""
    kept = chain.sigma2.size
    if kept < MIN_SUMMARY_DRAWS:
        raise DomainError(
            f"summaries need at least {MIN_SUMMARY_DRAWS} retained draws, got {kept}"
        )
    parameters = {}
    worst = 0.0
    for name, draws in chain_series(chain).items():
        z = _split_half_z(draws)
        worst = max(worst, z)
        parameters[name] = ParameterSummary(
            float(np.mean(draws)), float(np.std(draws, ddof=1)), z
        )
    # family-wise version of the two-standard-error rule
    threshold = NormalDist().inv_cdf(1.0 - 0.025 / len(parameters))
    return ChainSummary(parameters, bool(worst < threshold), threshold)
