"""Distribution families used by the message passing engine.

Covers the Inverse G-Wishart family (full and diagonal graphs) in both its
common (shape, scale) and natural parameterizations, the Inverse Chi-Squared
building block, and the Moon Rock family, whose sampler, quantiles,
normalizer and moments all come from one trapezoid grid in s = log t.

Density evaluations return log values throughout; probability-scale numbers
are only ever formed at the final reporting stage.
"""

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln, zeta

from . import matops
from .errors import (
    DimensionMismatch,
    DivergentIntegral,
    DomainError,
    ImproperMessage,
    InvalidHyperparameter,
    InvalidShape,
    NonSPDScale,
)

__all__ = [
    "Graph",
    "CommonIGW",
    "NaturalIGW",
    "igw_to_natural",
    "igw_from_natural",
    "igw_mean_inverse",
    "combined_mean_inverse",
    "igw_sample",
    "inv_chisq_log_density",
    "inv_chisq_sample",
    "inv_chisq_mean_inverse",
    "inv_chisq_mean_log",
    "inv_chisq_sqrt_mean",
    "inv_chisq_sqrt_sd",
    "MoonRockParams",
    "moonrock_log_normalizer",
    "moonrock_mean",
    "moonrock_log_density",
    "moonrock_sample",
]


class Graph(str, enum.Enum):
    """Graph of an Inverse G-Wishart distribution; only these two exist."""

    FULL = "full"
    DIAG = "diag"


def omega(graph: Graph, d: int) -> float:
    """The moment-formula constant: (d+1)/2 for the full graph, 1 for diag."""
    return (d + 1) / 2 if graph is Graph.FULL else 1.0


# ---------------------------------------------------------------------------
# Inverse G-Wishart
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommonIGW:
    """Inverse G-Wishart in (graph, shape, scale) form.

    p(X) is proportional to |X|^{-(xi+2)/2} exp(-tr(Lambda X^{-1})/2) on the
    support determined by the graph. The full graph requires xi > 2d - 2 and
    an SPD scale; the diagonal graph requires xi > 0 and a positive diagonal
    (off-diagonal scale entries carry no information and are zeroed).
    """

    graph: Graph
    xi: float
    Lambda: np.ndarray

    def __post_init__(self):
        Lam = np.atleast_2d(np.asarray(self.Lambda, dtype=float))
        d = Lam.shape[0]
        if Lam.shape != (d, d):
            raise InvalidHyperparameter(f"scale must be square, got {Lam.shape}")
        if self.graph is Graph.FULL:
            if not (self.xi > 2 * d - 2):
                raise InvalidShape(
                    f"full graph requires xi > 2d-2 = {2 * d - 2}, got {self.xi}"
                )
            Lam = 0.5 * (Lam + Lam.T)
            if not matops.is_spd(Lam):
                raise NonSPDScale("scale matrix is not SPD")
        else:
            if not (self.xi > 0):
                raise InvalidShape(f"diag graph requires xi > 0, got {self.xi}")
            diag = np.diag(Lam).copy()
            if np.any(diag <= 0):
                raise NonSPDScale("diag-graph scale needs a positive diagonal")
            Lam = np.diag(diag)
        Lam.flags.writeable = False
        object.__setattr__(self, "Lambda", Lam)
        object.__setattr__(self, "xi", float(self.xi))

    @property
    def dim(self) -> int:
        return self.Lambda.shape[0]


@dataclass(frozen=True)
class NaturalIGW:
    """Inverse G-Wishart in natural form for sufficient statistic
    (log|X|, vech(X^{-1})): eta1 = -(xi+2)/2, eta2 = -D_d^T vec(Lambda)/2.

    Instances always describe proper densities: eta1 < -1 and the implied
    scale -2 vec^{-1}(D^{+T} eta2) positive (SPD for the full graph, positive
    diagonal for diag). Raw message vectors that may transiently violate this
    are handled as plain arrays elsewhere.
    """

    graph: Graph
    eta1: float
    eta2: np.ndarray
    dim: int

    def __post_init__(self):
        eta2 = np.asarray(self.eta2, dtype=float).copy()
        if eta2.size != matops.vech_len(self.dim):
            raise InvalidShape(
                f"eta2 must have length {matops.vech_len(self.dim)}, got {eta2.size}"
            )
        if not (self.eta1 < -1.0):
            raise ImproperMessage(f"eta1 must be < -1, got {self.eta1}")
        if self.graph is Graph.DIAG:
            eta2 = matops.zero_offdiag_vech(eta2)
        Lam = implied_scale(eta2, self.dim)
        if self.graph is Graph.FULL:
            if not matops.is_spd(Lam):
                raise NonSPDScale("implied scale is not SPD")
        else:
            if np.any(np.diag(Lam) <= 0):
                raise NonSPDScale("implied diag-graph scale has a non-positive entry")
        eta2.flags.writeable = False
        object.__setattr__(self, "eta2", eta2)
        object.__setattr__(self, "eta1", float(self.eta1))

    @classmethod
    def from_vector(cls, graph: Graph, eta: np.ndarray) -> "NaturalIGW":
        """Split a stacked (eta1, eta2) wire vector into a validated instance."""
        eta = np.asarray(eta, dtype=float)
        d = matops.dim_from_vech_len(eta.size - 1)
        return cls(graph, float(eta[0]), eta[1:], d)

    def to_vector(self) -> np.ndarray:
        return np.concatenate(([self.eta1], self.eta2))


def implied_scale(eta2: np.ndarray, d: int) -> np.ndarray:
    """The scale matrix Lambda = -2 vec^{-1}(D^{+T} eta2) encoded by eta2."""
    M = matops.unfold_vech(eta2)
    if M.shape != (d, d):
        raise DimensionMismatch(f"eta2 of length {np.size(eta2)} does not encode a {d} x {d} scale")
    return -2.0 * M


def igw_to_natural(p: CommonIGW) -> NaturalIGW:
    """Map (graph, xi, Lambda) to natural parameters."""
    d = p.dim
    eta1 = -(p.xi + 2.0) / 2.0
    eta2 = -0.5 * matops.fold_vech(p.Lambda)
    return NaturalIGW(p.graph, eta1, eta2, d)


def igw_from_natural(n: NaturalIGW) -> CommonIGW:
    """Inverse of the natural parameter mapping."""
    xi = -2.0 * n.eta1 - 2.0
    Lam = implied_scale(n.eta2, n.dim)
    return CommonIGW(n.graph, xi, Lam)


def combined_mean_inverse(eta: np.ndarray, graph: Graph) -> np.ndarray:
    """E(X^{-1}) = {eta1 + omega} {vec^{-1}(D^{+T} eta2)}^{-1} for a stacked
    (eta1, eta2) vector, with omega = (d+1)/2 for the full graph and 1 for
    diag; the closed forms are (xi - d + 1) Lambda^{-1} (full) and
    xi diag(1/Lambda_jj) (diag).

    The formula is applied to the raw vector, which need not itself be a
    proper density (a combined node message can have eta1 between -d and -1
    for the full graph). Raises ImproperMessage when the vector does not
    give a finite, positive definite mean inverse.
    """
    eta = np.asarray(eta, dtype=float)
    d = matops.dim_from_vech_len(eta.size - 1)
    w = omega(graph, d)
    if not (eta[0] < -1.0):
        raise ImproperMessage(f"combined eta1 must be < -1, got {eta[0]}")
    if not (eta[0] + w < 0.0):
        raise ImproperMessage(
            f"mean inverse undefined: eta1 + omega = {eta[0] + w} is not negative"
        )
    try:
        E = (eta[0] + w) * np.linalg.inv(matops.unfold_vech(eta[1:]))
    except np.linalg.LinAlgError as e:
        raise ImproperMessage(f"combined message has a singular scale: {e}") from e
    E = 0.5 * (E + E.T)
    if graph is Graph.FULL:
        if not matops.is_spd(E):
            raise ImproperMessage("combined message implies a non-SPD mean inverse")
    elif np.any(np.diag(E) <= 0.0):
        raise ImproperMessage("combined message implies a non-positive mean inverse")
    return E


def igw_mean_inverse(n: NaturalIGW) -> np.ndarray:
    """E(X^{-1}) from natural parameters; see ``combined_mean_inverse``."""
    return combined_mean_inverse(n.to_vector(), n.graph)


@functools.lru_cache(maxsize=None)
def _bartlett_index(d: int):
    """(rows, cols) of the strict lower triangle and the diagonal index of a
    d x d matrix, built once per d and read-only."""
    ir, ic = np.tril_indices(d, -1)
    diag = np.arange(d)
    for a in (ir, ic, diag):
        a.flags.writeable = False
    return ir, ic, diag


def igw_sample(p: CommonIGW, rng, size: int | None = None) -> np.ndarray:
    """Draw from the Inverse G-Wishart distribution.

    Full graph: with R R^T = Lambda and A the lower-triangular Bartlett
    factor of a Wishart(nu, I) draw, nu = xi - d + 1 (the xi > 2d - 2 bound
    makes nu > d - 1 a valid Wishart shape), X = (R A^{-T})(R A^{-T})^T.
    This is the inverse of the Wishart(nu, Lambda^{-1}) draw R^{-T} A A^T
    R^{-1}, so no inverse is formed. Diag graph: independent
    Inverse-chi^2(xi, Lambda_jj) diagonal entries.
    """
    n = 1 if size is None else int(size)
    d = p.dim
    ir, ic, diag = _bartlett_index(d)
    if p.graph is Graph.FULL:
        A = np.zeros((n, d, d))
        A[:, ir, ic] = rng.standard_normal((n, ir.size))
        A[:, diag, diag] = np.sqrt(rng.chisquare(p.xi - d + 1.0 - diag, (n, d)))
        # X^T X with X = A^{-1} R^T is (R A^{-T})(R A^{-T})^T
        X = np.linalg.solve(A, np.linalg.cholesky(p.Lambda).T)
        out = np.swapaxes(X, -1, -2) @ X
        out = 0.5 * (out + np.swapaxes(out, -1, -2))
    else:
        lam = np.diag(p.Lambda)
        out = np.zeros((n, d, d))
        out[:, diag, diag] = lam[None, :] / rng.chisquare(p.xi, (n, d))
    return out[0] if size is None else out


# ---------------------------------------------------------------------------
# Inverse Chi-Squared (shape delta, rate lambda)
# ---------------------------------------------------------------------------


def inv_chisq_log_density(delta, lam, x):
    """log of (lam/2)^{delta/2}/Gamma(delta/2) x^{-(delta+2)/2} e^{-(lam/2)/x}.

    All three arguments broadcast.
    """
    delta = np.asarray(delta, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if np.any(delta <= 0) or np.any(lam <= 0):
        raise DomainError("inverse-chi^2 needs delta > 0 and lambda > 0")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("inverse-chi^2 support is x > 0")
    out = (
        0.5 * delta * np.log(lam / 2.0)
        - gammaln(delta / 2.0)
        - 0.5 * (delta + 2.0) * np.log(x)
        - 0.5 * lam / x
    )
    return float(out) if out.ndim == 0 else out


def inv_chisq_sample(delta: float, lam: float, rng, size=None):
    """Draws via x = lam / chi2(delta)."""
    return lam / rng.chisquare(delta, size)


def inv_chisq_mean_inverse(delta, lam):
    """E(1/x) = delta/lambda (1/x is Gamma(delta/2, rate lambda/2)); broadcasts."""
    return delta / lam


def inv_chisq_mean_log(delta, lam):
    """E(log x) = log(lambda/2) - digamma(delta/2); broadcasts."""
    out = np.log(lam / 2.0) - digamma(delta / 2.0)
    return float(out) if np.ndim(out) == 0 else out


def inv_chisq_sqrt_mean(delta: float, lam: float) -> float:
    """E(sqrt(x)) = sqrt(lambda/2) Gamma((delta-1)/2) / Gamma(delta/2); needs delta > 1."""
    if delta <= 1:
        raise DomainError("E(sigma) needs delta > 1")
    return float(
        np.exp(0.5 * np.log(lam / 2.0) + gammaln((delta - 1.0) / 2.0) - gammaln(delta / 2.0))
    )


def inv_chisq_sqrt_sd(delta: float, lam: float) -> float:
    """sd(sqrt(x)) from E(x) = lambda/(delta-2) and E(sqrt(x)); needs delta > 2."""
    if delta <= 2:
        raise DomainError("sd(sigma) needs delta > 2")
    second = lam / (delta - 2.0)
    return float(np.sqrt(max(second - inv_chisq_sqrt_mean(delta, lam) ** 2, 0.0)))


# ---------------------------------------------------------------------------
# Moon Rock
# ---------------------------------------------------------------------------

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
_GRID_SIZE = 2048  # nodes of the trapezoid grid in s = log t
_GRID_LOG_DROP = 32.0  # the grid ends where the integrand is e^-32 ~ 1e-14 of its peak
_GRID_PROBE_STEPS = np.arange(-64.0, 65.0)
_GRID_PROBE_STEPS.flags.writeable = False


def _xlogx_minus_lgamma(t: np.ndarray) -> np.ndarray:
    """t log t - lgamma(t), switching to a Stirling form for large t.

    The direct difference cancels catastrophically once both terms are large;
    the series t + log(t)/2 - log(2 pi)/2 - 1/(12t) + 1/(360 t^3) - 1/(1260 t^5)
    has truncation error below 1e-13 for t > 30.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    small = t <= 30.0
    ts = t[small]
    out[small] = ts * np.log(ts) - gammaln(ts)
    tl = t[~small]
    r = 1.0 / tl
    out[~small] = (
        tl
        + 0.5 * np.log(tl)
        - _HALF_LOG_2PI
        - r * (1.0 / 12.0 - r * r * (1.0 / 360.0 - r * r / 1260.0))
    )
    return out


def _moonrock_log_integrand(s: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    # log of {t^t / Gamma(t)}^alpha e^{-beta t} * t after t = e^s
    # (the trailing +s is the Jacobian of the substitution)
    t = np.exp(s)
    out = -beta * t + s
    if alpha != 0.0:
        out = out + alpha * _xlogx_minus_lgamma(t)
    return out


def _moonrock_center(alpha: float, beta: float) -> float:
    """Location (in s = log t) of the density's mode in t, where the search
    for the grid's range starts; for alpha = 0 the peak of the log integrand
    -beta t + s.

    For alpha > 0 the mode solves log t - psi(t) = r with r = beta/alpha - 1,
    which ``MoonRockParams`` keeps positive. This is the equation of the
    Gamma-shape MLE, solved as in Minka (2002), "Estimating a Gamma
    distribution": the closed-form start (3 - r + sqrt((r - 3)^2 + 24 r))/(12 r)
    and three Newton steps in s, which leave it at rounding level for
    r >= 1e-3 (below that, log t - psi(t) itself cancels).
    """
    if alpha == 0.0:
        return float(np.log(1.0 / beta))
    r = beta / alpha - 1.0
    s = math.log((3.0 - r + math.sqrt((r - 3.0) ** 2 + 24.0 * r)) / (12.0 * r))
    for _ in range(3):
        t = math.exp(s)
        s -= (s - digamma(t) - r) / (1.0 - t * zeta(2.0, t))
    return float(s)


def _moonrock_curvature(alpha: float, beta: float, s: float) -> float:
    """-d^2/ds^2 of the log integrand at s, in closed form with t = e^s:
    t (beta - alpha (log t + 1 - psi(t))) + alpha t (t psi'(t) - 1).

    At the mode of an alpha > 0 member the first term vanishes, leaving
    alpha t^2 (psi'(t) - 1/t); for alpha = 0 it is beta t.
    """
    t = math.exp(s)
    curv = t * (beta - alpha * (math.log(t) + 1.0 - digamma(t)))
    if alpha != 0.0:
        curv += alpha * t * (t * zeta(2.0, t) - 1.0)
    return float(curv)


def _moonrock_grid_range(alpha: float, beta: float):
    """(lo, hi) in s = log t that the grid spans.

    Probes the log integrand at the mode plus and minus 1..64 steps, in one
    call, with the step 1/sqrt(curvature at the mode) capped at 1. Each end
    is the first probe beyond the highest one whose log integrand lies
    _GRID_LOG_DROP below it, which leaves a negligible tail. A side that
    never falls that far raises DivergentIntegral.
    """
    center = _moonrock_center(alpha, beta)
    curv = _moonrock_curvature(alpha, beta, center)
    step = 1.0 / math.sqrt(curv) if curv > 1.0 else 1.0
    s = center + step * _GRID_PROBE_STEPS
    g = _moonrock_log_integrand(s, alpha, beta)
    top = int(np.argmax(g))
    below = g < g[top] - _GRID_LOG_DROP
    left = np.flatnonzero(below[:top])
    right = np.flatnonzero(below[top:])
    if left.size == 0 or right.size == 0:
        raise DivergentIntegral(
            f"Moon Rock({alpha}, {beta}) integrand does not decay within "
            f"{_GRID_PROBE_STEPS[-1]:.0f} steps of its mode"
        )
    return float(s[left[-1]]), float(s[top + right[0]])


class _MoonRockGrid:
    """Trapezoid rule for one (alpha, beta) pair on a uniform grid in s = log t
    over ``_moonrock_grid_range``.

    The integrand is smooth and negligible at both ends, where the rule
    converges exponentially, so one grid serves every Moon Rock quantity:
    ``cdf`` (the accumulated rule, normalized) for sampling and quantiles,
    and ``moments`` (log normalizer, mean, variance), computed from the
    same nodes on first use.
    """

    def __init__(self, alpha: float, beta: float):
        self.s = np.linspace(*_moonrock_grid_range(alpha, beta), _GRID_SIZE)
        logf = _moonrock_log_integrand(self.s, alpha, beta)
        self._ref = np.max(logf)
        self._f = np.exp(logf - self._ref)
        # the spacing is uniform, so the trapezoid weight cancels in the normalization
        cdf = np.concatenate(([0.0], np.cumsum(self._f[1:] + self._f[:-1])))
        self.cdf = cdf / cdf[-1]

    @functools.cached_property
    def moments(self) -> tuple[float, float, float]:
        """(log normalizer, mean, variance) of the density in t."""
        w = self._f.copy()
        w[[0, -1]] *= 0.5
        mass = float(np.sum(w))
        t = np.exp(self.s)
        mean = float(w @ t) / mass
        variance = float(w @ (t - mean) ** 2) / mass
        spacing = (self.s[-1] - self.s[0]) / (self.s.size - 1)
        return float(self._ref + np.log(mass * spacing)), mean, variance


@dataclass(frozen=True)
class MoonRockParams:
    """Parameters of p(x) proportional to {x^x/Gamma(x)}^alpha e^{-beta x}.

    Requires alpha >= 0 and beta > 0. Asymptotically the kernel behaves like
    e^{(alpha-beta)t} t^{alpha/2}, so the normalizing integral is finite
    exactly when beta > alpha; construction raises DivergentIntegral
    otherwise. One trapezoid grid serves sampling, quantiles, the
    normalizer and the moments. It is built on first use and cached, and
    the moments are computed from it only when first asked for.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha < 0:
            raise InvalidHyperparameter(f"alpha must be >= 0, got {self.alpha}")
        if self.beta <= 0:
            raise InvalidHyperparameter(f"beta must be > 0, got {self.beta}")
        if self.alpha > 0 and not self.beta > self.alpha:
            raise DivergentIntegral(
                f"Moon Rock({self.alpha}, {self.beta}) needs beta > alpha; "
                "the integral diverges"
            )
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))

    @functools.cached_property
    def _grid(self) -> "_MoonRockGrid":
        return _MoonRockGrid(self.alpha, self.beta)

    @classmethod
    def from_vector(cls, eta: np.ndarray) -> "MoonRockParams":
        """Natural vector (alpha, -beta) to parameters."""
        eta = np.asarray(eta, dtype=float)
        return cls(float(eta[0]), -float(eta[1]))

    def to_vector(self) -> np.ndarray:
        return np.array([self.alpha, -self.beta])


def moonrock_log_normalizer(p: MoonRockParams) -> float:
    return p._grid.moments[0]


def moonrock_mean(p: MoonRockParams) -> float:
    return p._grid.moments[1]


def moonrock_variance(p: MoonRockParams) -> float:
    return p._grid.moments[2]


def moonrock_log_density(p: MoonRockParams, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("Moon Rock support is x > 0")
    out = -p.beta * x - moonrock_log_normalizer(p)
    if p.alpha != 0.0:
        out = out + p.alpha * _xlogx_minus_lgamma(x)
    return float(out) if out.ndim == 0 else out


def moonrock_sample(p: MoonRockParams, rng, size=None):
    """Inverse-CDF draws: the grid's trapezoid CDF inverted by linear
    interpolation in s."""
    g = p._grid
    out = np.exp(np.interp(rng.uniform(size=size), g.cdf, g.s))
    return float(out) if size is None else out


def moonrock_quantile(p: MoonRockParams, prob):
    """Approximate quantile(s) from the same interpolated CDF the sampler uses."""
    prob = np.asarray(prob, dtype=float)
    if np.any(prob < 0) or np.any(prob > 1):
        raise DomainError("quantile probabilities must lie in [0, 1]")
    g = p._grid
    out = np.exp(np.interp(prob, g.cdf, g.s))
    return float(out) if prob.ndim == 0 else out
