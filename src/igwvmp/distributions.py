"""Distribution families used by the message passing engine.

Covers the Inverse G-Wishart family (full and diagonal graphs) in both its
common (shape, scale) and natural parameterizations, the Inverse Chi-Squared
building block, and the Moon Rock family, whose sampler, quantiles,
normalizer and moments all come from one trapezoid grid in s = log t; the
Gibbs sampler's slice update of a Moon Rock draw needs no grid.

Density evaluations return log values throughout; probability-scale numbers
are only ever formed at the final reporting stage.
"""

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import matops
from .errors import (
    DimensionMismatch,
    DivergentIntegral,
    DomainError,
    ImproperMessage,
    InvalidHyperparameter,
    InvalidShape,
    NonSPDScale,
    NumericalFailure,
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
    "moonrock_slice_update",
]


class Graph(str, enum.Enum):
    """Graph of an Inverse G-Wishart distribution; only these two exist."""

    FULL = "full"
    DIAG = "diag"


def omega(graph: Graph, d: int) -> float:
    """The moment-formula constant: (d+1)/2 for the full graph, 1 for diag."""
    return (d + 1) / 2 if graph is Graph.FULL else 1.0


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_STIRLING_MIN = 8.0  # the asymptotic series below are summed at arguments >= 8


def _stirling_series(y):
    """lgamma(y) - ((y - 1/2) log y - y + log(2 pi)/2) for y >= 8, floats or
    arrays: 1/(12y) - 1/(360y^3) + 1/(1260y^5) - 1/(1680y^7) + 1/(1188y^9)
    - 691/(360360y^11), whose truncation error is below 2e-14 at y = 8.
    Horner's rule in 1/y^2; on arrays the in-place steps save about 5% of
    a Moon Rock grid's build."""
    r = 1.0 / y
    r2 = r * r
    acc = r2 * (-691.0 / 360360.0)
    acc += 1.0 / 1188.0
    acc *= r2
    acc -= 1.0 / 1680.0
    acc *= r2
    acc += 1.0 / 1260.0
    acc *= r2
    acc -= 1.0 / 360.0
    acc *= r2
    acc += 1.0 / 12.0
    acc *= r
    return acc


def _stirling_lgamma(y):
    """lgamma of an array of y >= 8 by Stirling's series."""
    return (y - 0.5) * np.log(y) - y + _HALF_LOG_2PI + _stirling_series(y)


def _lgamma_below_8(t: np.ndarray) -> np.ndarray:
    """lgamma of an array of 0 < t < 8, as lgamma(t + 8) - log(t (t+1) ...
    (t+7)); the product is u (u+6) (u+10) (u+12) with u = t (t+7)."""
    u = t * (t + 7.0)
    return _stirling_lgamma(t + _STIRLING_MIN) - np.log(u * (u + 6.0) * (u + 10.0) * (u + 12.0))


def _digamma_trigamma(x: float) -> tuple[float, float]:
    """(psi(x), psi'(x)) for a float x > 0.

    The recurrences psi(x) = psi(x+1) - 1/x and psi'(x) = psi'(x+1) + 1/x^2
    step x up to 8 or more, where the asymptotic series (Bernardo 1976,
    "Algorithm AS 103") are summed to their x^-16 and x^-17 terms. Any
    other x raises DomainError.
    """
    if not x > 0.0:
        raise DomainError(f"digamma and trigamma need x > 0, got {x}")
    psi = psi1 = 0.0
    while x < _STIRLING_MIN:
        r = 1.0 / x
        psi -= r
        psi1 += r * r
        x += 1.0
    r = 1.0 / x
    r2 = r * r
    # Bernoulli numbers B_2 .. B_16 over 2k for psi, B_2 .. B_16 for psi'
    psi += math.log(x) - 0.5 * r - r2 * (
        1.0 / 12.0 - r2 * (1.0 / 120.0 - r2 * (1.0 / 252.0 - r2 * (1.0 / 240.0 - r2 * (
            1.0 / 132.0 - r2 * (691.0 / 32760.0 - r2 * (1.0 / 12.0 - r2 * (3617.0 / 8160.0))))))))
    psi1 += r + r2 * (0.5 + r * (
        1.0 / 6.0 - r2 * (1.0 / 30.0 - r2 * (1.0 / 42.0 - r2 * (1.0 / 30.0 - r2 * (
            5.0 / 66.0 - r2 * (691.0 / 2730.0 - r2 * (7.0 / 6.0 - r2 * (3617.0 / 510.0)))))))))
    return psi, psi1


def _stirling_xlogx_minus_lgamma(t, log_t):
    """t log t - lgamma(t) for t >= 8, from t and log t (floats or arrays):
    t + log(t)/2 - log(2 pi)/2 - ``_stirling_series``(t), which avoids the
    cancellation of the direct difference."""
    return t + 0.5 * log_t - _HALF_LOG_2PI - _stirling_series(t)


def _xlogx_minus_lgamma(t: np.ndarray, log_t: np.ndarray) -> np.ndarray:
    """t log t - lgamma(t) of an array of t > 0, from t and log t."""
    out = np.empty_like(t)
    small = t < _STIRLING_MIN
    ts = t[small]
    out[small] = ts * log_t[small] - _lgamma_below_8(ts)
    large = ~small
    out[large] = _stirling_xlogx_minus_lgamma(t[large], log_t[large])
    return out


# ---------------------------------------------------------------------------
# Inverse G-Wishart
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommonIGW:
    """Inverse G-Wishart in (graph, shape, scale) form.

    p(X) is proportional to |X|^{-(xi+2)/2} exp(-tr(Lambda X^{-1})/2) on the
    support determined by the graph. The full graph requires a finite
    xi > 2d - 2 and an SPD scale; the diagonal graph requires a finite xi > 0
    and a positive, finite diagonal (off-diagonal scale entries carry no
    information and are zeroed).
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
            if not (2 * d - 2 < self.xi < np.inf):
                raise InvalidShape(
                    f"full graph requires a finite xi > 2d-2 = {2 * d - 2}, got {self.xi}"
                )
            Lam = 0.5 * (Lam + Lam.T)
            if not matops.is_spd(Lam):
                raise NonSPDScale("scale matrix is not SPD")
        else:
            if not (0 < self.xi < np.inf):
                raise InvalidShape(f"diag graph requires a finite xi > 0, got {self.xi}")
            diag = np.diag(Lam).copy()
            if not np.all((diag > 0) & np.isfinite(diag)):
                raise NonSPDScale("diag-graph scale needs a positive, finite diagonal")
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
    for the full graph). The diag graph reads only the diagonal entries of
    eta2. Raises ImproperMessage when the vector does not give a finite,
    positive definite mean inverse (``matops.is_spd``'s rule for the full
    graph, a positive diagonal for diag).

    For d <= 2, the variance nodes of the mixed model, the formula is taken
    in closed form on Python floats: the diag graph's diagonal entry by
    entry, and the full graph's 2 x 2 inverse from the Cholesky factor of
    -vec^{-1}(D^{+T} eta2), which a positive definite mean inverse needs.
    Larger d takes ``np.linalg.inv`` and ``matops.is_spd``.
    """
    eta = np.asarray(eta, dtype=float)
    d = matops.dim_from_vech_len(eta.size - 1)
    w = omega(graph, d)
    eta1 = float(eta[0])
    if not (eta1 < -1.0):
        raise ImproperMessage(f"combined eta1 must be < -1, got {eta1}")
    if not (eta1 + w < 0.0):
        raise ImproperMessage(
            f"mean inverse undefined: eta1 + omega = {eta1 + w} is not negative"
        )
    if d <= 2:
        return _small_mean_inverse(eta1 + w, eta[1:].tolist(), graph)
    M = matops.unfold_vech(eta[1:])
    if graph is Graph.DIAG:
        M = np.diag(np.diag(M))
    try:
        E = (eta1 + w) * np.linalg.inv(M)
    except np.linalg.LinAlgError as e:
        raise ImproperMessage(f"combined message has a singular scale: {e}") from e
    E = 0.5 * (E + E.T)
    if graph is Graph.FULL:
        if not matops.is_spd(E):
            raise ImproperMessage("combined message implies a non-SPD mean inverse")
    elif np.any(np.diag(E) <= 0.0):
        raise ImproperMessage("combined message implies a non-positive mean inverse")
    return E


def _small_mean_inverse(factor: float, eta2: list, graph: Graph) -> np.ndarray:
    """``combined_mean_inverse`` for d <= 2: factor {vec^{-1}(D^{+T} eta2)}^{-1}
    with factor = eta1 + omega < 0 and eta2 the vech as Python floats.

    A diagonal entry is inverted as factor (1 / x), as LAPACK inverts a 1 x 1
    or a diagonal matrix, so those results are bitwise the generic ones; for
    a 1 x 1 result, 0 < e < inf is ``matops._is_spd``'s rule. Every division
    is by a checked nonzero entry or a pivot that ``matops._cholesky`` found
    positive, and overflow gives an infinity that the final check rejects.
    """
    if graph is Graph.FULL and len(eta2) == 3:
        # -vec^{-1}(D^{+T} eta2) is SPD exactly when the mean inverse is
        try:
            L = matops._cholesky((-eta2[0], -0.5 * eta2[1], -eta2[2]), "the combined scale")
        except NumericalFailure:
            raise ImproperMessage("combined message implies a non-SPD mean inverse") from None
        E = tuple(-factor * x for x in matops._inverse_gram(L))
        if not matops._is_spd(E):
            raise ImproperMessage("combined message implies a non-SPD mean inverse")
        return matops._vech_matrix(E)
    diagonal = eta2[::2]
    if 0.0 in diagonal:
        raise ImproperMessage("combined message has a singular scale")
    E = [factor * (1.0 / x) for x in diagonal]
    if not all(0.0 < e < math.inf for e in E):
        raise ImproperMessage("combined message implies a non-positive mean inverse")
    return matops._vech_matrix(E if len(E) == 1 else (E[0], 0.0, E[1]))


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


def _scalar_shape(delta) -> float:
    """The inverse-chi^2 shape as a float; an array raises DimensionMismatch."""
    if np.ndim(delta) != 0:
        raise DimensionMismatch(
            f"the inverse-chi^2 shape delta must be a scalar, got shape {np.shape(delta)}"
        )
    return float(delta)


def inv_chisq_log_density(delta, lam, x):
    """log of (lam/2)^{delta/2}/Gamma(delta/2) x^{-(delta+2)/2} e^{-(lam/2)/x}.

    ``delta`` is a scalar (DimensionMismatch otherwise); ``lam`` and ``x``
    broadcast.
    """
    delta = _scalar_shape(delta)
    lam = np.asarray(lam, dtype=float)
    if delta <= 0 or np.any(lam <= 0):
        raise DomainError("inverse-chi^2 needs delta > 0 and lambda > 0")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("inverse-chi^2 support is x > 0")
    out = (
        0.5 * delta * np.log(lam / 2.0)
        - math.lgamma(delta / 2.0)
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
    """E(log x) = log(lambda/2) - digamma(delta/2) for a scalar ``delta``
    (DimensionMismatch otherwise); ``lam`` broadcasts."""
    out = np.log(lam / 2.0) - _digamma_trigamma(_scalar_shape(delta) / 2.0)[0]
    return float(out) if np.ndim(out) == 0 else out


def inv_chisq_sqrt_mean(delta: float, lam: float) -> float:
    """E(sqrt(x)) = sqrt(lambda/2) Gamma((delta-1)/2) / Gamma(delta/2); needs delta > 1."""
    if delta <= 1:
        raise DivergentIntegral("E(sigma) needs delta > 1")
    return math.exp(
        0.5 * math.log(lam / 2.0) + math.lgamma((delta - 1.0) / 2.0) - math.lgamma(delta / 2.0)
    )


def inv_chisq_sqrt_sd(delta: float, lam: float) -> float:
    """sd(sqrt(x)) from E(x) = lambda/(delta-2) and E(sqrt(x)); needs delta > 2."""
    if delta <= 2:
        raise DivergentIntegral("sd(sigma) needs delta > 2")
    second = lam / (delta - 2.0)
    return float(np.sqrt(max(second - inv_chisq_sqrt_mean(delta, lam) ** 2, 0.0)))


# ---------------------------------------------------------------------------
# Moon Rock
# ---------------------------------------------------------------------------

_GRID_SIZE = 2048  # nodes of the trapezoid grid in s = log t
_GRID_LOG_DROP = 32.0  # the grid ends where the integrand is e^-32 ~ 1e-14 of its peak
_MAX_STEPS = 64  # steps of the grid's probe on each side; Neal's m for the slice
_SLICE_S_LIMIT = 700.0  # beyond |s| = 700, e^s over- or underflows


def _moonrock_log_integrand(s: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    # log of {t^t / Gamma(t)}^alpha e^{-beta t} * t after t = e^s
    # (the trailing +s is the Jacobian of the substitution)
    t = np.exp(s)
    out = -beta * t + s
    if alpha != 0.0:
        out = out + alpha * _xlogx_minus_lgamma(t, s)
    return out


def _moonrock_log_integrand_at(s: float, alpha: float, beta: float) -> float:
    """``_moonrock_log_integrand`` at one point, in ``math`` scalars; -inf
    where |s| > _SLICE_S_LIMIT, so that e^s stays finite and positive."""
    if not -_SLICE_S_LIMIT <= s <= _SLICE_S_LIMIT:
        return -math.inf
    t = math.exp(s)
    out = -beta * t + s
    if alpha != 0.0:
        if t < _STIRLING_MIN:
            out += alpha * (t * s - math.lgamma(t))
        else:
            out += alpha * _stirling_xlogx_minus_lgamma(t, s)
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
    r >= 1e-3 (below that, log t - psi(t) itself cancels). For r > 3 the
    start is taken in its rationalized form 2/(hypot(r - 3, sqrt(24 r)) +
    r - 3), whose numerator would otherwise cancel to 0 once r reaches
    about 1e17.
    """
    if alpha == 0.0:
        return math.log(1.0 / beta)
    r = beta / alpha - 1.0
    if r > 3.0:
        start = 2.0 / (math.hypot(r - 3.0, math.sqrt(24.0 * r)) + r - 3.0)
    else:
        start = (3.0 - r + math.sqrt((r - 3.0) ** 2 + 24.0 * r)) / (12.0 * r)
    s = math.log(start)
    for _ in range(3):
        t = math.exp(s)
        psi, psi1 = _digamma_trigamma(t)
        s -= (s - psi - r) / (1.0 - t * psi1)
    return float(s)


def _moonrock_curvature(alpha: float, beta: float, s: float) -> float:
    """-d^2/ds^2 of the log integrand at s, in closed form with t = e^s:
    t (beta - alpha (log t + 1 - psi(t))) + alpha t (t psi'(t) - 1).

    At the mode of an alpha > 0 member the first term vanishes, leaving
    alpha t^2 (psi'(t) - 1/t); for alpha = 0 it is beta t.
    """
    t = math.exp(s)
    psi, psi1 = _digamma_trigamma(t)
    curv = t * (beta - alpha * (math.log(t) + 1.0 - psi))
    if alpha != 0.0:
        curv += alpha * t * (t * psi1 - 1.0)
    return float(curv)


def _moonrock_step(alpha: float, beta: float) -> tuple[float, float]:
    """(mode in s, step): the step is 1/sqrt(curvature at the mode), capped
    at 1. It sets the grid's probes and the slice sampler's width."""
    center = _moonrock_center(alpha, beta)
    curv = _moonrock_curvature(alpha, beta, center)
    return center, 1.0 / math.sqrt(curv) if curv > 1.0 else 1.0


def _moonrock_grid_range(alpha: float, beta: float):
    """(lo, hi) in s = log t that the grid spans.

    Probes the log integrand at the mode plus and minus whole steps, at most
    _MAX_STEPS of them, with the step 1/sqrt(curvature at the mode) capped
    at 1. The probes climb to the highest one; each end is then the first
    probe beyond it whose log integrand lies _GRID_LOG_DROP below it, which
    leaves a negligible tail. The log integrand is concave in s, so these
    are the probes a scan of every step would pick. A side that never falls
    that far raises DivergentIntegral.
    """
    center, step = _moonrock_step(alpha, beta)

    def log_f(k):
        return _moonrock_log_integrand_at(center + step * k, alpha, beta)

    top, top_log_f = 0, log_f(0)
    for direction in (1, -1):
        while abs(top + direction) <= _MAX_STEPS:
            next_log_f = log_f(top + direction)
            if not next_log_f > top_log_f:
                break
            top, top_log_f = top + direction, next_log_f
    ends = []
    for direction in (-1, 1):
        k = top + direction
        while abs(k) <= _MAX_STEPS and not log_f(k) < top_log_f - _GRID_LOG_DROP:
            k += direction
        if abs(k) > _MAX_STEPS:
            raise DivergentIntegral(
                f"Moon Rock({alpha}, {beta}) integrand does not decay within "
                f"{_MAX_STEPS} steps of its mode"
            )
        ends.append(center + step * k)
    return ends[0], ends[1]


class _MoonRockGrid:
    """Trapezoid rule for one (alpha, beta) pair on a uniform grid in s = log t
    over ``_moonrock_grid_range``.

    The integrand is smooth and negligible at both ends, where the rule
    converges exponentially, so one grid serves every Moon Rock quantity:
    ``cdf`` (the accumulated rule, normalized) for sampling and quantiles,
    and ``moments`` (log normalizer, mean, variance). Each is computed from
    the same nodes on first use; a VMP sweep reads only the mean.
    """

    def __init__(self, alpha: float, beta: float):
        self.s = np.linspace(*_moonrock_grid_range(alpha, beta), _GRID_SIZE)
        logf = _moonrock_log_integrand(self.s, alpha, beta)
        self._ref = np.max(logf)
        self._f = np.exp(logf - self._ref)

    @functools.cached_property
    def cdf(self) -> np.ndarray:
        """The normalized trapezoid CDF at the nodes ``s``."""
        # the spacing is uniform, so the trapezoid weight cancels in the normalization
        cdf = np.concatenate(([0.0], np.cumsum(self._f[1:] + self._f[:-1])))
        return cdf / cdf[-1]

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
    its CDF and the moments are computed from it only when first asked for.
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
        """Natural vector (alpha, -beta) to parameters. A vector outside
        alpha >= 0, beta > 0 is an ImproperMessage: it comes from messages,
        not from a caller's hyperparameters."""
        alpha, beta = float(eta[0]), -float(eta[1])
        if not (alpha >= 0 and beta > 0):
            raise ImproperMessage(
                f"Moon Rock naturals ({alpha}, {-beta}) need alpha >= 0 and beta > 0"
            )
        return cls(alpha, beta)

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
        out = out + p.alpha * _xlogx_minus_lgamma(x, np.log(x))
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


def moonrock_slice_update(p: MoonRockParams, t: float, rng) -> float:
    """One slice-sampling update (Neal 2003, "Slice sampling") of a Moon Rock
    draw from the current value t, in s = log t; it leaves the density
    invariant and builds no grid.

    The slice is where log f, the log integrand in s, exceeds
    log f(s0) - Exp(1). An interval of the grid's step w (1/sqrt of the
    curvature at the mode, capped at 1) is placed at random around s0. Its
    ends step out by w while they lie in the slice, at most _MAX_STEPS - 1
    steps in all, split at random between the sides. It is then shrunk
    toward s0 until a uniform point in it lies in the slice. The width and
    the random split make the interval as likely from any point of the
    slice as from s0, which is what keeps the update exact; a width taken
    at s0 itself would not. A t of zero density raises DomainError.
    """
    alpha, beta = p.alpha, p.beta

    def log_f(s):
        return _moonrock_log_integrand_at(s, alpha, beta)

    s0 = math.log(t) if t > 0.0 else -math.inf
    log_f0 = log_f(s0)
    if not math.isfinite(log_f0):
        raise DomainError(
            f"Moon Rock({alpha}, {beta}) has zero density at {t}; no slice update from it"
        )
    level = log_f0 - rng.standard_exponential()
    width = _moonrock_step(alpha, beta)[1]
    # lo <= s0 <= hi also after rounding, so shrinkage can always end at s0
    u = rng.random()
    lo = s0 - width * u
    hi = s0 + width * (1.0 - u)
    left = int(_MAX_STEPS * rng.random())
    right = _MAX_STEPS - 1 - left
    while left > 0 and log_f(lo) > level:
        lo -= width
        left -= 1
    while right > 0 and log_f(hi) > level:
        hi += width
        right -= 1
    while True:
        s1 = lo + (hi - lo) * rng.random()
        if log_f(s1) >= level:
            return math.exp(s1)
        if s1 < s0:
            lo = s1
        else:
            hi = s1
