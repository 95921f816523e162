"""Dense oracles for the vech maps, the block-form coefficient algebra and
the Inverse G-Wishart density, a LAPACK factor of the arrowhead, a
reference Gibbs chain, and the prior specifications known to be equivalent.

The program never calls vec or vech, and never forms the Moore-Penrose
inverse of a duplication matrix, the n x k design C or a k x k coefficient
precision; these helpers do, so that tests can check
``fold_vech``/``unfold_vech``, the index-form design, the arrowhead natural
vector and the block solver against plain dense linear algebra.
``igw_log_density`` is the exact density that the marginalization and
sampler tests integrate against.

``lapack_arrowhead_cholesky`` factors an arrowhead with ``np.linalg.cholesky``
and ``np.linalg.inv``, for any p and q; ``lapack_forward`` and
``lapack_backward`` solve with its factor. It is the reference for
``matops.arrowhead_cholesky``'s closed forms. ``reference_draw_random_cov``
and ``reference_draw_coefficients`` draw the covariance and the
coefficients with generic numpy and LAPACK calls: ``igw_sample`` on a
validated ``CommonIGW``, ``np.linalg.inv`` and the LAPACK arrowhead factor.
Put in place of ``mcmc.draw_random_cov`` and ``mcmc.draw_coefficients``,
they make ``gibbs_fit`` run the reference chain that the sampler's closed
forms must reproduce to rounding. ``reference_mean_inverse`` is the generic
numpy form of ``distributions.combined_mean_inverse``, the reference for
its closed forms at d <= 2.

``equivalent_specs`` lists, for a prior specification, the others known to
induce exactly the same prior, which ``prior_specs.plan_prior`` must plan
identically.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import multigammaln

from igwvmp import matops
from igwvmp.distributions import CommonIGW, Graph, igw_sample, inv_chisq_log_density
from igwvmp.errors import (
    DimensionMismatch,
    DomainError,
    InvalidHyperparameter,
    NonSPDPrecision,
    NumericalFailure,
)
from igwvmp.prior_specs import (
    HalfCauchySpec,
    HalfTSpec,
    HuangWandSpec,
    InverseChiSquaredSpec,
    InverseGammaSpec,
    InverseWishartSpec,
    MatrixFSpec,
)


def vec(M: np.ndarray) -> np.ndarray:
    """Column-major vectorization of a square matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"vec expects a square matrix, got shape {M.shape}")
    return M.ravel(order="F").copy()


def vech(M: np.ndarray) -> np.ndarray:
    """Half-vectorization: the lower triangle, diagonal included, column by
    column."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"vech expects a square matrix, got shape {M.shape}")
    # the row-major upper triangle of M^T is the column-major lower triangle of M
    return M.T[np.triu_indices(M.shape[0])]


def vec_inverse(a: np.ndarray, d: int) -> np.ndarray:
    """Inverse of vec: reshape a length-d^2 vector to a d x d matrix."""
    a = np.asarray(a, dtype=float)
    if a.size != d * d:
        raise DimensionMismatch(f"vec_inverse needs length {d * d}, got {a.size}")
    return a.reshape((d, d), order="F").copy()


def duplication_pinv(d: int) -> np.ndarray:
    """Moore-Penrose inverse (D_d^T D_d)^{-1} D_d^T of the duplication matrix.

    D^T D is diagonal (1 for diagonal entries, 2 for off-diagonal pairs), so
    the result is exact in floating point.
    """
    D = matops.duplication(d)
    return D.T / D.sum(axis=0)[:, None]


def igw_log_density(p: CommonIGW, X: np.ndarray) -> float:
    """Exact Inverse G-Wishart log density, normalizing constant included."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = p.dim
    if X.shape != (d, d):
        raise DomainError(f"X must be {d} x {d}, got {X.shape}")
    if p.graph is Graph.FULL:
        X = 0.5 * (X + X.T)
        if not matops.is_spd(X):
            raise DomainError("full-graph density needs SPD X")
        kappa = p.xi - d + 1.0
        _, logdet_L = np.linalg.slogdet(p.Lambda)
        _, logdet_X = np.linalg.slogdet(X)
        return float(
            0.5 * kappa * logdet_L
            - 0.5 * kappa * d * np.log(2.0)
            - multigammaln(kappa / 2.0, d)
            - 0.5 * (p.xi + 2.0) * logdet_X
            - 0.5 * np.trace(p.Lambda @ np.linalg.inv(X))
        )
    off = X - np.diag(np.diag(X))
    if np.max(np.abs(off)) > 1e-12 * max(np.max(np.abs(X)), 1e-300):
        raise DomainError("diag-graph density needs diagonal X")
    x = np.diag(X)
    if np.any(x <= 0):
        raise DomainError("diag-graph density needs positive diagonal entries")
    lam = np.diag(p.Lambda)
    return float(sum(inv_chisq_log_density(p.xi, lj, xj) for lj, xj in zip(lam, x)))


def dense_design(design) -> np.ndarray:
    """The n x k matrix C = [X Z] that an index-form design stands for."""
    n = design.group.size
    p, q, m = design.n_fixed, design.n_random, design.n_groups
    C = np.zeros((n, p + m * q))
    C[:, :p] = design.X
    rows = np.arange(n)
    for j in range(q):
        C[rows, p + design.group * q + j] = design.Z[:, j]
    return C


def is_spd_by_eigenvalues(M: np.ndarray) -> bool:
    """The SPD rule by eigenvalues: every eigenvalue of the symmetric part
    above 1e-12 times its largest diagonal entry."""
    S = 0.5 * (M + M.T)
    return bool(np.linalg.eigvalsh(S)[0] > 1e-12 * max(np.max(np.diag(S)), 0.0))


def reference_mean_inverse(eta: np.ndarray, graph: Graph) -> np.ndarray:
    """E(X^{-1}) = (eta1 + omega) {vec^{-1}(D^{+T} eta2)}^{-1} of a proper
    combined vector by ``np.linalg.inv``, symmetrized, with
    ``matops.is_spd`` (full graph) or a positive diagonal (diag) asserted."""
    d = matops.dim_from_vech_len(eta.size - 1)
    omega = (d + 1) / 2 if graph is Graph.FULL else 1.0
    E = (eta[0] + omega) * np.linalg.inv(vec_inverse(duplication_pinv(d).T @ eta[1:], d))
    E = 0.5 * (E + E.T)
    assert matops.is_spd(E) if graph is Graph.FULL else np.all(np.diag(E) > 0.0)
    return E


def blockdiag(blocks) -> np.ndarray:
    """Direct sum of matrices (rectangular blocks allowed).

    An empty list yields a 0 x 0 matrix.
    """
    mats = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    if not mats:
        return np.zeros((0, 0))
    rows = sum(b.shape[0] for b in mats)
    cols = sum(b.shape[1] for b in mats)
    out = np.zeros((rows, cols))
    r = c = 0
    for b in mats:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def dense_arrowhead(a: matops.Arrowhead) -> np.ndarray:
    """The symmetric k x k matrix with the given arrowhead blocks."""
    m, p, q = a.border.shape
    out = np.zeros((p + m * q, p + m * q))
    out[:p, :p] = a.corner
    for i in range(m):
        s = slice(p + i * q, p + (i + 1) * q)
        out[:p, s] = a.border[i]
        out[s, :p] = a.border[i].T
        out[s, s] = a.blocks[i]
    return out


# Gaussian natural parameters in the full vech form: for x ~ N(mu, Sigma),
# eta1 = Sigma^{-1} mu and eta2 = -D_k^T vec(Sigma^{-1})/2.


@dataclass(frozen=True)
class NaturalMVN:
    eta1: np.ndarray
    eta2: np.ndarray

    def __post_init__(self):
        k = np.size(self.eta1)
        if np.size(self.eta2) != matops.vech_len(k):
            raise NonSPDPrecision(
                f"eta2 must have length {matops.vech_len(k)}, got {np.size(self.eta2)}"
            )

    @classmethod
    def from_vector(cls, eta: np.ndarray, k: int) -> "NaturalMVN":
        eta = np.asarray(eta, dtype=float)
        return cls(eta[:k], eta[k:])

    def to_vector(self) -> np.ndarray:
        return np.concatenate((self.eta1, self.eta2))


def mvn_to_natural(mu: np.ndarray, Sigma: np.ndarray) -> NaturalMVN:
    mu = np.asarray(mu, dtype=float)
    Sigma = np.atleast_2d(np.asarray(Sigma, dtype=float))
    if not is_spd_by_eigenvalues(Sigma):
        raise NonSPDPrecision("covariance must be SPD")
    P = np.linalg.inv(Sigma)
    P = 0.5 * (P + P.T)
    return NaturalMVN(P @ mu, -0.5 * matops.fold_vech(P))


def mvn_from_natural(n: NaturalMVN):
    """(mu, Sigma) with Sigma = -{vec^{-1}(D^{+T} eta2)}^{-1}/2 and mu = Sigma eta1,
    under the eigenvalue form of ``matops.is_spd``'s rule."""
    P = -2.0 * matops.unfold_vech(n.eta2)
    if not is_spd_by_eigenvalues(P):
        raise NonSPDPrecision("natural vector implies a non-SPD precision")
    Sigma = np.linalg.inv(P)
    Sigma = 0.5 * (Sigma + Sigma.T)
    return Sigma @ n.eta1, Sigma


# ---------------------------------------------------------------------------
# the reference Gibbs chain
# ---------------------------------------------------------------------------


def reference_draw_random_cov(rng, xi, Lam):
    """``mcmc.draw_random_cov`` by ``igw_sample`` on a validated
    ``CommonIGW``, ``matops.is_spd`` and ``np.linalg.inv``."""
    Lam = 0.5 * (Lam + Lam.T)
    draw = igw_sample(CommonIGW(Graph.FULL, xi, Lam), rng)
    if not matops.is_spd(draw):
        raise NumericalFailure("covariance draw is not SPD")
    try:
        return draw, np.linalg.inv(draw)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("random-effects covariance draw is singular") from exc


class LapackArrowheadCholesky(NamedTuple):
    """The block factor of ``matops.ArrowheadCholesky`` as dense arrays:
    ``blocks`` the L_i (m x q x q) and ``blocks_inv`` their inverses,
    ``border`` the p x mq row [K_1 ... K_m], and ``corner``/``corner_inv``
    L_c and its inverse."""

    blocks: np.ndarray
    blocks_inv: np.ndarray
    border: np.ndarray
    corner: np.ndarray
    corner_inv: np.ndarray


def lapack_arrowhead_cholesky(a: matops.Arrowhead) -> LapackArrowheadCholesky:
    """Block Cholesky factor of an arrowhead matrix by ``np.linalg.cholesky``
    and ``np.linalg.inv``. Raises np.linalg.LinAlgError unless the matrix
    is positive definite with a finite factor."""
    m, p, q = a.border.shape
    L = np.linalg.cholesky(a.blocks)
    L_inv = np.linalg.inv(L)
    K = np.swapaxes(a.border @ np.swapaxes(L_inv, -1, -2), 0, 1).reshape(p, m * q)
    L_c = np.linalg.cholesky(a.corner - K @ K.T)
    if not np.isfinite(L.sum() + L_c.sum()):
        raise np.linalg.LinAlgError("arrowhead matrix is not finite")
    return LapackArrowheadCholesky(L, L_inv, K, L_c, np.linalg.inv(L_c))


def lapack_forward(L: LapackArrowheadCholesky, r: np.ndarray) -> np.ndarray:
    """L^{-1} r, with r and the result in corner-first order (corner
    entries, then group 1, ..., group m)."""
    p = L.corner.shape[0]
    v_groups = (L.blocks_inv @ r[p:].reshape(-1, L.blocks.shape[-1], 1)).ravel()
    v_corner = L.corner_inv @ (r[:p] - L.border @ v_groups)
    return np.concatenate((v_corner, v_groups))


def lapack_backward(L: LapackArrowheadCholesky, v: np.ndarray) -> np.ndarray:
    """L^{-T} v, in the same order as ``lapack_forward``."""
    p = L.corner.shape[0]
    x_corner = L.corner_inv.T @ v[:p]
    w = v[p:] - L.border.T @ x_corner
    x_groups = np.swapaxes(L.blocks_inv, -1, -2) @ w.reshape(-1, L.blocks.shape[-1], 1)
    return np.concatenate((x_corner, x_groups.ravel()))


def reference_draw_coefficients(rng, y, design, b, sigma2, Sigma_inv, fixed_scale):
    """``mcmc.draw_coefficients`` by ``lapack_arrowhead_cholesky`` and its
    block triangular solves: L^{-T}(L^{-1} C'Wy/sigma2 + z)."""
    p, q, m = design.n_fixed, design.n_random, design.n_groups
    cross_y, gram = design.weighted_cross(1.0 / b, y)
    CtWC = matops.unravel_arrowhead(gram, p, q, m)
    M = matops.Arrowhead(
        CtWC.corner / sigma2 + np.eye(p) / fixed_scale**2,
        CtWC.border / sigma2,
        CtWC.blocks / sigma2 + 0.5 * (Sigma_inv + Sigma_inv.T),
    )
    try:
        L = lapack_arrowhead_cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("coefficient conditional precision is not SPD") from exc
    z = rng.standard_normal(design.n_coefficients)
    return lapack_backward(L, lapack_forward(L, cross_y / sigma2) + z)


# ---------------------------------------------------------------------------
# prior specifications inducing the same prior
# ---------------------------------------------------------------------------


def equivalent_specs(spec) -> list:
    """Other specifications inducing the same prior distribution."""
    if isinstance(spec, InverseChiSquaredSpec):
        return [
            InverseGammaSpec(spec.delta / 2.0, spec.lam / 2.0),
            InverseWishartSpec(spec.delta, np.array([[spec.lam]])),
        ]
    if isinstance(spec, InverseGammaSpec):
        return [
            InverseChiSquaredSpec(2.0 * spec.shape, 2.0 * spec.rate),
            InverseWishartSpec(2.0 * spec.shape, np.array([[2.0 * spec.rate]])),
        ]
    if isinstance(spec, InverseWishartSpec):
        if spec.Lambda.shape[0] == 1:
            lam = float(spec.Lambda[0, 0])
            return [
                InverseChiSquaredSpec(spec.kappa, lam),
                InverseGammaSpec(spec.kappa / 2.0, lam / 2.0),
            ]
        return []
    if isinstance(spec, HalfTSpec):
        out = [HuangWandSpec((spec.scale,), spec.df)]
        if spec.df == 1.0:
            out.append(HalfCauchySpec(spec.scale))
        return out
    if isinstance(spec, HalfCauchySpec):
        return [HalfTSpec(spec.scale, 1.0), HuangWandSpec((spec.scale,), 1.0)]
    if isinstance(spec, HuangWandSpec):
        if len(spec.scales) == 1:
            out = [HalfTSpec(spec.scales[0], spec.nu)]
            if spec.nu == 1.0:
                out.append(HalfCauchySpec(spec.scales[0]))
            return out
        return []
    if isinstance(spec, MatrixFSpec):
        return []
    raise InvalidHyperparameter(f"unknown prior specification {type(spec).__name__}")
