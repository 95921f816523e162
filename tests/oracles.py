"""Dense oracles for the vech maps, the block-form coefficient algebra and
the Inverse G-Wishart density.

The program never forms vec, the Moore-Penrose inverse of a duplication
matrix, the n x k design C or a k x k coefficient precision; these helpers
do, so that tests can check ``fold_vech``/``unfold_vech``, the index-form
design, the arrowhead natural vector and the block solver against plain
dense linear algebra. ``igw_log_density`` is the exact density that the
marginalization and sampler tests integrate against.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import multigammaln

from igwvmp import matops
from igwvmp.distributions import CommonIGW, Graph, inv_chisq_log_density
from igwvmp.errors import DimensionMismatch, DomainError, NonSPDPrecision


def vec(M: np.ndarray) -> np.ndarray:
    """Column-major vectorization of a square matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"vec expects a square matrix, got shape {M.shape}")
    return M.ravel(order="F").copy()


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
