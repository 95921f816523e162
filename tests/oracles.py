"""Dense oracles for the block-form coefficient algebra.

The program never forms the n x k design C or a k x k coefficient
precision; these helpers do, so that tests can check the index-form design,
the arrowhead natural vector and the block solver against plain dense
linear algebra, the way ``matops.duplication`` checks ``fold_vech``.
"""

from dataclasses import dataclass

import numpy as np

from igwvmp import matops
from igwvmp.errors import NonSPDPrecision


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


def _vech_order(d: int):
    """(rows, cols) of the lower triangle in vech order, column by column."""
    rows, cols = np.tril_indices(d)
    order = np.lexsort((rows, cols))
    return rows[order], cols[order]


def arrowhead_vech_positions(p: int, q: int, m: int) -> np.ndarray:
    """For each entry of ``matops.fold_arrowhead``'s layout, its position in
    vech of the k x k matrix."""
    k = p + m * q
    rows, cols = _vech_order(k)
    pos = np.zeros((k, k), dtype=int)
    pos[rows, cols] = pos[cols, rows] = np.arange(rows.size)
    r, c = _vech_order(p)
    parts = [pos[r, c]]
    parts += [pos[:p, p + i * q : p + (i + 1) * q].ravel() for i in range(m)]
    r, c = _vech_order(q)
    parts += [pos[p + i * q + r, p + i * q + c] for i in range(m)]
    return np.concatenate(parts)


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
