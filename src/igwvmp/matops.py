"""Matrix utilities underlying the natural-parameter computations.

Conventions used throughout the package:

* ``vec`` stacks matrix columns top to bottom (column-major).
* ``vech`` stacks the lower triangle, diagonal included, column by column.
  This is the unique ordering consistent with the duplication matrix

      D_2 = [[1,0,0],[0,1,0],[0,1,0],[0,0,1]],

  which satisfies D_d vech(A) = vec(A) for every symmetric A.

The two maps the natural-parameter wire convention needs, D_d^T vec(A) and
vec^{-1}(D_d^{+T} eta), are pure index arithmetic on the vech positions
(``fold_vech`` and ``unfold_vech``), so no d^2 x d(d+1)/2 matrix is built
while fitting. The dense duplication matrices and their Moore-Penrose
inverses are kept as the test oracle for those maps.
"""

from functools import lru_cache

import numpy as np

from .errors import AsymmetricInput, DimensionMismatch

__all__ = [
    "vec",
    "vec_inverse",
    "vech",
    "unvech",
    "fold_vech",
    "unfold_vech",
    "zero_offdiag_vech",
    "duplication",
    "duplication_pinv",
    "is_spd",
    "blockdiag",
    "vech_len",
    "dim_from_vech_len",
]


def vech_len(d: int) -> int:
    """Length of vech of a d x d symmetric matrix."""
    return d * (d + 1) // 2


def dim_from_vech_len(n: int) -> int:
    """Recover d from d(d+1)/2, erroring if n is not of that form."""
    d = int(round((np.sqrt(8 * n + 1) - 1) / 2))
    if vech_len(d) != n:
        raise DimensionMismatch(f"{n} is not d(d+1)/2 for any integer d")
    return d


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


@lru_cache(maxsize=None)
def _vech_lower_indices(d: int):
    # triu indices in row-major order are exactly the transposed lower-triangle
    # indices in column-major (vech) order
    r, c = np.triu_indices(d)
    rows = c.copy()
    cols = r.copy()
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def vech(M: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    """Half-vectorization of a symmetric matrix.

    The input must be symmetric to relative tolerance ``rel_tol``; it is
    symmetrized internally after the check so that downstream consumers see
    exact symmetry.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"vech expects a square matrix, got shape {M.shape}")
    scale = np.max(np.abs(M))
    if scale > 0 and np.max(np.abs(M - M.T)) > rel_tol * scale:
        raise AsymmetricInput("matrix is not symmetric within tolerance")
    M = 0.5 * (M + M.T)
    rows, cols = _vech_lower_indices(M.shape[0])
    return M[rows, cols].copy()


def unvech(v: np.ndarray) -> np.ndarray:
    """Rebuild the symmetric matrix whose vech is ``v``."""
    v = np.asarray(v, dtype=float)
    d = dim_from_vech_len(v.size)
    rows, cols = _vech_lower_indices(d)
    M = np.zeros((d, d))
    M[rows, cols] = v
    M[cols, rows] = v
    return M


@lru_cache(maxsize=None)
def _vech_diag_positions(d: int):
    rows, cols = _vech_lower_indices(d)
    pos = np.flatnonzero(rows == cols)
    pos.flags.writeable = False
    return pos


def fold_vech(A: np.ndarray) -> np.ndarray:
    """D_d^T vec(A) without forming D_d: vech(A + A^T) with the diagonal
    entries taken once. ``A`` need not be symmetric."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"fold_vech expects a square matrix, got shape {A.shape}")
    d = A.shape[0]
    rows, cols = _vech_lower_indices(d)
    out = A[rows, cols] + A[cols, rows]
    out[_vech_diag_positions(d)] = np.diagonal(A)
    return out


def unfold_vech(eta: np.ndarray) -> np.ndarray:
    """vec^{-1}(D_d^{+T} eta) without forming D_d^+: unvech(eta) with the
    off-diagonal entries halved."""
    eta = np.asarray(eta, dtype=float)
    diag = _vech_diag_positions(dim_from_vech_len(eta.size))
    half = 0.5 * eta
    half[diag] = eta[diag]
    return unvech(half)


def zero_offdiag_vech(v: np.ndarray) -> np.ndarray:
    """vech(diag(diag(unvech(v)))): ``v`` with its off-diagonal entries zeroed."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    diag = _vech_diag_positions(dim_from_vech_len(v.size))
    out[diag] = v[diag]
    return out


def _tri_index(i: int, j: int, d: int) -> int:
    # vech position of entry (i, j), i >= j, column-major lower triangle
    return j * d - (j * (j - 1)) // 2 + (i - j)


@lru_cache(maxsize=None)
def duplication(d: int) -> np.ndarray:
    """The d^2 x d(d+1)/2 duplication matrix D_d with D_d vech(A) = vec(A)."""
    if d < 1:
        raise DimensionMismatch("duplication requires d >= 1")
    D = np.zeros((d * d, vech_len(d)))
    for j in range(d):
        for i in range(d):
            D[i + j * d, _tri_index(max(i, j), min(i, j), d)] = 1.0
    D.flags.writeable = False
    return D


@lru_cache(maxsize=None)
def duplication_pinv(d: int) -> np.ndarray:
    """Moore-Penrose inverse (D_d^T D_d)^{-1} D_d^T of the duplication matrix.

    D^T D is diagonal (1 for diagonal entries, 2 for off-diagonal pairs), so
    the result is exact in floating point.
    """
    D = duplication(d)
    counts = D.sum(axis=0)
    Dp = D.T / counts[:, None]
    Dp.flags.writeable = False
    return Dp


def is_spd(M: np.ndarray) -> bool:
    """Whether a symmetric matrix is positive definite.

    All eigenvalues must exceed 1e-12 times the largest diagonal entry.
    """
    M = np.asarray(M, dtype=float)
    M = 0.5 * (M + M.T)
    threshold = 1e-12 * max(float(np.max(np.diag(M))), 0.0)
    try:
        smallest = float(np.linalg.eigvalsh(M)[0])
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(smallest) and smallest > threshold)


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
