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
while fitting. The package does not call ``duplication`` either: it stays
here because the benchmark harness (``perfbench/spans.py``) wraps
``matops.duplication`` to report how many duplication megabytes a fit
computes. ``vec``, its inverse and the Moore-Penrose inverse of D_d, which
only the tests use, are in ``tests/oracles.py``.

The Gaussian coefficient node of the mixed model has an arrowhead
precision: p x p fixed-effect entries, m border blocks of p x q and m
diagonal q x q blocks, with zeros elsewhere. ``Arrowhead`` holds those
blocks; ``ravel_arrowhead`` and ``unravel_arrowhead`` map them to and from
one flat vector; and ``arrowhead_cholesky`` with its solves and moments
works on them in O(m) time and memory.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import AsymmetricInput, DimensionMismatch

__all__ = [
    "vech",
    "unvech",
    "fold_vech",
    "unfold_vech",
    "zero_offdiag_vech",
    "Arrowhead",
    "ArrowheadCholesky",
    "arrowhead_len",
    "ravel_arrowhead",
    "unravel_arrowhead",
    "arrowhead_cholesky",
    "arrowhead_forward",
    "arrowhead_backward",
    "arrowhead_moments",
    "duplication",
    "is_spd",
    "vech_len",
    "dim_from_vech_len",
]


def vech_len(d: int) -> int:
    """Length of vech of a d x d symmetric matrix."""
    return d * (d + 1) // 2


@lru_cache(maxsize=None)
def dim_from_vech_len(n: int) -> int:
    """Recover d from d(d+1)/2, erroring if n is not of that form."""
    d = int(round((np.sqrt(8 * n + 1) - 1) / 2))
    if vech_len(d) != n:
        raise DimensionMismatch(f"{n} is not d(d+1)/2 for any integer d")
    return d


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
    entries taken once. ``A`` need not be symmetric; a stack (..., d, d)
    is folded matrix by matrix."""
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionMismatch(f"fold_vech expects square matrices, got shape {A.shape}")
    d = A.shape[-1]
    rows, cols = _vech_lower_indices(d)
    out = A[..., rows, cols] + A[..., cols, rows]
    out[..., _vech_diag_positions(d)] = np.diagonal(A, axis1=-2, axis2=-1)
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


def spd_threshold(diagonal: np.ndarray) -> float:
    """1e-12 times the largest diagonal entry (0 if none is positive): the
    margin by which every eigenvalue of an SPD matrix must exceed zero."""
    return 1e-12 * max(float(diagonal.max()), 0.0)


def is_spd(M: np.ndarray) -> bool:
    """Whether a symmetric matrix is positive definite.

    All eigenvalues must exceed t = ``spd_threshold(diag(M))``; that holds
    exactly when M - t I has a Cholesky factor. Non-finite entries fail.
    """
    M = np.asarray(M, dtype=float)
    # twice the symmetric part: the doubling is exact and the test scale-free
    S = M + M.T
    if not math.isfinite(S.sum()):
        return False
    S.flat[:: S.shape[0] + 1] -= spd_threshold(S.diagonal())
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return False
    return True


# ---------------------------------------------------------------------------
# arrowhead matrices
# ---------------------------------------------------------------------------


class Arrowhead(NamedTuple):
    """The nonzero blocks of a symmetric k x k matrix, k = p + m q, whose
    first p rows and columns (the corner) are dense and whose remaining
    rows and columns split into m groups of q coupled only to themselves
    and to the corner.

    ``corner`` is p x p, ``border[i]`` (m x p x q) the corner rows of group
    i's columns, and ``blocks[i]`` (m x q x q) group i's diagonal block.
    """

    corner: np.ndarray
    border: np.ndarray
    blocks: np.ndarray


class ArrowheadCholesky(NamedTuple):
    """Lower-triangular L with L L^T equal to an arrowhead matrix, its
    variables ordered groups first and corner last so that L has no fill:

        L = [[blockdiag(L_1, ..., L_m), 0], [[K_1 ... K_m], L_c]].

    ``blocks`` holds the L_i (m x q x q) and ``blocks_inv`` their inverses,
    ``border`` the p x mq row [K_1 ... K_m] with K_i = B_i L_i^{-T}, and
    ``corner``/``corner_inv`` the factor L_c of the Schur complement
    A - sum_i K_i K_i^T and its inverse.
    """

    blocks: np.ndarray
    blocks_inv: np.ndarray
    border: np.ndarray
    corner: np.ndarray
    corner_inv: np.ndarray


def arrowhead_len(p: int, q: int, m: int) -> int:
    """Number of entries in ``ravel_arrowhead`` of a k x k arrowhead."""
    return p * p + m * (p * q + q * q)


def ravel_arrowhead(a: Arrowhead) -> np.ndarray:
    """The arrowhead's blocks raveled and concatenated: the corner, then
    the border (group by group, each p x q block row-major), then the
    diagonal blocks."""
    return np.concatenate((a.corner.ravel(), a.border.ravel(), a.blocks.ravel()))


def unravel_arrowhead(v: np.ndarray, p: int, q: int, m: int) -> Arrowhead:
    """Inverse of ``ravel_arrowhead``: the blocks as views of ``v``."""
    v = np.asarray(v, dtype=float)
    if v.shape != (arrowhead_len(p, q, m),):
        raise DimensionMismatch(
            f"an arrowhead with p={p}, q={q}, m={m} has {arrowhead_len(p, q, m)} "
            f"entries, got shape {v.shape}"
        )
    b = p * p + m * p * q
    return Arrowhead(
        v[: p * p].reshape(p, p), v[p * p : b].reshape(m, p, q), v[b:].reshape(m, q, q)
    )


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverses of a stack (..., d, d) of lower-triangular matrices, by
    forward substitution over their d rows, vectorized over the stack."""
    d = L.shape[-1]
    inv_diag = 1.0 / L.diagonal(axis1=-2, axis2=-1)
    X = np.zeros_like(L)
    X[..., 0, 0] = inv_diag[..., 0]
    for j in range(1, d):
        earlier = (L[..., j : j + 1, :j] @ X[..., :j, :])[..., 0, :]
        X[..., j, :] = -earlier * inv_diag[..., j, None]
        X[..., j, j] = inv_diag[..., j]
    return X


def arrowhead_cholesky(a: Arrowhead, shift: float = 0.0) -> ArrowheadCholesky:
    """Block Cholesky factor of an arrowhead matrix minus ``shift`` times
    the identity. Raises np.linalg.LinAlgError unless that is positive
    definite with a finite factor."""
    m, p, q = a.border.shape
    blocks, corner = a.blocks, a.corner
    if shift:
        blocks = blocks - shift * np.eye(q)
        corner = corner - shift * np.eye(p)
    L = np.linalg.cholesky(blocks)
    L_inv = _lower_inverse(L)
    K = np.swapaxes(a.border @ np.swapaxes(L_inv, -1, -2), 0, 1).reshape(p, m * q)
    L_c = np.linalg.cholesky(corner - K @ K.T)
    if not math.isfinite(L.sum() + L_c.sum()):
        raise np.linalg.LinAlgError("arrowhead matrix is not finite")
    return ArrowheadCholesky(L, L_inv, K, L_c, np.linalg.inv(L_c))


def arrowhead_forward(L: ArrowheadCholesky, r: np.ndarray) -> np.ndarray:
    """L^{-1} r, with r and the result in corner-first order (corner
    entries, then group 1, ..., group m)."""
    p = L.corner.shape[0]
    v_groups = (L.blocks_inv @ r[p:].reshape(-1, L.blocks.shape[-1], 1)).ravel()
    v_corner = L.corner_inv @ (r[:p] - L.border @ v_groups)
    return np.concatenate((v_corner, v_groups))


def arrowhead_backward(L: ArrowheadCholesky, v: np.ndarray) -> np.ndarray:
    """L^{-T} v, in the same order as ``arrowhead_forward``."""
    p = L.corner.shape[0]
    x_corner = L.corner_inv.T @ v[:p]
    w = v[p:] - L.border.T @ x_corner
    x_groups = np.swapaxes(L.blocks_inv, -1, -2) @ w.reshape(-1, L.blocks.shape[-1], 1)
    return np.concatenate((x_corner, x_groups.ravel()))


def arrowhead_moments(L: ArrowheadCholesky, h: np.ndarray, dense: bool = False):
    """(M^{-1} h, M^{-1}) for the factored M = L L^T: the mean and the
    covariance of the Gaussian with precision M and natural parameter h
    (corner-first order). The covariance comes as its arrowhead blocks, or
    with ``dense`` as the full k x k matrix.

    With D_i = L_i L_i^T the groups' blocks, H_i = K_i L_i^{-1} = B_i D_i^{-1}
    and S^{-1} = L_c^{-T} L_c^{-1} the inverse Schur complement, M^{-1} has
    corner S^{-1}, border -S^{-1} H_i and group-pair blocks
    delta_ij D_i^{-1} + H_i^T S^{-1} H_j, of which the arrowhead keeps
    i = j. The mean's corner is S^{-1}(h_c - sum_i H_i h_i) and its group
    i part D_i^{-1} h_i - H_i^T times the corner.
    """
    m, q = L.blocks.shape[:2]
    p = L.corner.shape[0]
    corner = L.corner_inv.T @ L.corner_inv
    corner = 0.5 * (corner + corner.T)
    H = np.einsum("ams,msr->amr", L.border.reshape(p, m, q), L.blocks_inv).reshape(p, m * q)
    D_inv = np.swapaxes(L.blocks_inv, -1, -2) @ L.blocks_inv
    h_groups = h[p:]
    mean_corner = corner @ (h[:p] - H @ h_groups)
    mean_groups = (D_inv @ h_groups.reshape(m, q, 1)).ravel() - H.T @ mean_corner
    mean = np.concatenate((mean_corner, mean_groups))
    if not dense:
        # the group blocks come out symmetric to rounding
        H_groups = np.swapaxes(H.reshape(p, m, q), 0, 1)
        border = -(corner @ H_groups)
        return mean, Arrowhead(corner, border, D_inv - np.swapaxes(H_groups, -1, -2) @ border)
    out = np.empty((p + m * q, p + m * q))
    out[:p, :p] = corner
    out[:p, p:] = -(corner @ H)
    out[p:, :p] = out[:p, p:].T
    groups = H.T @ corner @ H
    diagonal = groups.reshape(m, q, m, q)[np.arange(m), :, np.arange(m), :] + D_inv
    groups.reshape(m, q, m, q)[np.arange(m), :, np.arange(m), :] = diagonal
    out[p:, p:] = 0.5 * (groups + groups.T)
    return mean, out
