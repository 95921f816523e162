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
computes. ``vech`` itself, ``vec``, its inverse and the Moore-Penrose
inverse of D_d, which only the tests use, are in ``tests/oracles.py``.

The Gaussian coefficient node of the mixed model has an arrowhead
precision: p x p fixed-effect entries, m border blocks of p x q and m
diagonal q x q blocks, with zeros elsewhere. ``Arrowhead`` holds those
blocks; ``ravel_arrowhead`` and ``unravel_arrowhead`` map them to and from
one flat vector. ``arrowhead_cholesky`` factors one in closed form, with
the forward solve of a right-hand side, and ``arrowhead_backward`` and
``arrowhead_moments`` finish the solve or give the inverse, in O(m) time
and memory; both engines use them (``tlmm.extract_gaussian``,
``mcmc.draw_coefficients``).
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NumericalFailure

__all__ = [
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


# relative margin of the SPD rule: see ``spd_threshold``
SPD_MARGIN = 1e-12


def spd_threshold(diagonal: np.ndarray) -> float:
    """``SPD_MARGIN`` times the largest diagonal entry (0 if none is
    positive): the margin by which every eigenvalue of an SPD matrix must
    exceed zero."""
    return SPD_MARGIN * max(float(diagonal.max()), 0.0)


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
# closed-form 1 x 1 and 2 x 2 algebra
# ---------------------------------------------------------------------------
#
# The designs have p = 2 fixed effects and q = 1 or 2 random effects per
# group, so every block of the coefficient precision, and every covariance
# the sampler draws, is 1 x 1 or 2 x 2. A symmetric matrix is passed as its
# vech, (s11,) or (s11, s21, s22), of Python floats for one matrix or of
# arrays over the m groups; a lower triangular factor likewise as (l11,) or
# (l11, l21, l22). Formulas on Python floats cost a fraction of a numpy
# call each. Python floats overflow to inf without raising, and the float
# formulas divide only by pivots checked to be positive, so a failure shows
# in the checks below rather than as ZeroDivisionError; the array formulas
# run under ``np.errstate``, so it shows as NaN or an infinity rather than
# a warning.

# the (row, column) of each vech entry of a 1 x 1 or 2 x 2 matrix
_VECH_PAIRS = {1: ((0, 0),), 2: ((0, 0), (1, 0), (1, 1))}


def _symmetric_vech(M: np.ndarray) -> tuple:
    """Python floats of the vech of (M + M^T)/2 for a 1 x 1 or 2 x 2 M."""
    if M.shape == (1, 1):
        return (float(M[0, 0]),)
    if M.shape != (2, 2):
        raise DimensionMismatch(f"the closed-form algebra is 1 x 1 or 2 x 2, got {M.shape}")
    (a, b), (c, d) = M.tolist()
    return a, 0.5 * (b + c), d


def _vech_matrix(v: tuple) -> np.ndarray:
    """The symmetric matrix with vech v; for entries that are arrays over
    the groups, the (m, d, d) stack of them."""
    if len(v) == 1:
        return np.array([[v[0]]]).T
    return np.array([[v[0], v[1]], [v[1], v[2]]]).T


def _is_spd(v: tuple) -> bool:
    """``is_spd``'s verdict on the symmetric matrix with vech v, in closed
    form: S = 2M, less ``spd_threshold`` of its diagonal on the diagonal,
    has a Cholesky factor, and the entries of S sum to a finite number."""
    if len(v) == 1:
        s = v[0] + v[0]
        # s less its margin, s (1 - SPD_MARGIN), is positive exactly when s is
        return 0.0 < s < math.inf
    a, b, c = v[0] + v[0], v[1] + v[1], v[2] + v[2]
    if not math.isfinite(a + b + b + c):
        return False
    t = SPD_MARGIN * max(a, c, 0.0)
    a -= t
    if not a > 0.0:
        return False
    b /= math.sqrt(a)
    return c - t - b * b > 0.0


def _cholesky(v: tuple, what: str) -> tuple:
    """The lower Cholesky factor of the symmetric matrix with vech v (Python
    floats). Raises NumericalFailure, naming ``what``, where
    ``np.linalg.cholesky`` fails (a pivot that is not positive, or NaN) or
    gives a non-finite factor."""
    a = v[0]
    if not 0.0 < a < math.inf:
        raise NumericalFailure(f"{what} is not SPD")
    l11 = math.sqrt(a)
    if len(v) == 1:
        return (l11,)
    l21 = v[1] / l11
    d = v[2] - l21 * l21  # -inf or NaN when l21 is not finite
    if not 0.0 < d < math.inf:
        raise NumericalFailure(f"{what} is not SPD")
    return l11, l21, math.sqrt(d)


def _group_factors(d: tuple) -> tuple:
    """The lower Cholesky factors of m matrices, their vech entries ``d``
    given as arrays over the groups, with no check: a pivot that is not
    positive, or NaN, leaves a zero, NaN or an infinity in the factor and
    NaN or an infinity in every solve with it. Call it under
    ``np.errstate(all="ignore")``."""
    l11 = np.sqrt(d[0])
    if len(d) == 1:
        return (l11,)
    l21 = d[1] / l11
    return l11, l21, np.sqrt(d[2] - l21 * l21)


def _lower_solve(L: tuple, r) -> tuple:
    """x with L x = r, for a factor L and r with one float or array per row
    of L (a sequence, or an array whose first axis runs over the rows)."""
    x0 = r[0] / L[0]
    if len(L) == 1:
        return (x0,)
    return x0, (r[1] - L[1] * x0) / L[2]


def _upper_solve(L: tuple, r) -> tuple:
    """x with L^T x = r; see ``_lower_solve``."""
    if len(L) == 1:
        return (r[0] / L[0],)
    x1 = r[1] / L[2]
    return (r[0] - L[1] * x1) / L[0], x1


def _inverse_gram(L: tuple) -> tuple:
    """The vech of (L L^T)^{-1} = L^{-T} L^{-1} for a factor L."""
    i11 = 1.0 / L[0]
    if len(L) == 1:
        return (i11 * i11,)
    i22 = 1.0 / L[2]
    i21 = -L[1] * i11 * i22
    return i11 * i11 + i21 * i21, i21 * i22, i22 * i22


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

    ``blocks`` holds the vech of the L_i as a tuple of arrays over the
    groups, ``border`` the p x mq row [K_1 ... K_m] with K_i = B_i L_i^{-T},
    and ``corner`` the vech of L_c, the factor of the Schur complement
    A - sum_i K_i K_i^T, as Python floats.
    """

    blocks: tuple
    border: np.ndarray
    corner: tuple


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


def _set_floats(out: np.ndarray, values: tuple) -> None:
    """out[:len(values)] = values, item by item: a tuple assigned to a
    slice is first converted to an array, which costs more."""
    for i, x in enumerate(values):
        out[i] = x


def arrowhead_cholesky(a: Arrowhead, h: np.ndarray, shift: float = 0.0):
    """(L, L^{-1} h) for the block Cholesky factor L of the arrowhead
    matrix ``a`` minus ``shift`` times the identity, with h and L^{-1} h in
    corner-first order (the corner's entries, then group 1, ..., group m).

    The m group blocks are factored by closed forms on arrays over the
    groups and the p x p Schur complement on floats, so p and q must be 1
    or 2; other sizes raise DimensionMismatch. The group solves for the K_i
    and for v_i = L_i^{-1} h_i share one (q, p + 1, m) right-hand side, and
    the sums over the groups, sum_i K_i K_i^T and sum_i K_i v_i, come from
    one (p + 1) x (p + 1) product; the corner's part is
    L_c^{-1}(h_c - sum_i K_i v_i). Raises NumericalFailure unless the
    matrix is positive definite with a finite factor: a NaN or infinite
    group factor fails a dot product of its pivots, and a zero pivot leaves
    an infinity or NaN in K_i, so the corner's factorization fails.
    """
    m, p, q = a.border.shape
    if p not in _VECH_PAIRS or q not in _VECH_PAIRS:
        raise DimensionMismatch(f"the arrowhead factor needs p and q of 1 or 2, got p={p}, q={q}")
    if shift:
        a = Arrowhead(a.corner - shift * np.eye(p), a.border, a.blocks - shift * np.eye(q))
    what = "the coefficient precision"
    with np.errstate(all="ignore"):
        L = _group_factors([a.blocks[:, i, j] for i, j in _VECH_PAIRS[q]])
        if not math.isfinite(L[0] @ L[-1]):
            raise NumericalFailure(f"{what} is not SPD")
        # column j of the right-hand sides: B_i's column j as p rows, then
        # h_i's entry j, each over the groups
        rhs = np.empty((q, p + 1, m))
        rhs[:, :p] = a.border.T
        rhs[:, p] = h[p:].reshape(m, q).T
        # rows: [K_1 ... K_m], then (v_1, ..., v_m)
        KV = np.empty((p + 1, m, q))
        for j, x_j in enumerate(_lower_solve(L, rhs)):
            KV[:, :, j] = x_j
        KV = KV.reshape(p + 1, m * q)
        product = (KV @ KV.T).tolist()
    corner = a.corner.tolist()
    L_c = _cholesky([corner[i][j] - product[i][j] for i, j in _VECH_PAIRS[p]], what)
    v = np.empty(p + m * q)
    v_c = _lower_solve(L_c, [c - product[i][p] for i, c in enumerate(h[:p].tolist())])
    _set_floats(v, v_c)
    v[p:] = KV[p]
    return ArrowheadCholesky(L, KV[:p], L_c), v


def arrowhead_backward(L: ArrowheadCholesky, v: np.ndarray) -> np.ndarray:
    """L^{-T} v, with v and the result in corner-first order: the corner's
    part x_c = L_c^{-T} v_c, then group i's x_i = L_i^{-T}(v_i - K_i^T x_c)."""
    p, mq = L.border.shape
    q = mq // L.blocks[0].size
    x = np.empty(p + mq)
    x_c = _upper_solve(L.corner, v[:p].tolist())
    _set_floats(x, x_c)
    w = (v[p:] - np.dot(x_c, L.border)).reshape(-1, q).T
    for j, x_j in enumerate(_upper_solve(L.blocks, w)):
        x[p + j :: q] = x_j
    return x


def arrowhead_moments(L: ArrowheadCholesky, v: np.ndarray, dense: bool = False):
    """(M^{-1} h, M^{-1}) for M = L L^T and v = L^{-1} h, as
    ``arrowhead_cholesky`` returns them: the mean and the covariance of the
    Gaussian with precision M and natural parameter h (corner-first order).
    The covariance comes as its arrowhead blocks, or with ``dense`` as the
    full k x k matrix.

    The mean is ``arrowhead_backward(L, v)``. With D_i = L_i L_i^T the
    groups' blocks, H_i = K_i L_i^{-1} = B_i D_i^{-1} and S = L_c L_c^T the
    Schur complement, M^{-1} has corner S^{-1}, border -S^{-1} H_i and
    group-pair blocks delta_ij D_i^{-1} + H_i^T S^{-1} H_j, of which the
    arrowhead keeps i = j. S^{-1} and the D_i^{-1} are closed forms in the
    factors' entries.
    """
    p, mq = L.border.shape
    m = L.blocks[0].size
    q = mq // m
    mean = arrowhead_backward(L, v)
    corner = _vech_matrix(_inverse_gram(L.corner))
    D_inv = _vech_matrix(_inverse_gram(L.blocks))
    # H_i^T = L_i^{-T} K_i^T for the p rows of every K_i at once, as (m, p, q)
    K_columns = L.border.reshape(p, m, q).transpose(2, 0, 1)
    H_groups = np.array(_upper_solve(L.blocks, K_columns)).T
    if not dense:
        # the group blocks come out symmetric to rounding
        border = -(corner @ H_groups)
        return mean, Arrowhead(corner, border, D_inv - np.swapaxes(H_groups, -1, -2) @ border)
    H = np.swapaxes(H_groups, 0, 1).reshape(p, m * q)
    out = np.empty((p + m * q, p + m * q))
    out[:p, :p] = corner
    out[:p, p:] = -(corner @ H)
    out[p:, :p] = out[:p, p:].T
    groups = H.T @ corner @ H
    diagonal = groups.reshape(m, q, m, q)[np.arange(m), :, np.arange(m), :] + D_inv
    groups.reshape(m, q, m, q)[np.arange(m), :, np.arange(m), :] = diagonal
    out[p:, p:] = 0.5 * (groups + groups.T)
    return mean, out
