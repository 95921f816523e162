import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from igwvmp import matops
from igwvmp.errors import DimensionMismatch, NumericalFailure
from oracles import (
    blockdiag,
    dense_arrowhead,
    duplication_pinv,
    is_spd_by_eigenvalues,
    lapack_arrowhead_cholesky,
    lapack_backward,
    lapack_forward,
    vec,
    vec_inverse,
    vech,
)


def random_symmetric(d, rng):
    A = rng.standard_normal((d, d))
    return A + A.T


def test_vec_is_column_major():
    M = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert_allclose(vec(M), [1.0, 2.0, 3.0, 4.0])


def test_vec_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        vec(np.zeros((2, 3)))


def test_vec_inverse_round_trip():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((4, 4))
    assert_allclose(vec_inverse(vec(M), 4), M)


def test_vec_inverse_rejects_bad_length():
    with pytest.raises(DimensionMismatch):
        vec_inverse(np.arange(5.0), 2)


def test_vech_order_lower_triangle_by_columns():
    M = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    assert_allclose(vech(M), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


def test_unvech_round_trip():
    rng = np.random.default_rng(1)
    for d in (1, 2, 3, 5, 8):
        M = random_symmetric(d, rng)
        assert_allclose(matops.unvech(vech(M)), M)


def test_vech_len_and_dim():
    for d in range(1, 10):
        assert matops.dim_from_vech_len(matops.vech_len(d)) == d
    with pytest.raises(DimensionMismatch):
        matops.dim_from_vech_len(4)


def test_duplication_d2_explicit():
    expected = np.array(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    assert_allclose(matops.duplication(2), expected)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_duplication_maps_vech_to_vec(d, seed):
    M = random_symmetric(d, np.random.default_rng(seed))
    assert_allclose(matops.duplication(d) @ vech(M), vec(M))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_duplication_pinv_is_moore_penrose(d):
    D = matops.duplication(d)
    assert_allclose(duplication_pinv(d), np.linalg.pinv(D), atol=1e-13)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_duplication_pinv_left_inverse(d):
    Dp = duplication_pinv(d)
    assert_allclose(Dp @ matops.duplication(d), np.eye(matops.vech_len(d)), atol=0)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_fold_vech_equals_duplication_product(d):
    # non-symmetric input: a product like C^T W C is only symmetric to rounding
    A = np.random.default_rng(d).standard_normal((d, d))
    assert_array_equal(matops.fold_vech(A), matops.duplication(d).T @ vec(A))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_unfold_vech_equals_duplication_pinv_product(d):
    eta = np.random.default_rng(d).standard_normal(matops.vech_len(d))
    expected = vec_inverse(duplication_pinv(d).T @ eta, d)
    assert_array_equal(matops.unfold_vech(eta), expected)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_zero_offdiag_vech_equals_duplication_oracle(d):
    v = np.random.default_rng(d).standard_normal(matops.vech_len(d))
    M = vec_inverse(matops.duplication(d) @ v, d)
    expected = duplication_pinv(d) @ vec(np.diag(np.diag(M)))
    assert_array_equal(matops.zero_offdiag_vech(v), expected)


def test_fit_builds_no_duplication_matrix():
    from igwvmp import tlmm

    data, _ = tlmm.simulate(seed=3, n_groups=4, group_size=6)
    matops.duplication.cache_clear()
    tlmm.fit(data)
    assert matops.duplication.cache_info().currsize == 0


def test_duplication_cached_and_read_only():
    D1 = matops.duplication(3)
    assert matops.duplication(3) is D1
    assert not D1.flags.writeable


def test_is_spd():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((4, 4))
    assert matops.is_spd(A @ A.T + 4 * np.eye(4))
    assert not matops.is_spd(np.zeros((3, 3)))
    assert not matops.is_spd(np.diag([1.0, -1.0]))
    # rank deficient
    v = np.array([[1.0], [2.0]])
    assert not matops.is_spd(v @ v.T)
    # tiny but uniformly positive scales are fine
    assert matops.is_spd(1e-30 * np.eye(2))


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["spd", "indefinite", "above", "below"]),
)
@settings(max_examples=200, deadline=None)
def test_is_spd_matches_eigenvalue_oracle(d, seed, kind):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3)
    B = rng.standard_normal((d, d))
    if kind == "spd":
        M = scale * (B @ B.T + 0.01 * np.eye(d))
    elif kind == "indefinite":
        Q = np.linalg.qr(B)[0]
        lam = rng.uniform(0.1, 1.0, d)
        lam[rng.integers(d)] *= -1.0
        M = scale * (Q * lam) @ Q.T
    else:
        # smallest eigenvalue t (1 +- 1e-3), t = 1e-12 times the largest
        # diagonal entry, held by one coordinate: a permuted block diagonal
        # keeps it exact in the matrix and in both factorizations
        if d == 1:
            return
        R = scale * (B[1:, 1:] @ B[1:, 1:].T + 0.1 * np.eye(d - 1))
        t = 1e-12 * np.max(np.diag(R))
        M = np.zeros((d, d))
        M[0, 0] = t * (1.0 + 1e-3 if kind == "above" else 1.0 - 1e-3)
        M[1:, 1:] = R
        perm = rng.permutation(d)
        M = M[np.ix_(perm, perm)]
        assert is_spd_by_eigenvalues(M) == (kind == "above")
    assert matops.is_spd(M) == is_spd_by_eigenvalues(M)


def test_is_spd_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        M = np.eye(3)
        M[2, 1] = M[1, 2] = bad
        assert not matops.is_spd(M)
        M = np.eye(3)
        M[1, 1] = bad
        assert not matops.is_spd(M)


def test_blockdiag():
    out = blockdiag([np.array([[1.0]]), np.array([[2.0, 3.0], [4.0, 5.0]])])
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 3.0], [0.0, 4.0, 5.0]])
    assert_allclose(out, expected)


def test_blockdiag_empty_and_rectangular():
    assert blockdiag([]).shape == (0, 0)
    out = blockdiag([np.ones((1, 2)), np.ones((2, 1))])
    assert out.shape == (3, 3)
    assert_allclose(out[0, :2], [1.0, 1.0])
    assert_allclose(out[1:, 2], [1.0, 1.0])


def _random_arrowhead(rng, p, q, m):
    """An SPD arrowhead: random blocks, shifted to smallest eigenvalue 1."""
    k = p + m * q
    A = rng.standard_normal((k, k))
    full = A @ A.T
    groups = [slice(p + i * q, p + (i + 1) * q) for i in range(m)]
    a = matops.Arrowhead(
        full[:p, :p],
        np.array([full[:p, g] for g in groups]),
        np.array([full[g, g] for g in groups]),
    )
    shift = 1.0 - np.linalg.eigvalsh(dense_arrowhead(a))[0]
    return a._replace(corner=a.corner + shift * np.eye(p), blocks=a.blocks + shift * np.eye(q))


def dense_factor(L: matops.ArrowheadCholesky) -> np.ndarray:
    """The k x k lower-triangular factor, groups first and corner last."""
    p, mq = L.border.shape
    out = np.zeros((p + mq, p + mq))
    out[:mq, :mq] = blockdiag(list(np.tril(matops._vech_matrix(L.blocks))))
    out[mq:, :mq] = L.border
    out[mq:, mq:] = np.tril(matops._vech_matrix(L.corner))
    return out


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([1, 2]),
    st.sampled_from([1, 2]),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=40, deadline=None)
def test_arrowhead_factor_solves_and_inverse_match_dense(seed, p, q, m):
    rng = np.random.default_rng(seed)
    a = _random_arrowhead(rng, p, q, m)
    P = dense_arrowhead(a)
    r = rng.standard_normal(P.shape[0])
    L, v = matops.arrowhead_cholesky(a, r)
    # with the groups first and the corner last the factor has no fill
    order = np.r_[p : p + m * q, :p]
    dense_L = dense_factor(L)
    assert_allclose(dense_L @ dense_L.T, P[np.ix_(order, order)], rtol=1e-12, atol=1e-12)
    # the closed-form inverses (L L^T)^{-1} of the group and corner factors
    groups = matops._vech_matrix(matops._inverse_gram(L.blocks))
    assert_allclose(groups, np.linalg.inv(a.blocks), rtol=1e-12, atol=1e-12)
    corner = dense_L[m * q :, m * q :]
    want = np.linalg.inv(corner @ corner.T)
    got = matops._vech_matrix(matops._inverse_gram(L.corner))
    assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    assert_allclose(v[order], np.linalg.solve(dense_L, r[order]), rtol=1e-10, atol=1e-10)
    assert_allclose(matops.arrowhead_backward(L, v), np.linalg.solve(P, r), rtol=1e-9, atol=1e-10)
    inverse = np.linalg.inv(P)
    mean, cov = matops.arrowhead_moments(L, v, dense=True)
    assert_allclose(mean, inverse @ r, rtol=1e-9, atol=1e-10)
    assert_allclose(cov, inverse, rtol=1e-9, atol=1e-10)
    mean_blocks, blocks = matops.arrowhead_moments(L, v)
    assert_array_equal(mean_blocks, mean)
    assert_allclose(dense_arrowhead(blocks), inverse * (dense_arrowhead(a) != 0), atol=1e-10)

    # the LAPACK reference factor and its solves
    ref = lapack_arrowhead_cholesky(a)
    dense_ref = np.zeros_like(P)
    dense_ref[: m * q, : m * q] = blockdiag(list(ref.blocks))
    dense_ref[m * q :, : m * q] = ref.border
    dense_ref[m * q :, m * q :] = ref.corner
    assert_allclose(dense_L, dense_ref, rtol=1e-12, atol=1e-12)
    assert_allclose(v, lapack_forward(ref, r), rtol=1e-10, atol=1e-10)
    assert_allclose(mean, lapack_backward(ref, lapack_forward(ref, r)), rtol=1e-9, atol=1e-10)


def test_arrowhead_cholesky_shift_and_non_finite_input():
    a = matops.Arrowhead(np.eye(1), np.zeros((2, 1, 1)), np.full((2, 1, 1), 0.5))
    h = np.ones(3)
    matops.arrowhead_cholesky(a, h, shift=0.4)
    with pytest.raises(NumericalFailure):
        matops.arrowhead_cholesky(a, h, shift=0.5)
    bad = a._replace(blocks=np.array([[[0.5]], [[np.nan]]]))
    with pytest.raises(NumericalFailure):
        matops.arrowhead_cholesky(bad, h)


@pytest.mark.parametrize("p, q", [(3, 1), (1, 3), (2, 3), (3, 3)])
def test_arrowhead_cholesky_serves_p_and_q_of_one_or_two(p, q):
    a = _random_arrowhead(np.random.default_rng(p + q), p, q, 2)
    with pytest.raises(DimensionMismatch):
        matops.arrowhead_cholesky(a, np.ones(p + 2 * q))


@pytest.mark.parametrize("p, q, m", [(1, 1, 1), (2, 2, 3), (2, 3, 2), (1, 2, 4)])
def test_ravel_arrowhead_round_trip(p, q, m):
    a = _random_arrowhead(np.random.default_rng(p + q + m), p, q, m)
    full = dense_arrowhead(a)
    groups = [slice(p + i * q, p + (i + 1) * q) for i in range(m)]
    want = np.concatenate(
        [full[:p, :p].ravel()]
        + [full[:p, g].ravel() for g in groups]
        + [full[g, g].ravel() for g in groups]
    )
    flat = matops.ravel_arrowhead(a)
    assert flat.size == matops.arrowhead_len(p, q, m)
    assert_array_equal(flat, want)
    back = matops.unravel_arrowhead(flat, p, q, m)
    assert_array_equal(dense_arrowhead(back), full)
    for got, block in zip(back, a):
        assert_array_equal(got, block)
    with pytest.raises(DimensionMismatch):
        matops.unravel_arrowhead(flat[:-1], p, q, m)
