import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from igwvmp import matops
from igwvmp.errors import AsymmetricInput, DimensionMismatch


def random_symmetric(d, rng):
    A = rng.standard_normal((d, d))
    return A + A.T


def test_vec_is_column_major():
    M = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert_allclose(matops.vec(M), [1.0, 2.0, 3.0, 4.0])


def test_vec_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        matops.vec(np.zeros((2, 3)))


def test_vec_inverse_round_trip():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((4, 4))
    assert_allclose(matops.vec_inverse(matops.vec(M), 4), M)


def test_vec_inverse_rejects_bad_length():
    with pytest.raises(DimensionMismatch):
        matops.vec_inverse(np.arange(5.0), 2)


def test_vech_order_lower_triangle_by_columns():
    M = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    assert_allclose(matops.vech(M), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


def test_vech_rejects_asymmetric():
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(AsymmetricInput):
        matops.vech(M)


def test_vech_symmetrizes_below_tolerance():
    # asymmetry at 1e-14 relative passes the check and is averaged away
    M = np.array([[1.0, 2.0], [2.0 + 2e-14, 1.0]])
    v = matops.vech(M)
    assert v[1] == pytest.approx(2.0 + 1e-14, abs=5e-16)


def test_unvech_round_trip():
    rng = np.random.default_rng(1)
    for d in (1, 2, 3, 5, 8):
        M = random_symmetric(d, rng)
        assert_allclose(matops.unvech(matops.vech(M)), M)


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
    assert_allclose(matops.duplication(d) @ matops.vech(M), matops.vec(M))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_duplication_pinv_is_moore_penrose(d):
    D = matops.duplication(d)
    assert_allclose(matops.duplication_pinv(d), np.linalg.pinv(D), atol=1e-13)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_duplication_pinv_left_inverse(d):
    Dp = matops.duplication_pinv(d)
    assert_allclose(Dp @ matops.duplication(d), np.eye(matops.vech_len(d)), atol=0)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_fold_vech_equals_duplication_product(d):
    # non-symmetric input: a product like C^T W C is only symmetric to rounding
    A = np.random.default_rng(d).standard_normal((d, d))
    assert_array_equal(matops.fold_vech(A), matops.duplication(d).T @ matops.vec(A))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_unfold_vech_equals_duplication_pinv_product(d):
    eta = np.random.default_rng(d).standard_normal(matops.vech_len(d))
    expected = matops.vec_inverse(matops.duplication_pinv(d).T @ eta, d)
    assert_array_equal(matops.unfold_vech(eta), expected)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_zero_offdiag_vech_equals_duplication_oracle(d):
    v = np.random.default_rng(d).standard_normal(matops.vech_len(d))
    M = matops.vec_inverse(matops.duplication(d) @ v, d)
    expected = matops.duplication_pinv(d) @ matops.vec(np.diag(np.diag(M)))
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


def test_blockdiag():
    out = matops.blockdiag([np.array([[1.0]]), np.array([[2.0, 3.0], [4.0, 5.0]])])
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 3.0], [0.0, 4.0, 5.0]])
    assert_allclose(out, expected)


def test_blockdiag_empty_and_rectangular():
    assert matops.blockdiag([]).shape == (0, 0)
    out = matops.blockdiag([np.ones((1, 2)), np.ones((2, 1))])
    assert out.shape == (3, 3)
    assert_allclose(out[0, :2], [1.0, 1.0])
    assert_allclose(out[1:, 2], [1.0, 1.0])
