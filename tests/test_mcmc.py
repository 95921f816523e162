"""Tests for the Gibbs sampler and its chain summaries."""

import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.stats import gaussian_kde, kstest, norm
from scipy.stats import t as t_dist

from igwvmp import distributions, matops, mcmc, tlmm
from igwvmp.distributions import (
    MoonRockParams,
    igw_mean_inverse,
    igw_to_natural,
    inv_chisq_sqrt_mean,
    inv_chisq_sqrt_sd,
    moonrock_mean,
    moonrock_sample,
    moonrock_variance,
)
from igwvmp.errors import DimensionMismatch, DomainError, InvalidHyperparameter, NumericalFailure
import oracles
from oracles import dense_design


@pytest.fixture(scope="module")
def small_chain():
    data, truth = tlmm.simulate(seed=11, n_groups=6, group_size=8)
    chain = mcmc.gibbs_fit(data, cfg=mcmc.GibbsConfig(warmup=150, kept=500, seed=21))
    return data, truth, chain


def _synthetic_chain(coeff, sigma2, Sigma, nu):
    kept = sigma2.size
    q = Sigma.shape[-1]
    return mcmc.ChainOutput(
        tuple(f"beta{i}" for i in range(coeff.shape[1])),
        coeff,
        sigma2,
        Sigma,
        nu,
        np.ones(kept),
        np.ones((kept, q)),
    )


def test_config_validation():
    with pytest.raises(InvalidHyperparameter):
        mcmc.GibbsConfig(warmup=-1)
    with pytest.raises(InvalidHyperparameter):
        mcmc.GibbsConfig(kept=0)
    cfg = mcmc.GibbsConfig()
    assert (cfg.warmup, cfg.kept) == (1000, 5000)


def test_coefficient_conditional_matches_ridge_solution():
    # with b fixed at 1 and all scales held, the draws are iid Gaussian
    # around the closed-form penalized least-squares solution
    rng = np.random.default_rng(9)
    data, _ = tlmm.simulate(seed=2, n_groups=5, group_size=6)
    des = tlmm.assemble_design(data)
    p, q, m = des.n_fixed, des.n_random, des.n_groups
    sigma2 = 0.35
    Sigma = np.array([[1.4, 0.3], [0.3, 0.9]])
    fixed_scale = 10.0
    b = np.ones(data.n_obs)
    C = dense_design(des)

    M = C.T @ C / sigma2
    M[:p, :p] += np.eye(p) / fixed_scale**2
    Sig_inv = np.linalg.inv(Sigma)
    for i in range(m):
        s = p + i * q
        M[s : s + q, s : s + q] += Sig_inv
    ridge = np.linalg.solve(M, C.T @ data.y / sigma2)

    n = 4000
    draws = np.array(
        [mcmc.draw_coefficients(rng, data.y, des, b, sigma2, Sig_inv, fixed_scale) for _ in range(n)]
    )
    se = draws.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - ridge) < 3 * se)
    # draw covariance matches the conditional covariance M^{-1}
    emp_cov = np.cov(draws.T)
    assert np.allclose(emp_cov, np.linalg.inv(M), atol=6 * np.max(se) * np.sqrt(n) * np.max(se))


class _FixedNormal:
    """An rng stand-in whose standard normal draws are a fixed vector z
    (all zero by default)."""

    def __init__(self, z=None):
        self.z = z

    def standard_normal(self, size):
        return np.zeros(size) if self.z is None else self.z


def _draw_setting():
    """A small index-form design with random weights, and the dense
    conditional precision M and right-hand side of its coefficient draw."""
    rng = np.random.default_rng(12)
    data, _ = tlmm.simulate(seed=3, n_groups=4, group_size=7)
    des = tlmm.assemble_design(data)
    p, q, m = des.n_fixed, des.n_random, des.n_groups
    b = rng.uniform(0.3, 3.0, data.n_obs)
    sigma2, fixed_scale = 0.6, 4.0
    Sigma = np.array([[1.1, -0.4], [-0.4, 0.7]])
    C = dense_design(des)
    M = C.T @ np.diag(1.0 / b) @ C / sigma2
    M[:p, :p] += np.eye(p) / fixed_scale**2
    for i in range(m):
        s = p + i * q
        M[s : s + q, s : s + q] += np.linalg.inv(Sigma)
    rhs = C.T @ (data.y / b) / sigma2
    args = (data.y, des, b, sigma2, np.linalg.inv(Sigma), fixed_scale)
    return args, M, rhs


def test_coefficient_draw_without_noise_is_the_conditional_mean():
    args, M, rhs = _draw_setting()
    got = mcmc.draw_coefficients(_FixedNormal(), *args)
    # two factorizations of M agree to rounding times its condition number
    expected = np.linalg.solve(M, rhs)
    bound = 100 * np.finfo(float).eps * np.linalg.cond(M) * np.linalg.norm(expected)
    assert np.linalg.norm(got - expected) <= bound


def test_coefficient_draw_covariance_is_the_conditional_covariance():
    # the draw is mean + R z; unit vectors z recover R column by column,
    # and R R^T must be M^{-1} to rounding
    args, M, _ = _draw_setting()
    k = M.shape[0]
    mean = mcmc.draw_coefficients(_FixedNormal(), *args)
    R = np.column_stack(
        [mcmc.draw_coefficients(_FixedNormal(np.eye(k)[j]), *args) - mean for j in range(k)]
    )
    cov = np.linalg.inv(M)
    bound = 100 * np.finfo(float).eps * np.linalg.cond(M) * np.linalg.norm(cov)
    assert np.linalg.norm(R @ R.T - cov) <= bound


def test_coefficient_draw_rejects_a_non_spd_precision():
    # a random-effects covariance with a negative eigenvalue makes every
    # group block of M indefinite
    data, _ = tlmm.simulate(seed=3, n_groups=4, group_size=7)
    des = tlmm.assemble_design(data)
    Sigma_inv = np.linalg.inv(np.array([[1.0, 0.0], [0.0, -1e-6]]))
    with pytest.raises(NumericalFailure):
        mcmc.draw_coefficients(
            _FixedNormal(), data.y, des, np.ones(data.n_obs), 0.5, Sigma_inv, 10.0
        )


def test_three_random_effects_raise_dimension_mismatch():
    # the arrowhead factor serves the designs' p and q of 1 or 2
    rng = np.random.default_rng(4)
    group = np.repeat(np.arange(3), 5)
    des = tlmm.DesignInfo(rng.standard_normal((15, 2)), rng.standard_normal((15, 3)), group, 3)
    y, b = rng.standard_normal(15), np.ones(15)
    with pytest.raises(DimensionMismatch):
        mcmc.draw_coefficients(_FixedNormal(), y, des, b, 0.5, np.eye(3), 10.0)
    k = des.n_coefficients
    identity = matops.Arrowhead(np.eye(2), np.zeros((3, 2, 3)), np.array([np.eye(3)] * 3))
    eta = np.concatenate((np.zeros(k), -0.5 * matops.ravel_arrowhead(identity)))
    with pytest.raises(DimensionMismatch):
        tlmm.extract_gaussian(eta, 2, 3, 3)


def test_both_engines_factor_the_coefficients_in_matops(monkeypatch):
    calls = []
    factor = matops.arrowhead_cholesky

    def spy(a, h, shift=0.0):
        calls.append(a.border.shape)
        return factor(a, h, shift)

    monkeypatch.setattr(matops, "arrowhead_cholesky", spy)
    data, _ = tlmm.simulate(seed=2, n_groups=5, group_size=6)
    mcmc.gibbs_fit(data, cfg=mcmc.GibbsConfig(warmup=0, kept=1, seed=0))
    assert calls == [(5, 2, 2)]
    graph = tlmm.build_graph(data, tlmm.TLMMHyper.diffuse(2))
    graph.run(tol=1e-10, max_iters=1)
    assert len(calls) > 1 and set(calls) == {(5, 2, 2)}

    # the coefficient draw and the Gaussian extraction call no LAPACK routine
    def lapack(*args, **kwargs):
        raise AssertionError("np.linalg on the coefficient path")

    args, _, _ = _draw_setting()
    eta = graph.q_star("coefficients").eta
    for name in ("cholesky", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, lapack)
    mcmc.draw_coefficients(np.random.default_rng(0), *args)
    tlmm.extract_gaussian(eta, 2, 2, 5)
    tlmm.extract_gaussian(eta, 2, 2, 5, dense=True)


class _FixedBartlett:
    """An rng stand-in for one covariance draw: fixed Bartlett normals and
    chi-square draws."""

    def __init__(self, normals, chi2):
        self.normals = np.asarray(normals, dtype=float)
        self.chi2 = np.asarray(chi2, dtype=float)

    def standard_normal(self, size):
        return self.normals.reshape(size)

    def chisquare(self, df, size):
        return self.chi2.reshape(size)


def test_singular_covariance_draw_raises():
    cases = [
        # a zero Bartlett pivot: Sigma would be infinite, Sigma^{-1} singular
        (24.0, np.eye(2), _FixedBartlett([0.3], [0.0, 20.0])),
        (21.0, np.eye(1), _FixedBartlett([], [0.0])),
        # Sigma^{-1} overflows
        (24.0, 1e-310 * np.eye(2), _FixedBartlett([0.3], [23.0, 22.0])),
        # the conditional's scale is singular
        (24.0, np.zeros((2, 2)), np.random.default_rng(0)),
        (24.0, np.array([[1.0, 1.0], [1.0, 1.0]]), np.random.default_rng(0)),
    ]
    for xi, Lam, rng in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure):
                mcmc.draw_random_cov(rng, xi, Lam)


# ---------------------------------------------------------------------------
# the closed-form q x q and p x p algebra of ``matops``
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def _vech(M):
    """Python floats, as ``matops._symmetric_vech`` gives them."""
    return tuple(float(M[i, j]) for i, j in ((0, 0), (1, 0), (1, 1)) if i < M.shape[0])


def _rotation(rng):
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])


def _small_symmetric_matrices():
    """1 x 1 and 2 x 2 symmetric matrices by kind: random SPD at scales
    1e-5 to 1e5; near-singular with eigenvalue ratio 1e-13 (below the SPD
    margin of 1e-12) and 1e-11 (above it); indefinite or exactly singular;
    and with a NaN or an infinity in each entry."""
    rng = np.random.default_rng(5)
    kinds = {"random": [], "near-singular": [], "indefinite": [], "non-finite": []}
    for _ in range(40):
        scale = 10.0 ** rng.uniform(-5.0, 5.0)
        A = rng.standard_normal((2, 2))
        kinds["random"].append(scale * (A @ A.T + 0.1 * np.eye(2)))
        kinds["random"].append(np.array([[scale]]))
        Q = _rotation(rng)
        for second in (1e-13, 1e-11):
            kinds["near-singular"].append(scale * Q @ np.diag([1.0, second]) @ Q.T)
        for second in (-1e-3, -1.0):
            kinds["indefinite"].append(scale * Q @ np.diag([1.0, second]) @ Q.T)
        kinds["indefinite"].append(np.array([[-scale]]))
        # singular with an exactly zero last pivot
        kinds["indefinite"].append(4.0 ** rng.integers(-8, 9) * np.array([[4.0, 2.0], [2.0, 1.0]]))
    kinds["near-singular"] += [np.array([[x]]) for x in (1e-300, 5e-324)]
    kinds["indefinite"].append(np.zeros((1, 1)))
    kinds["non-finite"] += [np.array([[x]]) for x in (np.nan, np.inf, -np.inf)]
    for i, j in ((0, 0), (1, 0), (1, 1)):
        for bad in (np.nan, np.inf, -np.inf):
            M = np.array([[2.0, 0.5], [0.5, 1.0]])
            M[i, j] = M[j, i] = bad
            kinds["non-finite"].append(M)
    return kinds


SMALL_MATRICES = _small_symmetric_matrices()


def _lapack_factor(M):
    """np.linalg.cholesky's factor, or None where it fails or is not finite."""
    with np.errstate(all="ignore"):
        try:
            L = np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            return None
    return L if np.all(np.isfinite(L)) else None


@pytest.mark.parametrize("kind", SMALL_MATRICES)
def test_closed_form_spd_verdict_is_is_spd(kind):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [matops._is_spd(_vech(M)) for M in SMALL_MATRICES[kind]]
    assert got == [matops.is_spd(M) for M in SMALL_MATRICES[kind]]


@pytest.mark.parametrize("kind", SMALL_MATRICES)
def test_closed_form_factor_matches_lapack(kind):
    for M in SMALL_MATRICES[kind]:
        want = _lapack_factor(M)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if want is None:
                with pytest.raises(NumericalFailure):
                    matops._cholesky(_vech(M), "M")
                continue
            got = matops._cholesky(_vech(M), "M")
        assert_allclose(got[:2], _vech(want)[:2], rtol=4 * EPS, atol=0.0)
        if len(got) == 3:
            # the last pivot cancels: its error is about eps M_22 / L_22
            assert abs(got[2] - want[1, 1]) <= 4 * EPS * M[1, 1] / want[1, 1]


def test_closed_form_group_factors_match_lapack():
    blocks = [M for Ms in SMALL_MATRICES.values() for M in Ms if M.shape == (2, 2)]
    spd = np.array([M for M in blocks if _lapack_factor(M) is not None])
    want = np.linalg.cholesky(spd)
    got = matops._group_factors(tuple(spd[:, i, j] for i, j in ((0, 0), (1, 0), (1, 1))))
    assert_allclose(got[0], want[:, 0, 0], rtol=4 * EPS, atol=0.0)
    assert_allclose(got[1], want[:, 1, 0], rtol=4 * EPS, atol=0.0)
    assert np.all(np.abs(got[2] - want[:, 1, 1]) <= 4 * EPS * spd[:, 1, 1] / want[:, 1, 1])
    bad = np.array([M for M in blocks if _lapack_factor(M) is None])
    with np.errstate(all="ignore"):
        got = matops._group_factors(tuple(bad[:, i, j] for i, j in ((0, 0), (1, 0), (1, 1))))
    # a failing block leaves a factor that is not finite with positive pivots
    ok = (got[0] > 0) & (got[2] > 0) & np.all(np.isfinite(got), axis=0)
    assert not np.any(ok)


def _largest(x):
    """The largest absolute entry, which unlike a 2-norm cannot overflow."""
    return float(np.max(np.abs(x)))


def _small_arrowheads(M, p, q):
    """Arrowheads with a zero border and M as the middle of three group
    blocks (when M is q x q) or as the corner (when M is p x p)."""
    corner, blocks = 2.0 * np.eye(p), np.array([np.eye(q), 3.0 * np.eye(q), 0.5 * np.eye(q)])
    if M.shape == (q, q):
        yield matops.Arrowhead(corner, np.zeros((3, p, q)), np.array([blocks[0], M, blocks[2]]))
    if M.shape == (p, p):
        yield matops.Arrowhead(M, np.zeros((3, p, q)), blocks)


@pytest.mark.parametrize("kind", SMALL_MATRICES)
@pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_arrowhead_factor_matches_lapack_on_small_matrices(kind, p, q):
    # the closed-form factor, its solves and its moments against the LAPACK
    # reference; where that fails, a NumericalFailure and no warning
    rng = np.random.default_rng(8)
    for M in SMALL_MATRICES[kind]:
        for a in _small_arrowheads(M, p, q):
            h = rng.standard_normal(p + 3 * q)
            with np.errstate(all="ignore"):
                try:
                    ref = oracles.lapack_arrowhead_cholesky(a)
                except np.linalg.LinAlgError:
                    ref = None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if ref is None:
                    with pytest.raises(NumericalFailure):
                        matops.arrowhead_cholesky(a, h)
                    continue
                L, v = matops.arrowhead_cholesky(a, h)
            # the block holding M matches as the closed forms of M's factor do
            got, want = (L.blocks, L.corner), (ref.blocks[1], ref.corner)
            which = 0 if a.corner is not M else 1
            factor, lapack = got[which], want[which]
            if which == 0:
                factor = tuple(f[1] for f in factor)
            assert_allclose(factor[:2], _vech(lapack)[:2], rtol=4 * EPS, atol=0.0)
            if len(factor) == 3:
                assert abs(factor[2] - lapack[1, 1]) <= 4 * EPS * M[1, 1] / lapack[1, 1]
            P = oracles.dense_arrowhead(a)
            with np.errstate(all="ignore"):
                v_ref = oracles.lapack_forward(ref, h)
                x_ref = oracles.lapack_backward(ref, v_ref)
                cov_ref = np.linalg.inv(P)
            # a variance of 1e323 overflows, in the reference as here
            if not np.all(np.isfinite(x_ref) & np.isfinite(cov_ref).all()):
                continue
            # the last pivot of a near-singular block carries a relative
            # error of about eps cond(P) in either factor
            bound = 100 * float(EPS) * float(np.linalg.cond(P))
            assert _largest(v - v_ref) <= bound * _largest(v_ref)
            x = matops.arrowhead_backward(L, v)
            assert _largest(x - x_ref) <= bound * _largest(x_ref)
            mean, cov = matops.arrowhead_moments(L, v, dense=True)
            assert_array_equal(mean, x)
            assert _largest(cov - cov_ref) <= bound * _largest(cov_ref)


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("seed", range(6))
def test_covariance_draw_and_its_inverse_match_numpy(q, seed):
    # the factor-form draw against igw_sample's, and its closed-form inverse
    # against np.linalg.inv, on the same Bartlett draws
    rng = np.random.default_rng(seed)
    Q = _rotation(rng)[:q, :q]
    ratio = (1.0, 1e-3, 1e-11)[seed % 3]
    Lam = 10.0 ** rng.uniform(-5.0, 5.0) * Q @ np.diag([1.0, ratio][:q]) @ Q.T
    xi = 2.0 * q + rng.integers(0, 30)
    normals = rng.standard_normal(q * (q - 1) // 2)
    chi2 = rng.chisquare(xi - q + 1.0 - np.arange(q))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Sigma, Sigma_inv = mcmc.draw_random_cov(_FixedBartlett(normals, chi2), xi, Lam)
    want, _ = oracles.reference_draw_random_cov(_FixedBartlett(normals, chi2), xi, Lam)
    cond = np.linalg.cond(want)
    assert np.linalg.norm(Sigma - want) <= 100 * EPS * cond * np.linalg.norm(want)
    inverse = np.linalg.inv(Sigma)
    assert np.linalg.norm(Sigma_inv - inverse) <= 100 * EPS * cond * np.linalg.norm(inverse)
    assert np.array_equal(Sigma, Sigma.T) and np.array_equal(Sigma_inv, Sigma_inv.T)


@pytest.mark.parametrize(
    "Sigma_inv",
    [
        # indefinite, by more than the data's precision can make up
        np.array([[1.0, 0.0], [0.0, -1e6]]),
        np.array([[1e6, 2e6], [2e6, 1e6]]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [0.0, np.inf]]),
        np.array([[1.0, -np.inf], [-np.inf, 1.0]]),
    ],
)
def test_coefficient_draw_failures_are_numerical_failures(Sigma_inv):
    args, _, _ = _draw_setting()
    y, des, b, sigma2, _, fixed_scale = args
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure):
            mcmc.draw_coefficients(_FixedNormal(), y, des, b, sigma2, Sigma_inv, fixed_scale)


def _run_chain(data, design, cfg, monkeypatch=None):
    """A chain from ``gibbs_fit``; with ``monkeypatch``, the reference chain
    whose covariance and coefficient draws are the oracles'."""
    if monkeypatch is None:
        return mcmc.gibbs_fit(data, cfg=cfg, design=design)
    with monkeypatch.context() as patch:
        patch.setattr(mcmc, "draw_random_cov", oracles.reference_draw_random_cov)
        patch.setattr(mcmc, "draw_coefficients", oracles.reference_draw_coefficients)
        return mcmc.gibbs_fit(data, cfg=cfg, design=design)


@pytest.mark.parametrize("design", ["slope", "intercept"])
@pytest.mark.parametrize("seed", [1, 2])
def test_chain_matches_the_reference_chain(design, seed, monkeypatch):
    data, _ = tlmm.simulate(seed=seed, n_groups=20, group_size=15)
    cfg = mcmc.GibbsConfig(warmup=300, kept=1500, seed=seed)
    chain = _run_chain(data, design, cfg)
    reference = _run_chain(data, design, cfg, monkeypatch)
    for got, want in zip(chain[1:], reference[1:]):
        assert np.all(np.abs(got - want) <= 1e-10 * want.std(axis=0))


class _Recorder:
    """A Generator that records each call's method and arguments."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def record(*args, **kwargs):
            plain = tuple(np.asarray(a).tolist() for a in args)
            self.calls.append((name, plain, {k: np.asarray(v).tolist() for k, v in kwargs.items()}))
            return method(*args, **kwargs)

        return record


@pytest.mark.parametrize("design", ["slope", "intercept"])
def test_chain_makes_the_reference_chains_random_calls(design, monkeypatch):
    data, _ = tlmm.simulate(seed=3, n_groups=20, group_size=15)
    cfg = mcmc.GibbsConfig(warmup=10, kept=40, seed=3)
    recorders = []
    default_rng = np.random.default_rng

    def recording_rng(seed):
        recorders.append(_Recorder(default_rng(seed)))
        return recorders[-1]

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    _run_chain(data, design, cfg)
    _run_chain(data, design, cfg, monkeypatch)
    got, want = (r.calls for r in recorders)
    assert len(want) > 50 * 7
    # the same methods with the same argument shapes; the values are those
    # of the two chains' states, which agree to rounding
    assert [(name, [np.shape(a) for a in args], kwargs) for name, args, kwargs in got] == [
        (name, [np.shape(a) for a in args], kwargs) for name, args, kwargs in want
    ]
    for (_, got_args, _), (_, want_args, _) in zip(got, want):
        for a, b in zip(got_args, want_args):
            # a size of None reads as NaN
            assert_allclose(np.asarray(a, dtype=float), np.asarray(b, dtype=float), rtol=1e-12)


def test_gibbs_iterations_need_no_k_by_k_array():
    # m = 5000 groups of 15: k = 10002, so one k x k array is 800 MB
    data, _ = tlmm.simulate(seed=1, n_groups=5000, group_size=15)
    tracemalloc.start()
    try:
        chain = mcmc.gibbs_fit(data, cfg=mcmc.GibbsConfig(warmup=1, kept=2, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chain.coefficients.shape == (2, 10002)
    assert peak < 64e6


def _prior_covariance_draws(scales, warmup, kept, seed):
    # with no groups, the two covariance blocks sample the Huang-Wand prior
    rng = np.random.default_rng(seed)
    scales = np.asarray(scales, dtype=float)
    A_diag = np.ones(scales.size)
    Sigma, A = [], []
    for it in range(warmup + kept):
        S, S_inv = mcmc.draw_random_cov(rng, 2.0 * scales.size, np.diag(1.0 / A_diag))
        A_diag = mcmc.draw_cov_auxiliary(rng, S_inv, scales)
        if it >= warmup:
            Sigma.append(S)
            A.append(A_diag)
    return np.array(Sigma), np.array(A)


def test_prior_only_correlation_is_uniform():
    # the Huang-Wand prior's correlation is uniform on (-1, 1)
    Sigma, _ = _prior_covariance_draws((1.0, 2.0), warmup=200, kept=3000, seed=3)
    sds = np.sqrt(Sigma[:, [0, 1], [0, 1]])
    rho = Sigma[:, 0, 1] / (sds[:, 0] * sds[:, 1])
    stat = kstest((rho + 1.0) / 2.0, "uniform").statistic
    assert stat < 0.05
    assert abs(np.mean(rho)) < 0.06


def test_prior_only_draws_are_positive_and_spd():
    Sigma, A = _prior_covariance_draws((1.0, 1.0), warmup=50, kept=200, seed=9)
    assert np.all(A > 0)
    np.linalg.cholesky(Sigma)


def test_chain_output_invariants(small_chain):
    data, _, chain = small_chain
    k = 2 + 6 * 2
    assert chain.coefficients.shape == (500, k)
    assert len(chain.names) == k
    assert chain.names[2] == "u[1,0]"
    assert np.all(chain.sigma2 > 0)
    assert np.all(chain.a > 0)
    assert np.all(chain.A > 0)
    np.linalg.cholesky(chain.Sigma)


def test_chain_tracks_truth_roughly(small_chain):
    _, truth, chain = small_chain
    mean = chain.coefficients[:, :2].mean(axis=0)
    sd = chain.coefficients[:, :2].std(axis=0)
    assert np.all(np.abs(mean - truth.beta) < 5 * sd)


def test_chain_is_reproducible():
    data, _ = tlmm.simulate(seed=4, n_groups=3, group_size=5)
    cfg = mcmc.GibbsConfig(warmup=10, kept=50, seed=77)
    c1 = mcmc.gibbs_fit(data, cfg=cfg)
    c2 = mcmc.gibbs_fit(data, cfg=cfg)
    assert np.array_equal(c1.coefficients, c2.coefficients)
    assert np.array_equal(c1.Sigma, c2.Sigma)


# independent chains in the stationarity check, and the family-wise false
# alarm rate of its drift test
STATIONARITY_CHAINS = 8
STATIONARITY_LEVEL = 0.005


def stationarity_failures(data, summary, seeds, kept=500):
    """The checks that chains started at the VMP means fail, one chain per
    seed, for beta0, beta1, sigma and nu:

    - drift: the first-half minus second-half mean of each chain (of
      log sigma and log nu, whose draws are skewed) has mean zero, by a
      t-test over the chains at family-wise level STATIONARITY_LEVEL;
    - location: the pooled mean lies within 3 pooled sd of the VMP mean;
    - spread: the pooled sd is at least a tenth of the VMP posterior sd,
      which a chain that does not move fails.
    """
    delta, lam = summary.noise_delta, summary.noise_lambda
    init = {
        "coefficients": summary.coefficient_mean,
        "sigma2": lam / (delta - 2.0),
        "nu": summary.df_mean(),
    }
    chains = [
        mcmc.chain_series(
            mcmc.gibbs_fit(data, cfg=mcmc.GibbsConfig(warmup=0, kept=kept, seed=seed), init=init)
        )
        for seed in seeds
    ]
    vmp = {
        "beta0": (summary.coefficient_mean[0], summary.coefficient_sd[0]),
        "beta1": (summary.coefficient_mean[1], summary.coefficient_sd[1]),
        "sigma": (inv_chisq_sqrt_mean(delta, lam), inv_chisq_sqrt_sd(delta, lam)),
        "nu": (summary.df_mean(), summary.df_sd()),
    }
    threshold = t_dist.ppf(1.0 - STATIONARITY_LEVEL / (2 * len(vmp)), len(chains) - 1)
    failures = []
    for name, (mean, sd) in vmp.items():
        draws = np.array([chain[name] for chain in chains])
        scaled = np.log(draws) if name in ("sigma", "nu") else draws
        half = kept // 2
        drift = scaled[:, :half].mean(axis=1) - scaled[:, half:].mean(axis=1)
        se = drift.std(ddof=1) / np.sqrt(drift.size)
        if not abs(drift.mean()) < threshold * se:
            failures.append(f"{name} drift")
        if not abs(draws.mean() - mean) < 3.0 * draws.std(ddof=1):
            failures.append(f"{name} location")
        if not draws.std(ddof=1) > 0.1 * sd:
            failures.append(f"{name} spread")
    return failures


def test_stationarity_when_started_from_vmp_means(small_chain):
    # On these 48 observations nu and sigma mix slowly (lag-1
    # autocorrelation about 0.94 and 0.79) and nu has a long right tail, so
    # neither single-draw bounds nor one chain's split-half z is calibrated;
    # across independent chains the drift test is. Over 200 repetitions
    # (seeds 8r..8r+7) it raised no false alarm with either the slice or
    # the grid draw of nu, and it fails a draw of nu that triples or stays.
    data, _, _ = small_chain
    summary = tlmm.fit(data).summary
    seeds = range(13, 13 + STATIONARITY_CHAINS)
    assert stationarity_failures(data, summary, seeds) == []


def test_init_shape_mismatch_raises(small_chain):
    data, _, _ = small_chain
    cases = [
        ({"coefficients": np.zeros(3)}, DimensionMismatch),
        ({"A": np.ones(3)}, DimensionMismatch),
        ({"sigma2": np.ones(2)}, DimensionMismatch),
        # keys the sampler does not read: Sigma and b are drawn before use
        ({"sigma": 1.0}, InvalidHyperparameter),
        ({"Sigma": 1e9 * np.eye(2)}, InvalidHyperparameter),
        ({"b": 7.0}, InvalidHyperparameter),
        ({"nu": -3.0}, InvalidHyperparameter),
        ({"a": -1.0}, InvalidHyperparameter),
        ({"sigma2": np.nan}, InvalidHyperparameter),
        ({"sigma2": 0.0}, InvalidHyperparameter),
        ({"A": np.array([1.0, np.inf])}, InvalidHyperparameter),
        ({"coefficients": np.full(14, np.nan)}, InvalidHyperparameter),
        ({"nu": "three"}, InvalidHyperparameter),
    ]
    for init, error in cases:
        with pytest.raises(error):
            mcmc.gibbs_fit(data, cfg=mcmc.GibbsConfig(warmup=0, kept=1, seed=0), init=init)


def test_init_sets_the_blocks_read_before_they_are_drawn(small_chain):
    data, _, _ = small_chain
    cfg = mcmc.GibbsConfig(warmup=0, kept=3, seed=0)
    default = mcmc.gibbs_fit(data, cfg=cfg)
    init = {"coefficients": np.zeros(14), "sigma2": 1.0, "a": 1.0, "A": np.ones(2), "nu": 2.0}
    same = mcmc.gibbs_fit(data, cfg=cfg, init=init)
    for got, want in zip(same[1:], default[1:]):
        assert np.array_equal(got, want)
    for name, value in (("sigma2", 40.0), ("a", 1e-6), ("A", np.full(2, 1e-6)), ("nu", 50.0)):
        moved = mcmc.gibbs_fit(data, cfg=cfg, init={name: value})
        assert not np.array_equal(moved.coefficients, default.coefficients), name


def test_df_half_conditional_sampler_mean():
    # the upsilon conditional at N=5, beta=10 is the two-parameter density
    # itself; its inverse-CDF sampler must reproduce the quadrature mean
    rng = np.random.default_rng(0)
    params = MoonRockParams(5.0, 10.0)
    draws = moonrock_sample(params, rng, size=100_000)
    assert abs(np.mean(draws) / moonrock_mean(params) - 1.0) < 0.01
    # and draw_df_half reaches the same distribution through its b argument:
    # alpha = b.size = 5, beta = 5 + sum(log 1 + 1/1) = 10
    # consecutive slice updates are correlated, so the standard error comes
    # from 40 batch means
    rng2 = np.random.default_rng(1)
    ups = np.empty(8000)
    upsilon = 1.0
    for i in range(ups.size):
        upsilon = mcmc.draw_df_half(rng2, np.ones(5), 5.0, upsilon)
        ups[i] = upsilon
    batch_means = ups.reshape(40, -1).mean(axis=1)
    se = batch_means.std(ddof=1) / np.sqrt(batch_means.size)
    assert abs(ups.mean() - moonrock_mean(params)) < 4 * se


def test_gibbs_fit_builds_no_moonrock_grid(monkeypatch):
    builds = []
    grid_init = distributions._MoonRockGrid.__init__

    def counted(self, alpha, beta):
        builds.append((alpha, beta))
        grid_init(self, alpha, beta)

    monkeypatch.setattr(distributions._MoonRockGrid, "__init__", counted)
    data, _ = tlmm.simulate(seed=4, n_groups=3, group_size=5)
    chain = mcmc.gibbs_fit(data, cfg=mcmc.GibbsConfig(warmup=20, kept=50, seed=0))
    assert np.all(np.isfinite(chain.nu)) and np.ptp(chain.nu) > 0
    assert builds == []


# ---------------------------------------------------------------------------
# moment matching (the fit-mcmc output densities)
# ---------------------------------------------------------------------------


def sample_moments(draws):
    return np.mean(draws), np.var(draws, ddof=1)


def test_match_inv_chisq_reproduces_mean_and_variance():
    draws = 3.0 / np.random.default_rng(2).chisquare(9.0, 4000)
    delta, lam = mcmc.match_inv_chisq(draws)
    mean, var = sample_moments(draws)
    assert_allclose(lam / (delta - 2.0), mean, rtol=1e-8)
    assert_allclose(2.0 * (lam / (delta - 2.0)) ** 2 / (delta - 4.0), var, rtol=1e-8)


def test_match_igw_full_reproduces_mean_and_trace():
    # E(Sigma) = Lambda/(xi - 2q) is matched whole, E(Sigma^-1) through
    # tr(E(Sigma^-1) E(Sigma))
    rng = np.random.default_rng(3)
    A = rng.standard_normal((2000, 2, 3))
    draws = np.linalg.inv(A @ np.swapaxes(A, -1, -2) + 0.5 * np.eye(2))
    p = mcmc.match_igw_full(draws)
    mean = draws.mean(axis=0)
    mean_inv = np.linalg.inv(draws).mean(axis=0)
    assert_allclose(p.Lambda / (p.xi - 4.0), mean, rtol=1e-8)
    assert_allclose(
        np.trace(igw_mean_inverse(igw_to_natural(p)) @ mean),
        np.trace(mean_inv @ mean),
        rtol=1e-8,
    )


def test_match_moonrock_overdispersed_gets_alpha_zero():
    # variance above mean^2: the exponential member, matched on the mean
    draws = np.random.default_rng(4).gamma(0.5, 3.0, 4000)
    mean, var = sample_moments(draws)
    assert var >= mean**2
    p = mcmc.match_moonrock(draws)
    assert p.alpha == 0.0
    assert_allclose(moonrock_mean(p), mean, rtol=1e-8)


def test_match_moonrock_reproduces_mean_and_variance():
    # variance below mean^2: alpha and beta from the two root finds
    draws = np.random.default_rng(5).gamma(6.0, 0.5, 4000)
    mean, var = sample_moments(draws)
    assert var < mean**2
    p = mcmc.match_moonrock(draws)
    assert p.alpha > 0.0
    assert_allclose(moonrock_mean(p), mean, rtol=1e-8)
    assert_allclose(moonrock_variance(p), var, rtol=1e-8)


def test_bracketed_root():
    # the root of cos(x) = x, the Dottie number, from either orientation
    dottie = 0.7390851332151607
    for a, b in ((0.0, 1.0), (1.0, 0.0)):
        assert abs(mcmc._root_in(lambda x: np.cos(x) - x, a, b, xtol=1e-12) - dottie) < 1e-12
    assert mcmc._root_in(lambda x: x, 0.0, 1.0, xtol=1e-12) == 0.0
    with pytest.raises(NumericalFailure):
        mcmc._root_in(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)


def test_summarize_requires_enough_draws():
    rng = np.random.default_rng(0)
    chain = _synthetic_chain(
        rng.standard_normal((50, 1)),
        np.full(50, 0.5),
        np.ones((50, 1, 1)),
        np.full(50, 2.0),
    )
    with pytest.raises(DomainError):
        mcmc.summarize(chain)


def test_summarize_constant_chain_has_zero_sd():
    chain = _synthetic_chain(
        np.full((200, 1), 3.0),
        np.full(200, 0.5),
        np.ones((200, 1, 1)),
        np.full(200, 2.0),
    )
    s = mcmc.summarize(chain)
    beta = s.parameters["beta0"]
    assert beta.sd == 0.0
    assert beta.mean == 3.0
    assert beta.split_z == 0.0
    assert s.converged


def test_kde_density_of_constant_chain_is_unit_spike():
    grid, density = mcmc.kde_density(np.full(200, 3.0))
    assert grid.shape == (401,)
    assert abs(np.trapezoid(density, grid) - 1.0) < 1e-6
    assert grid[np.argmax(density)] == pytest.approx(3.0, abs=1e-12)


def test_summarize_standard_normal_moments():
    rng = np.random.default_rng(6)
    chain = _synthetic_chain(
        rng.standard_normal((5000, 1)),
        np.abs(rng.standard_normal(5000)) + 0.1,
        np.ones((5000, 1, 1)) + np.abs(rng.standard_normal((5000, 1, 1))),
        np.abs(rng.standard_normal(5000)) + 1.0,
    )
    s = mcmc.summarize(chain)
    beta = s.parameters["beta0"]
    assert abs(beta.mean) < 0.05
    assert abs(beta.sd - 1.0) < 0.05


def test_kde_density_of_standard_normal_draws():
    draws = np.random.default_rng(6).standard_normal(5000)
    grid, density = mcmc.kde_density(draws)
    assert grid.shape == (401,)
    assert grid[0] < draws.min() and grid[-1] > draws.max()
    assert abs(np.trapezoid(density, grid) - 1.0) < 0.02
    # density peaks near the mean
    assert abs(grid[np.argmax(density)]) < 0.25
    # a caller's grid gets the same kernel estimate
    _, again = mcmc.kde_density(draws, grid)
    assert np.array_equal(again, density)


def _kde_oracle_draws():
    rng = np.random.default_rng(13)
    return {
        "standard normal": rng.standard_normal(5000),
        "skewed gamma": rng.gamma(1.5, 2.0, 3000),
        "tight cluster": 5.0 + 1e-3 * rng.standard_normal(2000),
    }


@pytest.mark.parametrize("kind", ["standard normal", "skewed gamma", "tight cluster"])
def test_kde_density_matches_scipy_gaussian_kde(kind):
    draws = _kde_oracle_draws()[kind]
    oracle = gaussian_kde(draws, bw_method="silverman")
    h = float(np.sqrt(oracle.covariance[0, 0]))
    expected_grid = np.linspace(draws.min() - 3 * h, draws.max() + 3 * h, 401)

    grid, density = mcmc.kde_density(draws)
    assert np.max(np.abs(grid - expected_grid) / np.abs(expected_grid)) <= 1e-12
    expected = oracle(grid)
    peak = expected.max()
    assert np.max(np.abs(density - expected)) <= 1e-12 * peak

    # caller's grids shorter than one block and not a whole number of blocks
    block = mcmc._KDE_BLOCK_BYTES // (8 * draws.size)
    for size in (block - 1, 3 * block + 1):
        points = np.linspace(grid[0], grid[-1], size)
        returned, values = mcmc.kde_density(draws, points)
        assert returned is points
        assert np.max(np.abs(values - oracle(points))) <= 1e-12 * peak


@pytest.mark.parametrize("n_coefficients", [1, 3, 12])
def test_summarize_threshold_equals_normal_quantile(n_coefficients):
    rng = np.random.default_rng(4)
    chain = _synthetic_chain(
        rng.standard_normal((200, n_coefficients)),
        np.abs(rng.standard_normal(200)) + 0.1,
        np.ones((200, 1, 1)) + np.abs(rng.standard_normal((200, 1, 1))),
        np.abs(rng.standard_normal(200)) + 1.0,
    )
    s = mcmc.summarize(chain)
    n = len(s.parameters)
    # the package's quantile (statistics.NormalDist, Wichura's AS 241) and
    # scipy's differ in the last bit at some n
    assert isinstance(s.z_threshold, float)
    np.testing.assert_array_max_ulp(s.z_threshold, norm.ppf(1.0 - 0.025 / n), maxulp=2)


def test_summarize_derived_parameters(small_chain):
    _, _, chain = small_chain
    s = mcmc.summarize(chain)
    assert {"sigma", "sigma1", "sigma2", "rho", "nu"} <= set(s.parameters)
    rho = s.parameters["rho"]
    assert -1.0 < rho.mean < 1.0
    manual = chain.Sigma[:, 0, 1] / np.sqrt(chain.Sigma[:, 0, 0] * chain.Sigma[:, 1, 1])
    assert rho.mean == pytest.approx(np.mean(manual))
    assert s.parameters["sigma"].mean == pytest.approx(np.mean(np.sqrt(chain.sigma2)))
    assert s.z_threshold > 2.0
