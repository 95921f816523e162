"""Tests for the Gibbs sampler and its chain summaries."""

import tracemalloc

import numpy as np
import pytest
from scipy.stats import gaussian_kde, kstest, norm

from igwvmp import matops, mcmc, tlmm
from igwvmp.distributions import MoonRockParams, moonrock_mean, moonrock_sample
from igwvmp.errors import DimensionMismatch, DomainError, InvalidHyperparameter, NumericalFailure
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
        [mcmc.draw_coefficients(rng, data.y, des, b, sigma2, Sigma, fixed_scale) for _ in range(n)]
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
    args = (data.y, des, b, sigma2, Sigma, fixed_scale)
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
    Sigma = np.array([[1.0, 0.0], [0.0, -1e-6]])
    with pytest.raises(NumericalFailure):
        mcmc.draw_coefficients(
            _FixedNormal(), data.y, des, np.ones(data.n_obs), 0.5, Sigma, 10.0
        )


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


def test_prior_only_correlation_is_uniform():
    hyper = tlmm.TLMMHyper(random_scales=(1.0, 2.0))
    chain = mcmc.gibbs_fit(None, hyper, mcmc.GibbsConfig(warmup=200, kept=3000, seed=3))
    assert chain.coefficients.shape == (3000, 0)
    sds = np.sqrt(chain.Sigma[:, [0, 1], [0, 1]])
    rho = chain.Sigma[:, 0, 1] / (sds[:, 0] * sds[:, 1])
    stat = kstest((rho + 1.0) / 2.0, "uniform").statistic
    assert stat < 0.05
    assert abs(np.mean(rho)) < 0.06


def test_prior_only_draws_are_positive_and_spd():
    hyper = tlmm.TLMMHyper(random_scales=(1.0, 1.0))
    chain = mcmc.gibbs_fit(None, hyper, mcmc.GibbsConfig(warmup=50, kept=200, seed=9))
    assert np.all(chain.sigma2 > 0)
    assert np.all(chain.A > 0)
    np.linalg.cholesky(chain.Sigma)
    assert np.all(chain.nu > 0)


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


def test_stationarity_when_started_from_vmp_means(small_chain):
    data, _, _ = small_chain
    fit = tlmm.fit(data)
    s = fit.summary
    init = {
        "coefficients": s.coefficient_mean,
        "sigma2": s.noise_variance_mean(),
        "Sigma": s.variance_mean(),
        "nu": s.df_mean(),
    }
    chain = mcmc.gibbs_fit(
        data, cfg=mcmc.GibbsConfig(warmup=0, kept=300, seed=13), init=init
    )
    checks = {
        "beta0": (chain.coefficients[:, 0], s.coefficient_mean[0]),
        "beta1": (chain.coefficients[:, 1], s.coefficient_mean[1]),
        "sigma": (np.sqrt(chain.sigma2), s.noise_sd_mean()),
        "nu": (chain.nu, s.df_mean()),
    }
    for name, (draws, center) in checks.items():
        sd = draws.std(ddof=1)
        assert np.max(np.abs(draws - center)) < 6 * sd, name


def test_init_shape_mismatch_raises(small_chain):
    data, _, _ = small_chain
    with pytest.raises(DimensionMismatch):
        mcmc.gibbs_fit(
            data,
            cfg=mcmc.GibbsConfig(warmup=0, kept=1, seed=0),
            init={"coefficients": np.zeros(3)},
        )


def test_df_half_conditional_sampler_mean():
    # the upsilon conditional at N=5, beta=10 is the two-parameter density
    # itself; its inverse-CDF sampler must reproduce the quadrature mean
    rng = np.random.default_rng(0)
    params = MoonRockParams(5.0, 10.0)
    draws = moonrock_sample(params, rng, size=100_000)
    assert abs(np.mean(draws) / moonrock_mean(params) - 1.0) < 0.01
    # and draw_df_half reaches the same distribution through its b argument:
    # alpha = b.size = 5, beta = 5 + sum(log 1 + 1/1) = 10
    rng2 = np.random.default_rng(1)
    ups = np.array([mcmc.draw_df_half(rng2, np.ones(5), 5.0) for _ in range(4000)])
    se = ups.std(ddof=1) / np.sqrt(ups.size)
    assert abs(ups.mean() - moonrock_mean(params)) < 4 * se


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
    assert s.z_threshold == float(norm.ppf(1.0 - 0.025 / n))


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
