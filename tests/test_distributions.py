import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats
from scipy.integrate import IntegrationWarning, quad
from scipy.special import digamma, gammaln, xlogy

from oracles import NaturalMVN, igw_log_density, mvn_from_natural, mvn_to_natural, vec
from igwvmp import distributions as dist
from igwvmp import matops
from igwvmp.distributions import CommonIGW, Graph, MoonRockParams, NaturalIGW
from igwvmp.errors import (
    DivergentIntegral,
    DomainError,
    ImproperMessage,
    InvalidHyperparameter,
    InvalidShape,
    NonSPDPrecision,
    NonSPDScale,
)


def random_spd(d, rng, jitter=None):
    A = rng.standard_normal((d, d))
    return A @ A.T + (d if jitter is None else jitter) * np.eye(d)


def random_igw(graph, d, rng):
    if graph is Graph.FULL:
        xi = 2 * d - 2 + 0.5 + 5 * rng.uniform()
        return CommonIGW(graph, xi, random_spd(d, rng))
    xi = 0.5 + 5 * rng.uniform()
    return CommonIGW(graph, xi, np.diag(rng.uniform(0.5, 3.0, d)))


# ---------------------------------------------------------------------------
# parameter maps
# ---------------------------------------------------------------------------


class TestNaturalMaps:
    def test_known_natural_vector(self):
        # xi = 10, Lambda = I_2: eta1 = -6, eta2 = -vech(I)/2 with the
        # off-diagonal entry picked up twice by D^T
        n = dist.igw_to_natural(CommonIGW(Graph.FULL, 10.0, np.eye(2)))
        assert n.eta1 == -6.0
        assert_allclose(n.eta2, [-0.5, 0.0, -0.5])

    @pytest.mark.parametrize("graph", [Graph.FULL, Graph.DIAG])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_round_trip(self, graph, d):
        rng = np.random.default_rng(hash((graph.value, d)) % 2**32)
        for _ in range(20):
            p = random_igw(graph, d, rng)
            q = dist.igw_from_natural(dist.igw_to_natural(p))
            assert q.graph is p.graph
            assert_allclose(q.xi, p.xi, rtol=1e-13)
            assert_allclose(q.Lambda, p.Lambda, rtol=1e-12, atol=1e-14)

    def test_natural_vector_round_trip(self):
        rng = np.random.default_rng(5)
        n = dist.igw_to_natural(random_igw(Graph.FULL, 3, rng))
        m = NaturalIGW.from_vector(Graph.FULL, n.to_vector())
        assert m.eta1 == n.eta1
        assert_allclose(m.eta2, n.eta2)

    def test_diag_canonicalization_zeroes_off_diagonal(self):
        eta2 = np.array([-0.5, 0.3, -0.5])
        n = NaturalIGW(Graph.DIAG, -2.0, eta2, 2)
        assert_allclose(n.eta2, [-0.5, 0.0, -0.5])

    def test_improper_eta1_rejected(self):
        with pytest.raises(ImproperMessage):
            NaturalIGW(Graph.FULL, -1.0, np.array([-0.5]), 1)

    def test_nonspd_implied_scale_rejected(self):
        # implied scale [[1, 2], [2, 1]] is indefinite
        eta2 = -0.5 * matops.duplication(2).T @ vec(
            np.array([[1.0, 2.0], [2.0, 1.0]])
        )
        with pytest.raises(NonSPDScale):
            NaturalIGW(Graph.FULL, -4.0, eta2, 2)

    def test_common_validation(self):
        with pytest.raises(InvalidShape):
            CommonIGW(Graph.FULL, 2.0, np.eye(2))  # needs xi > 2
        with pytest.raises(InvalidShape):
            CommonIGW(Graph.DIAG, 0.0, np.eye(2))
        with pytest.raises(NonSPDScale):
            CommonIGW(Graph.FULL, 5.0, np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NonSPDScale):
            CommonIGW(Graph.DIAG, 1.0, np.diag([1.0, -2.0]))


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


class TestMeanInverse:
    def test_full_closed_form(self):
        rng = np.random.default_rng(7)
        for d in (1, 2, 3, 5):
            p = random_igw(Graph.FULL, d, rng)
            expected = (p.xi - d + 1) * np.linalg.inv(p.Lambda)
            got = dist.igw_mean_inverse(dist.igw_to_natural(p))
            assert_allclose(got, expected, rtol=1e-11, atol=1e-13)

    def test_diag_closed_form(self):
        p = CommonIGW(Graph.DIAG, 4.0, np.diag([2.0, 3.0, 4.0]))
        got = dist.igw_mean_inverse(dist.igw_to_natural(p))
        assert_allclose(got, 4.0 * np.diag([0.5, 1 / 3, 0.25]), rtol=1e-13)

    def test_identity_scale_example(self):
        p = CommonIGW(Graph.FULL, 10.0, np.eye(2))
        assert_allclose(dist.igw_mean_inverse(dist.igw_to_natural(p)), 9 * np.eye(2))

    def test_improper_combination_raises(self):
        n = NaturalIGW(Graph.FULL, -1.2, np.array([-0.5, 0.0, -0.5]), 2)
        # eta1 + (d+1)/2 = 0.3 >= 0, no finite mean of the inverse
        with pytest.raises(ImproperMessage):
            dist.igw_mean_inverse(n)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


class TestLogDensity:
    def test_full_matches_inverse_wishart(self):
        # scipy.stats.invwishart with df = xi - d + 1 and the same scale
        rng = np.random.default_rng(3)
        for d, xi in [(1, 3.0), (2, 7.5), (3, 9.0)]:
            Lam = random_spd(d, rng)
            X = random_spd(d, rng)
            p = CommonIGW(Graph.FULL, xi, Lam)
            assert_allclose(
                igw_log_density(p, X),
                stats.invwishart.logpdf(X, df=xi - d + 1, scale=Lam),
                rtol=1e-12,
            )

    def test_diag_is_product_of_inverse_chi_squares(self):
        lam = np.array([1.0, 2.0, 0.5])
        p = CommonIGW(Graph.DIAG, 2.5, np.diag(lam))
        x = np.array([0.7, 1.3, 0.4])
        expected = sum(
            dist.inv_chisq_log_density(2.5, lj, xj) for lj, xj in zip(lam, x)
        )
        assert_allclose(igw_log_density(p, np.diag(x)), expected, rtol=1e-13)

    def test_frozen_value_d1(self):
        # closed form -log Gamma(0.5) - 1 = -1.57236494292470008...
        p = CommonIGW(Graph.FULL, 1.0, np.array([[2.0]]))
        assert_allclose(
            igw_log_density(p, np.array([[1.0]])),
            -1.5723649429247001,
            rtol=1e-14,
        )

    def test_rejects_points_outside_support(self):
        p = CommonIGW(Graph.FULL, 5.0, np.eye(2))
        with pytest.raises(DomainError):
            igw_log_density(p, np.diag([1.0, -1.0]))
        pd = CommonIGW(Graph.DIAG, 1.0, np.eye(2))
        with pytest.raises(DomainError):
            igw_log_density(pd, np.array([[1.0, 0.5], [0.5, 1.0]]))

    def test_d1_full_equals_inverse_chi_square(self):
        p = CommonIGW(Graph.FULL, 3.0, np.array([[5.0]]))
        for x in (0.2, 1.0, 4.0):
            assert_allclose(
                igw_log_density(p, np.array([[x]])),
                dist.inv_chisq_log_density(3.0, 5.0, x),
                rtol=1e-13,
            )


class TestInvChiSq:
    def test_frozen_value(self):
        # -log Gamma(1.5) - 1 = -0.87921776236475...
        assert_allclose(
            dist.inv_chisq_log_density(3.0, 2.0, 1.0), -0.8792177623647548, rtol=1e-14
        )

    def test_matches_scipy_invgamma(self):
        # inverse-chi^2(delta, lam) is InvGamma(delta/2, rate lam/2)
        xs = np.array([0.1, 0.5, 1.0, 3.0, 10.0])
        assert_allclose(
            dist.inv_chisq_log_density(1.7, 0.8, xs),
            stats.invgamma.logpdf(xs, 0.85, scale=0.4),
            rtol=1e-12,
        )

    def test_mean_identities_against_samples(self):
        delta, lam = 3.0, 5.0
        rng = np.random.default_rng(11)
        x = dist.inv_chisq_sample(delta, lam, rng, 500_000)
        se_inv = (1 / x).std() / np.sqrt(x.size)
        assert abs((1 / x).mean() - dist.inv_chisq_mean_inverse(delta, lam)) < 4 * se_inv
        se_log = np.log(x).std() / np.sqrt(x.size)
        assert abs(np.log(x).mean() - dist.inv_chisq_mean_log(delta, lam)) < 4 * se_log

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            dist.inv_chisq_log_density(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            dist.inv_chisq_log_density(1.0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


class TestSampling:
    @pytest.mark.parametrize(
        "Lam, xi",
        [
            (random_spd(3, np.random.default_rng(19)), 9.0),
            # strong correlations and scales from 0.5 to 8
            (
                np.array([[1.0, 0.9, -0.6], [0.9, 1.0, -0.5], [-0.6, -0.5, 1.0]])
                * np.outer([0.5, 2.0, 8.0], [0.5, 2.0, 8.0]),
                10.0,
            ),
        ],
        ids=["random-scale", "correlated-scale"],
    )
    def test_full_graph_moments(self, Lam, xi):
        rng = np.random.default_rng(19)
        d = 3
        p = CommonIGW(Graph.FULL, xi, Lam)
        X = dist.igw_sample(p, rng, size=200_000)
        assert X.shape == (200_000, d, d)
        assert np.array_equal(X, np.swapaxes(X, 1, 2))
        # E(X^{-1}) = (xi - d + 1) Lambda^{-1}
        inv_mean = np.linalg.inv(X).mean(axis=0)
        expected = (xi - d + 1) * np.linalg.inv(Lam)
        se = np.linalg.inv(X).std(axis=0) / np.sqrt(X.shape[0])
        assert np.all(np.abs(inv_mean - expected) < 4 * se)
        # E(X) = Lambda / (xi - 2d) when xi > 2d
        mean = X.mean(axis=0)
        se_m = X.std(axis=0) / np.sqrt(X.shape[0])
        assert np.all(np.abs(mean - Lam / (xi - 2 * d)) < 4 * se_m + 1e-12)

    def test_diag_graph_moments(self):
        rng = np.random.default_rng(23)
        lam = np.array([2.0, 5.0])
        p = CommonIGW(Graph.DIAG, 4.0, np.diag(lam))
        X = dist.igw_sample(p, rng, size=200_000)
        offdiag = X[:, 0, 1]
        assert np.all(offdiag == 0)
        # marginals are inverse-chi^2(xi, lam_j): E(X_jj) = lam_j/(xi-2)
        diag = X[:, [0, 1], [0, 1]]
        se = diag.std(axis=0) / np.sqrt(X.shape[0])
        assert np.all(np.abs(diag.mean(axis=0) - lam / 2.0) < 4 * se)

    def test_single_draw_shape(self):
        rng = np.random.default_rng(0)
        p = CommonIGW(Graph.FULL, 5.0, np.eye(2))
        X = dist.igw_sample(p, rng)
        assert X.shape == (2, 2)
        assert matops.is_spd(X)

    def test_full_graph_d1_matches_inverse_chi_square_law(self):
        # d = 1 full graph draws are inverse-chi^2(xi, lam); KS against the
        # scipy inverse gamma with the same parameters
        rng = np.random.default_rng(29)
        p = CommonIGW(Graph.FULL, 3.0, np.array([[4.0]]))
        x = dist.igw_sample(p, rng, size=20_000)[:, 0, 0]
        ks = stats.kstest(x, stats.invgamma(1.5, scale=2.0).cdf)
        assert ks.pvalue > 1e-4


# ---------------------------------------------------------------------------
# multivariate normal natural form (the dense oracle in tests/oracles.py)
# ---------------------------------------------------------------------------


class TestNaturalMVN:
    def test_round_trip(self):
        rng = np.random.default_rng(31)
        for k in (1, 2, 4, 7):
            Sig = random_spd(k, rng)
            mu = rng.standard_normal(k)
            mu2, Sig2 = mvn_from_natural(mvn_to_natural(mu, Sig))
            assert_allclose(mu2, mu, rtol=1e-10, atol=1e-12)
            assert_allclose(Sig2, Sig, rtol=1e-10, atol=1e-12)

    def test_known_values(self):
        # N(mu, Sigma) with Sigma = diag(2, 4), mu = (2, 8):
        # eta1 = Sigma^{-1} mu = (1, 2), eta2 = -vech with doubled off-diagonal
        n = mvn_to_natural(np.array([2.0, 8.0]), np.diag([2.0, 4.0]))
        assert_allclose(n.eta1, [1.0, 2.0])
        assert_allclose(n.eta2, [-0.25, 0.0, -0.125])

    def test_nonspd_rejected(self):
        with pytest.raises(NonSPDPrecision):
            mvn_to_natural(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
        # natural vector implying indefinite precision
        n = mvn_to_natural(np.zeros(2), np.eye(2))
        bad = NaturalMVN(n.eta1, -n.eta2)
        with pytest.raises(NonSPDPrecision):
            mvn_from_natural(bad)


# ---------------------------------------------------------------------------
# Moon Rock
# ---------------------------------------------------------------------------


class TestMoonRock:
    # frozen against mpmath.quad at 60 significant digits
    FROZEN = {
        (3.0, 4.0): (-2.6200737869523086, 2.6335815467451943),
        (5.0, 7.0): (-6.1187054979011386, 1.8848066543212422),
        (1.0, 1.1): (2.3998811551660027, 15.132007821679406),
        (300.0, 320.0): (-126.31227187039133, 7.712822339760068),
    }

    @pytest.mark.parametrize("ab", sorted(FROZEN))
    def test_normalizer_and_mean(self, ab):
        log_norm, mean = self.FROZEN[ab]
        p = MoonRockParams(*ab)
        assert_allclose(dist.moonrock_log_normalizer(p), log_norm, rtol=1e-10, atol=1e-11)
        assert_allclose(dist.moonrock_mean(p), mean, rtol=1e-9)

    @given(st.floats(min_value=0.01, max_value=1000.0))
    @settings(max_examples=40, deadline=None)
    def test_alpha_zero_closed_form(self, beta):
        # the kernel is e^{-beta x}, so the normalizer is 1/beta, mean 1/beta
        p = MoonRockParams(0.0, beta)
        assert_allclose(np.exp(dist.moonrock_log_normalizer(p)), 1 / beta, rtol=1e-10)
        assert_allclose(dist.moonrock_mean(p), 1 / beta, rtol=1e-9)

    def test_density_normalizes(self):
        p = MoonRockParams(3.0, 4.0)
        t = np.linspace(1e-6, 80.0, 400_001)
        total = np.trapezoid(np.exp(dist.moonrock_log_density(p, t)), t)
        assert_allclose(total, 1.0, rtol=1e-7)

    def test_log_density_kernel_shift(self):
        # density ratios only depend on the kernel
        p = MoonRockParams(5.0, 7.0)
        x1, x2 = 1.3, 2.6
        got = dist.moonrock_log_density(p, x2) - dist.moonrock_log_density(p, x1)
        from scipy.special import gammaln

        kern = lambda x: 5.0 * (x * np.log(x) - gammaln(x)) - 7.0 * x
        assert_allclose(got, kern(x2) - kern(x1), rtol=1e-12)

    def test_divergent_cases_raise(self):
        # mass decays only when beta exceeds alpha
        with pytest.raises(DivergentIntegral):
            MoonRockParams(2.0, 1.0)
        with pytest.raises(DivergentIntegral):
            MoonRockParams(1.0, 1.0)

    def test_invalid_hyperparameters(self):
        with pytest.raises(InvalidHyperparameter):
            MoonRockParams(-0.5, 1.0)
        with pytest.raises(InvalidHyperparameter):
            MoonRockParams(1.0, 0.0)

    def test_natural_vector_round_trip(self):
        p = MoonRockParams.from_vector(np.array([3.0, -4.0]))
        assert p.alpha == 3.0 and p.beta == 4.0
        assert_allclose(p.to_vector(), [3.0, -4.0])

    @pytest.mark.parametrize("ab", [(5.0, 7.0), (0.0, 1.0), (300.0, 320.0)])
    def test_sampler_mean_within_monte_carlo_error(self, ab):
        p = MoonRockParams(*ab)
        rng = np.random.default_rng(41)
        x = dist.moonrock_sample(p, rng, size=200_000)
        se = x.std() / np.sqrt(x.size)
        assert abs(x.mean() - dist.moonrock_mean(p)) < 4 * se

    @staticmethod
    def _dense_cdf(alpha, beta):
        # independent of the module's quadrature and range rule: the kernel
        # {t^t/Gamma(t)}^alpha e^{-beta t} by the trapezoid rule on a dense
        # uniform grid in t, up to 60, past all but a negligible tail of the
        # members tested here (e^-60 for the exponential)
        t = np.linspace(1e-12, 60.0, 2_000_001)
        logk = alpha * (xlogy(t, t) - gammaln(t)) - beta * t
        k = np.exp(logk - logk.max())
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (k[1:] + k[:-1]) * np.diff(t))))
        return t, cdf / cdf[-1]

    @pytest.mark.parametrize(
        "ab", [(3.0, 4.0), (300.0, 310.0), (0.0, 1.0)], ids=["3-4", "300-310", "0-1"]
    )
    def test_sampler_ks_against_grid_cdf(self, ab):
        p = MoonRockParams(*ab)
        x = dist.moonrock_sample(p, np.random.default_rng(43), size=20_000)
        t, cdf = self._dense_cdf(*ab)
        assert stats.kstest(x, lambda q: np.interp(q, t, cdf)).pvalue > 1e-4

    # rtol is about a tenth of each member's CDF grid spacing in s = log t
    # (6.7e-4 and 1.8e-2): linear interpolation in s keeps a quantile well
    # inside its grid cell
    @pytest.mark.parametrize("ab, rtol", [((300.0, 310.0), 7e-5), ((0.0, 1.0), 2e-3)])
    def test_quantile_against_dense_reference(self, ab, rtol):
        prob = np.array([0.01, 0.5, 0.99, 1.0 - 1e-6])
        t, cdf = self._dense_cdf(*ab)
        got = dist.moonrock_quantile(MoonRockParams(*ab), prob)
        assert_allclose(got, np.interp(prob, cdf, t), rtol=rtol)

    def test_one_grid_serves_sampling_quantiles_and_moments(self, monkeypatch):
        # sampling, a quantile and the moments of one member share one grid
        # build; sampling alone computes no moments
        builds = []
        grid_init = dist._MoonRockGrid.__init__

        def counted(self, alpha, beta):
            builds.append((alpha, beta))
            grid_init(self, alpha, beta)

        monkeypatch.setattr(dist._MoonRockGrid, "__init__", counted)
        p = MoonRockParams(300.0, 310.0)
        dist.moonrock_sample(p, np.random.default_rng(0), size=10)
        dist.moonrock_quantile(p, 0.5)
        assert "moments" not in vars(p._grid)
        dist.moonrock_mean(p)
        dist.moonrock_variance(p)
        dist.moonrock_log_normalizer(p)
        dist.moonrock_log_density(p, 1.0)
        assert "moments" in vars(p._grid)
        assert builds == [(300.0, 310.0)]

    @staticmethod
    def _quad_reference(alpha, beta):
        # log normalizer, mean and variance by adaptive quadrature in
        # s = log t, on either side of the peak of the log integrand found
        # on a dense scan, out to where it has fallen by e^-60
        s = np.linspace(-100.0, 60.0, 320_001)
        g = dist._moonrock_log_integrand(s, alpha, beta)
        top = int(np.argmax(g))
        lo = s[np.flatnonzero(g[:top] < g[top] - 60.0)[-1]]
        hi = s[top + np.flatnonzero(g[top:] < g[top] - 60.0)[0]]

        def integral(weight):
            def f(x):
                log_f = dist._moonrock_log_integrand(np.array([x]), alpha, beta)[0]
                return np.exp(log_f - g[top]) * weight(np.exp(x))

            return sum(
                quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
                for a, b in ((lo, s[top]), (s[top], hi))
            )

        mass = integral(lambda t: 1.0)
        mean = integral(lambda t: t) / mass
        return g[top] + np.log(mass), mean, integral(lambda t: (t - mean) ** 2) / mass

    @given(
        st.one_of(
            st.floats(min_value=-2.0, max_value=3.0).map(lambda e: (0.0, 10.0**e)),
            st.tuples(
                st.floats(min_value=-2.0, max_value=4.0), st.floats(min_value=-4.0, max_value=1.0)
            ).map(lambda e: (10.0 ** e[0], 10.0 ** e[0] * (1.0 + 10.0 ** e[1]))),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_moments_against_adaptive_quadrature(self, ab):
        # alpha = 0 with beta in [1e-2, 1e3], or alpha in [1e-2, 1e4] with
        # beta / alpha - 1 in [1e-4, 10]. The log integrand is a difference
        # of terms of size about alpha t, so at alpha = 1e4 its rounding
        # limits any quadrature's mean to about 1e-10 and variance to 1e-9
        alpha, beta = ab
        p = MoonRockParams(alpha, beta)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            log_norm, mean, variance = self._quad_reference(alpha, beta)
        assert abs(dist.moonrock_log_normalizer(p) - log_norm) <= 1e-12 * max(1.0, abs(log_norm))
        assert_allclose(dist.moonrock_mean(p), mean, rtol=2e-10)
        assert_allclose(dist.moonrock_variance(p), variance, rtol=1e-8)

    @pytest.mark.parametrize("alpha", [0.01, 1.0, 300.0, 1.5e5])
    def test_center_against_brentq(self, alpha):
        # the mode solves log t - psi(t) = r with r = beta/alpha - 1. The
        # reference is a tight root in s = log t of the same equation on the
        # bracket [log(1/(2r)), log(1/r)], which log t - 1/t < psi(t) <
        # log t - 1/(2t) gives. Below r = 1e-3 the equation itself cancels:
        # log t - psi(t) ~ 1/(2t) is computed from terms of size log t
        from scipy.optimize import brentq

        for r in np.logspace(-6.0, 6.0, 97):
            beta = alpha * (1.0 + r)
            r = beta / alpha - 1.0
            expected = brentq(
                lambda s: s - digamma(np.exp(s)) - r,
                np.log(0.5 / r) - 1e-3,
                np.log(1.0 / r) + 1e-3,
                xtol=1e-15,
                rtol=4.0 * np.finfo(float).eps,
                maxiter=500,
            )
            error = abs(dist._moonrock_center(alpha, beta) - expected)
            assert error <= (1e-11 if r >= 1e-3 else 1e-8), (r, error)

    @pytest.mark.parametrize("r", [1e-3, 0.27, 3.0])
    def test_moments_at_large_alpha(self, r):
        # alpha = n at m = 10^4 groups of 15 observations; r = 0.27 puts the
        # mode near 2 (df 4), r = 1e-3 near 500
        alpha = 1.5e5
        p = MoonRockParams(alpha, alpha * (1.0 + r))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            log_norm, mean, variance = self._quad_reference(p.alpha, p.beta)
        assert abs(dist.moonrock_log_normalizer(p) - log_norm) <= 1e-12 * max(1.0, abs(log_norm))
        assert_allclose(dist.moonrock_mean(p), mean, rtol=1e-10)
        assert_allclose(dist.moonrock_variance(p), variance, rtol=1e-8)

    def test_rejects_nonpositive_points(self):
        p = MoonRockParams(1.0, 2.0)
        with pytest.raises(DomainError):
            dist.moonrock_log_density(p, -1.0)
