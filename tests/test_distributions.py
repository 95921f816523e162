import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats
from scipy.integrate import IntegrationWarning, quad
from scipy.special import digamma, gammaln, polygamma, xlogy, zeta

from oracles import NaturalMVN, igw_log_density, mvn_from_natural, mvn_to_natural, vec
from igwvmp import distributions as dist
from igwvmp import matops
from igwvmp.distributions import CommonIGW, Graph, MoonRockParams, NaturalIGW
from igwvmp.errors import (
    DimensionMismatch,
    DivergentIntegral,
    DomainError,
    ImproperMessage,
    InvalidHyperparameter,
    InvalidShape,
    NonSPDPrecision,
    NonSPDScale,
)


# most log-integrand evaluations of one slice update seen from a far start:
# the start, at most 63 stepping-out steps and the shrinkage
SLICE_EVALUATION_BOUND = 100


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
# special functions, with scipy.special as the oracle
# ---------------------------------------------------------------------------

# t from e^-690 to 30, and dense around the zeros of lgamma at 1 and 2
LGAMMA_POINTS = np.concatenate(
    (
        np.exp(np.linspace(-690.0, np.log(30.0), 4001)),
        np.linspace(0.9, 1.1, 401),
        np.linspace(1.9, 2.1, 401),
    )
)

# the final q(nu/2) of the four standard sets (simulate(seed=1,
# group_size=15) at m = 10, 20, 40, and at m = 10 with df 100), each scaled
# by 0.01 to 100, and eight edge pairs: alpha = 0, beta / alpha - 1 from
# 1e-4 to 0.1, and alpha up to 1.5e5
STANDARD_DF_HALF = [
    (150.0, 255.19713768345684),
    (300.0, 465.18745850017297),
    (600.0, 926.0972210025305),
    (150.0, 150.6716681206916),
]
MOON_ROCK_PAIRS = [
    (a * c, b * c) for a, b in STANDARD_DF_HALF for c in (0.01, 0.1, 1.0, 10.0, 100.0)
]
MOON_ROCK_PAIRS += [
    (0.0, 1.0),
    (0.0, 1e-2),
    (0.0, 1e3),
    (1e-2, 1.1e-2),
    (1.0, 1.0001),
    (300.0, 301.0),
    (1e4, 1.0001e4),
    (1.5e5, 1.6e5),
]


def scipy_moonrock_step(alpha, beta):
    """``_moonrock_step`` as it was written on scipy.special's digamma and
    Hurwitz zeta: the same start, three Newton steps and curvature."""
    if alpha == 0.0:
        s = np.log(1.0 / beta)
    else:
        r = beta / alpha - 1.0
        if r > 3.0:
            start = 2.0 / (np.hypot(r - 3.0, np.sqrt(24.0 * r)) + r - 3.0)
        else:
            start = (3.0 - r + np.sqrt((r - 3.0) ** 2 + 24.0 * r)) / (12.0 * r)
        s = np.log(start)
        for _ in range(3):
            t = np.exp(s)
            s -= (s - digamma(t) - r) / (1.0 - t * zeta(2.0, t))
    t = np.exp(s)
    curv = t * (beta - alpha * (np.log(t) + 1.0 - digamma(t)))
    if alpha != 0.0:
        curv += alpha * t * (t * zeta(2.0, t) - 1.0)
    return s, 1.0 / np.sqrt(curv) if curv > 1.0 else 1.0


def assert_within_5e14_or_one_ulp(actual, expected):
    # below t = 1e-111, lgamma(t) exceeds 256, where one ulp is 5.7e-14
    assert np.all(np.abs(actual - expected) <= np.maximum(5e-14, np.spacing(np.abs(expected))))


class TestSpecialFunctions:
    def test_xlogx_minus_lgamma_against_scipy(self):
        t = LGAMMA_POINTS
        got = dist._xlogx_minus_lgamma(t, np.log(t))
        assert_within_5e14_or_one_ulp(got, xlogy(t, t) - gammaln(t))
        # above 30 the direct difference loses a digit or two, up to 1e4
        t = np.logspace(np.log10(30.0), 4.0, 1001)
        got = dist._xlogx_minus_lgamma(t, np.log(t))
        assert_allclose(got, xlogy(t, t) - gammaln(t), rtol=1e-13, atol=0.0)

    def test_digamma_trigamma_against_scipy(self):
        x = np.logspace(-300.0, 15.0, 4001)
        got = np.array([dist._digamma_trigamma(float(v)) for v in x])
        # psi'(x) ~ 1/x^2 overflows to inf below about 1e-154, in both
        assert_allclose(got[:, 0], digamma(x), rtol=1e-13, atol=0.0)
        assert_allclose(got[:, 1], polygamma(1, x), rtol=1e-13, atol=0.0)

    def test_digamma_near_its_zero(self):
        # psi has its zero at 1.4616...; there the recurrence's sum of terms
        # of size 2 bounds the error in absolute terms
        x = np.linspace(1.0, 2.0, 1001)
        got = np.array([dist._digamma_trigamma(float(v))[0] for v in x])
        assert np.max(np.abs(got - digamma(x))) <= 2e-15

    @pytest.mark.parametrize("delta", [0.0, -1.0, -np.inf, np.nan])
    def test_mean_log_rejects_a_shape_outside_its_domain(self, delta):
        # psi's recurrence would divide by zero, or never end at -inf
        with pytest.raises(DomainError):
            dist.inv_chisq_mean_log(delta, 1.0)

    @pytest.mark.parametrize("ab", MOON_ROCK_PAIRS)
    def test_moonrock_step_against_scipy(self, ab):
        assert_allclose(dist._moonrock_step(*ab), scipy_moonrock_step(*ab), rtol=1e-12, atol=0.0)

    def test_scalar_inputs_give_python_floats(self):
        values = [
            *dist._digamma_trigamma(2.5),
            dist.inv_chisq_mean_log(3.0, 2.0),
            dist.inv_chisq_mean_log(np.float64(3.0), np.float64(2.0)),
            dist.inv_chisq_log_density(3.0, 2.0, 1.0),
            dist.inv_chisq_log_density(np.float64(3.0), 2.0, np.float64(1.0)),
            dist.inv_chisq_sqrt_mean(3.0, 2.0),
            dist.inv_chisq_sqrt_sd(3.0, 2.0),
            dist._moonrock_center(4.0, 5.0),
            *dist._moonrock_step(4.0, 5.0),
        ]
        assert all(type(v) is float for v in values)

    def test_inv_chisq_functions_broadcast(self):
        # lam and x broadcast; the shape delta is a scalar
        lam = np.array([[0.1], [2.0], [250.0]])
        x = np.array([[[0.3, 4.0]]])
        for delta in (0.5, 3.0, 250.0):
            mean_log = dist.inv_chisq_mean_log(delta, lam)
            assert mean_log.shape == (3, 1)
            assert_allclose(mean_log, np.log(lam / 2.0) - digamma(delta / 2.0), rtol=1e-14)
            log_density = dist.inv_chisq_log_density(delta, lam, x)
            assert log_density.shape == (1, 3, 2)
            expected = stats.invgamma.logpdf(x, delta / 2.0, scale=lam / 2.0)
            assert_allclose(log_density, expected, rtol=1e-12)

    @pytest.mark.parametrize("delta", [np.array([3.0]), np.array([[2.0, 3.0]]), [3.0]])
    def test_inv_chisq_functions_reject_an_array_shape(self, delta):
        with pytest.raises(DimensionMismatch):
            dist.inv_chisq_mean_log(delta, 1.0)
        with pytest.raises(DimensionMismatch):
            dist.inv_chisq_log_density(delta, 1.0, 1.0)


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

    def test_moments_of_sigma_that_diverge(self):
        with pytest.raises(DivergentIntegral):
            dist.inv_chisq_sqrt_mean(1.0, 1.0)
        with pytest.raises(DivergentIntegral):
            dist.inv_chisq_sqrt_sd(2.0, 1.0)

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

    @pytest.mark.parametrize("eta", [[300.0, 50.0], [-0.5, -1.0], [0.0, 0.0]])
    def test_improper_natural_vector_is_an_improper_message(self, eta):
        # naturals come from messages, so beta <= 0 or alpha < 0 there is a
        # numerical failure, not a bad hyperparameter
        with pytest.raises(ImproperMessage):
            MoonRockParams.from_vector(eta)

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

    @pytest.mark.parametrize("ab", [(0.0, 1.0), (4.0, 5.0), (300.0, 301.0), (1.5e5, 1.6e5)])
    def test_scalar_log_integrand_matches_the_vector_one(self, ab):
        # s spans t from 1e-6 to 1e4, both sides of the Stirling switch at t = 30
        s = np.linspace(np.log(1e-6), np.log(1e4), 401)
        vector = dist._moonrock_log_integrand(s, *ab)
        scalar = np.array([dist._moonrock_log_integrand_at(float(x), *ab) for x in s])
        assert_allclose(scalar, vector, rtol=1e-12, atol=1e-12 * np.max(np.abs(vector)))

    # (150, 200) has its mass near t = 1.7 and (300, 301) near t = 150, on
    # the Stirling branch of the log integrand
    @pytest.mark.parametrize(
        "ab", [(0.0, 1.0), (4.0, 5.0), (300.0, 340.0), (150.0, 200.0), (300.0, 301.0)]
    )
    def test_slice_update_chain_matches_quantile_deciles(self, ab):
        # every 4th draw of a chain of slice updates at fixed (alpha, beta)
        # falls into the ten deciles of moonrock_quantile as a chi^2 test
        # expects of independent draws
        p = MoonRockParams(*ab)
        rng = np.random.default_rng(7)
        t = dist.moonrock_mean(p)
        draws = np.empty(20_000)
        for i in range(draws.size):
            t = dist.moonrock_slice_update(p, t, rng)
            draws[i] = t
        edges = dist.moonrock_quantile(p, np.linspace(0.1, 0.9, 9))
        counts = np.bincount(np.searchsorted(edges, draws[3::4]), minlength=10)
        assert stats.chisquare(counts).pvalue > 1e-3

    @pytest.mark.parametrize(
        "ab",
        [(0.0, 1.0), (4.0, 5.0), (300.0, 340.0), (1.5e5, 1.5e5 * (1.0 + 1e-6)), (0.0, 1e-8)],
    )
    @pytest.mark.parametrize("offset", [-30.0, 30.0])
    def test_slice_update_from_a_far_start_is_bounded(self, ab, offset, monkeypatch):
        # 30 units of s from the mode, every update returns a finite draw
        # after at most 1 + 63 stepping-out evaluations and a few shrinks
        evaluations = []
        log_f = dist._moonrock_log_integrand_at

        def counted(s, alpha, beta):
            evaluations.append(s)
            return log_f(s, alpha, beta)

        monkeypatch.setattr(dist, "_moonrock_log_integrand_at", counted)
        p = MoonRockParams(*ab)
        t0 = np.exp(dist._moonrock_center(p.alpha, p.beta) + offset)
        rng = np.random.default_rng(5)
        most = 0
        for _ in range(200):
            evaluations.clear()
            t = dist.moonrock_slice_update(p, t0, rng)
            assert np.isfinite(t) and t > 0
            most = max(most, len(evaluations))
        assert most <= SLICE_EVALUATION_BOUND

    @pytest.mark.parametrize("t", [0.0, -1.0, np.inf, np.nan, 1e306, 1e-310])
    def test_slice_update_from_zero_density_raises(self, t):
        with pytest.raises(DomainError):
            dist.moonrock_slice_update(MoonRockParams(4.0, 5.0), t, np.random.default_rng(0))
