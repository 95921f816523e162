import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from conftest import (
    half_t_variance_density,
    marginal_variance_density,
    sample_from_plan,
)
from igwvmp.distributions import CommonIGW, Graph
from igwvmp.errors import InvalidHyperparameter, InvalidShape, NonSPDScale
from igwvmp.prior_specs import (
    HalfCauchySpec,
    HalfTSpec,
    HuangWandSpec,
    InverseChiSquaredSpec,
    InverseGammaSpec,
    InverseWishartSpec,
    MatrixFSpec,
    plan_prior,
)
from oracles import equivalent_specs


def assert_plans_equal(a, b):
    assert a.prior_factor.graph is b.prior_factor.graph
    assert a.prior_factor.xi == b.prior_factor.xi
    assert_allclose(a.prior_factor.Lambda, b.prior_factor.Lambda, rtol=1e-14)
    assert (a.conditional is None) == (b.conditional is None)
    if a.conditional is not None:
        assert a.conditional.xi == b.conditional.xi
        assert a.conditional.graph is b.conditional.graph


class TestPlans:
    def test_inverse_chi_squared(self):
        plan = plan_prior(InverseChiSquaredSpec(3.0, 5.0))
        assert plan.conditional is None
        assert plan.prior_factor.graph is Graph.FULL
        assert plan.prior_factor.xi == 3.0
        assert_allclose(plan.prior_factor.Lambda, [[5.0]])

    def test_inverse_gamma(self):
        plan = plan_prior(InverseGammaSpec(1.5, 2.5))
        assert plan.conditional is None
        assert plan.prior_factor.xi == 3.0
        assert_allclose(plan.prior_factor.Lambda, [[5.0]])

    def test_inverse_wishart(self):
        Lam = np.array([[2.0, 0.3], [0.3, 1.0]])
        plan = plan_prior(InverseWishartSpec(4.0, Lam))
        assert plan.conditional is None
        assert plan.prior_factor.xi == 5.0  # kappa + d - 1
        assert_allclose(plan.prior_factor.Lambda, Lam)

    def test_half_t(self):
        plan = plan_prior(HalfTSpec(2.0, 3.0))
        assert plan.prior_factor.graph is Graph.DIAG
        assert plan.prior_factor.xi == 1.0
        assert_allclose(plan.prior_factor.Lambda, [[1.0 / 12.0]])
        assert plan.conditional.xi == 3.0
        assert plan.conditional.graph is Graph.FULL

    def test_half_cauchy(self):
        plan = plan_prior(HalfCauchySpec(5.0))
        assert plan.prior_factor.xi == 1.0
        assert_allclose(plan.prior_factor.Lambda, [[1.0 / 25.0]])
        assert plan.conditional.xi == 1.0

    def test_huang_wand_shorthand(self):
        plan = plan_prior(HuangWandSpec((1.0, 2.0)))
        assert plan.prior_factor.graph is Graph.DIAG
        assert plan.prior_factor.xi == 1.0
        assert_allclose(plan.prior_factor.Lambda, np.diag([0.5, 0.125]))
        assert plan.conditional.xi == 4.0  # nu + 2d - 2 at nu = 2, d = 2
        assert plan.conditional.graph is Graph.FULL

    def test_matrix_f(self):
        B = np.array([[2.0, 0.0], [0.0, 0.5]])
        plan = plan_prior(MatrixFSpec(3.0, 4.0, B))
        assert plan.prior_factor.graph is Graph.FULL
        assert plan.prior_factor.xi == 4.0  # nu + d - 1
        assert_allclose(plan.prior_factor.Lambda, np.linalg.inv(B))
        assert plan.conditional.xi == 6.0  # delta + 2d - 2

    def test_invalid_hyperparameters(self):
        with pytest.raises(InvalidHyperparameter):
            InverseChiSquaredSpec(0.0, 1.0)
        with pytest.raises(InvalidHyperparameter):
            HalfTSpec(1.0, -1.0)
        with pytest.raises(InvalidHyperparameter):
            HuangWandSpec((1.0, -1.0))
        with pytest.raises(InvalidHyperparameter):
            InverseWishartSpec(0.5, np.eye(2))
        with pytest.raises(InvalidHyperparameter):
            MatrixFSpec(0.5, 1.0, np.eye(2))
        with pytest.raises(InvalidHyperparameter):
            plan_prior(object())

    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: plan_prior(HalfTSpec(1e-200, 1.0)), InvalidHyperparameter),
            (lambda: plan_prior(HalfTSpec(1e200, 1.0)), InvalidHyperparameter),
            (lambda: plan_prior(HalfTSpec(1.0, np.nan)), InvalidHyperparameter),
            (lambda: plan_prior(HalfCauchySpec(1e-200)), InvalidHyperparameter),
            (lambda: plan_prior(HuangWandSpec((1e-200,))), InvalidHyperparameter),
            (lambda: plan_prior(HalfTSpec(1e-150, 1e-100)), InvalidHyperparameter),
            (lambda: plan_prior(HalfTSpec(1e150, 1e100)), InvalidHyperparameter),
            (lambda: plan_prior(HuangWandSpec((1e-150,), 1e-100)), InvalidHyperparameter),
            (lambda: plan_prior(HuangWandSpec((1e150,), 1e100)), InvalidHyperparameter),
            (lambda: CommonIGW(Graph.DIAG, 1.0, [[np.nan]]), NonSPDScale),
            (lambda: CommonIGW(Graph.DIAG, 1.0, [[np.inf]]), NonSPDScale),
            (lambda: CommonIGW(Graph.DIAG, np.inf, [[1.0]]), InvalidShape),
            (lambda: CommonIGW(Graph.FULL, np.inf, [[1.0]]), InvalidShape),
        ],
        ids=[
            "half-t-scale-1e-200",
            "half-t-scale-1e200",
            "half-t-df-nan",
            "half-cauchy-scale-1e-200",
            "huang-wand-scale-1e-200",
            "half-t-aux-scale-overflows",
            "half-t-aux-scale-underflows",
            "huang-wand-aux-scale-overflows",
            "huang-wand-aux-scale-underflows",
            "diag-nan-scale",
            "diag-inf-scale",
            "diag-inf-xi",
            "full-inf-xi",
        ],
    )
    def test_values_a_prior_cannot_use_are_rejected(self, build, error):
        # spec scales follow TLMMHyper's rule (a finite, nonzero square and
        # reciprocal square), and planning checks the auxiliary scale
        # 1/(df s^2), which a valid df and s can still overflow or
        # underflow; CommonIGW takes only a finite shape and scale
        with pytest.raises(error):
            build()


class TestEquivalences:
    @pytest.mark.parametrize(
        "spec",
        [
            InverseChiSquaredSpec(3.0, 5.0),
            InverseGammaSpec(1.5, 2.5),
            InverseWishartSpec(3.0, np.array([[5.0]])),
            HalfTSpec(2.0, 3.0),
            HalfTSpec(5.0, 1.0),
            HalfCauchySpec(5.0),
            HuangWandSpec((2.0,), 3.0),
        ],
    )
    def test_equivalent_specs_plan_identically(self, spec):
        base = plan_prior(spec)
        equivalents = equivalent_specs(spec)
        assert equivalents
        for other in equivalents:
            assert_plans_equal(base, plan_prior(other))

    def test_half_cauchy_lists_half_t(self):
        eqs = equivalent_specs(HalfCauchySpec(2.0))
        assert any(isinstance(e, HalfTSpec) and e.df == 1.0 for e in eqs)

    def test_multivariate_families_have_no_equivalents(self):
        assert equivalent_specs(InverseWishartSpec(4.0, np.eye(2))) == []
        assert equivalent_specs(HuangWandSpec((1.0, 2.0))) == []
        assert equivalent_specs(MatrixFSpec(3.0, 4.0, np.eye(2))) == []


class TestConstructionMarginals:
    """The two-level plans must reproduce their target densities when the
    auxiliary variable is integrated out numerically."""

    @pytest.mark.parametrize("scale,df", [(1.0, 1.0), (2.0, 3.0)])
    def test_half_t_marginal(self, scale, df):
        plan = plan_prior(HalfTSpec(scale, df))
        xs = np.linspace(0.05, 8.0, 25) * scale**2
        got = marginal_variance_density(plan, xs)
        want = half_t_variance_density(xs, scale, df)
        assert np.max(np.abs(got - want)) < 1e-8 * max(1.0, want.max())

    def test_huang_wand_d1_marginal_is_half_t(self):
        plan = plan_prior(HuangWandSpec((1.5,), 2.0))
        xs = np.linspace(0.1, 10.0, 20)
        got = marginal_variance_density(plan, xs)
        want = half_t_variance_density(xs, 1.5, 2.0)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_matrix_f_d1_marginal_is_beta_prime(self):
        # integrating the construction must give x/b ~ BetaPrime(nu/2, delta/2)
        nu, delta, b = 3.0, 4.0, 2.0
        plan = plan_prior(MatrixFSpec(nu, delta, np.array([[b]])))
        xs = np.linspace(0.05, 12.0, 25)
        got = marginal_variance_density(plan, xs)
        want = stats.betaprime.pdf(xs / b, nu / 2.0, delta / 2.0) / b
        assert np.max(np.abs(got - want)) < 1e-8

    def test_huang_wand_correlation_close_to_uniform(self):
        # at nu = 2 the correlation is uniform on (-1, 1); modest-n KS check
        rng = np.random.default_rng(101)
        plan = plan_prior(HuangWandSpec((1.0, 3.0)))
        Sig = sample_from_plan(plan, rng, 20_000)
        rho = Sig[:, 0, 1] / np.sqrt(Sig[:, 0, 0] * Sig[:, 1, 1])
        ks = stats.kstest(rho, stats.uniform(loc=-1.0, scale=2.0).cdf)
        assert ks.statistic < 0.015

    def test_huang_wand_marginal_scales_are_half_t(self):
        rng = np.random.default_rng(103)
        s = (0.8, 2.0)
        plan = plan_prior(HuangWandSpec(s, 2.0))
        Sig = sample_from_plan(plan, rng, 20_000)
        for j in range(2):
            sd = np.sqrt(Sig[:, j, j])
            ks = stats.kstest(sd, lambda q: 2 * stats.t.cdf(q / s[j], 2.0) - 1)
            assert ks.pvalue > 1e-4

    def test_single_level_sampling_matches_density(self):
        rng = np.random.default_rng(107)
        plan = plan_prior(InverseChiSquaredSpec(3.0, 5.0))
        x = sample_from_plan(plan, rng, 20_000)[:, 0, 0]
        ks = stats.kstest(x, stats.invgamma(1.5, scale=2.5).cdf)
        assert ks.pvalue > 1e-4
