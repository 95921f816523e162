"""Tests for the t-response linear mixed model fit."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from igwvmp import distributions
from igwvmp import fragments as fr
from igwvmp import matops, tlmm
from igwvmp.distributions import (
    Graph,
    MoonRockParams,
    igw_to_natural,
    inv_chisq_sqrt_mean,
    inv_chisq_sqrt_sd,
    moonrock_mean,
)
from igwvmp.errors import (
    DimensionMismatch,
    DomainError,
    IGWVMPError,
    ImproperMessage,
    InvalidHyperparameter,
    NonSPDPrecision,
    NotConverged,
    NumericalFailure,
)
from igwvmp.graph_engine import FactorGraph, Message
from igwvmp.prior_specs import HalfCauchySpec, HuangWandSpec, plan_prior
from oracles import (
    NaturalMVN,
    dense_arrowhead,
    dense_design,
    mvn_from_natural,
)

SMALL = dict(seed=11, n_groups=6, group_size=8)


@pytest.fixture(scope="module")
def small_data():
    data, truth = tlmm.simulate(**SMALL)
    return data, truth


@pytest.fixture(scope="module")
def example_fit():
    """Fit of one draw from the default truth, shared by read-only tests."""
    data, truth = tlmm.simulate(seed=1)
    return data, truth, tlmm.fit(data)


# ---------------------------------------------------------------------------
# simulation and design assembly
# ---------------------------------------------------------------------------


def test_simulate_reproducible():
    d1, t1 = tlmm.simulate(seed=42)
    d2, t2 = tlmm.simulate(seed=42)
    d3, _ = tlmm.simulate(seed=43)
    assert np.array_equal(d1.y, d2.y)
    assert np.array_equal(d1.x, d2.x)
    assert np.array_equal(t1.u, t2.u)
    assert not np.array_equal(d1.y, d3.y)


def test_simulate_default_shapes():
    data, truth = tlmm.simulate(seed=0)
    assert data.n_obs == 300
    assert data.n_groups == 20
    assert truth.u.shape == (20, 2)
    assert np.all(np.bincount(data.group) == 15)
    assert np.all((data.x >= 0) & (data.x <= 1))
    assert truth.beta == pytest.approx([-0.58, 1.89])
    assert truth.noise_variance == 0.2
    assert truth.df == 1.5


def test_simulate_zero_noise_is_exactly_linear():
    data, truth = tlmm.simulate(seed=9, noise_variance=0.0, n_groups=4, group_size=5)
    des = tlmm.assemble_design(data)
    coeffs = np.concatenate((truth.beta, truth.u.ravel()))
    assert np.allclose(data.y, dense_design(des) @ coeffs, rtol=0, atol=1e-12)


def test_simulate_u_variance_tracks_covariance_diagonal():
    _, truth = tlmm.simulate(seed=5, n_groups=500, group_size=2)
    sample_var = truth.u.var(axis=0, ddof=1)
    assert np.all(np.abs(sample_var / np.diag(truth.random_cov) - 1) < 0.25)


def test_simulate_input_validation():
    with pytest.raises(InvalidHyperparameter):
        tlmm.simulate(seed=0, random_cov=((1.0, 2.0), (2.0, 1.0)))
    with pytest.raises(InvalidHyperparameter):
        tlmm.simulate(seed=0, df=0.0)
    with pytest.raises(InvalidHyperparameter):
        tlmm.simulate(seed=0, n_groups=0)
    with pytest.raises(DimensionMismatch):
        tlmm.simulate(seed=0, beta=(1.0,))
    with pytest.raises(DimensionMismatch):
        tlmm.simulate(seed=0, design="intercept")


def test_assemble_design_block_structure():
    data = tlmm.TLMMData(np.zeros(3), np.array([0.5, 2.0, 1.0]), np.array([1, 0, 1]))
    des = tlmm.assemble_design(data, "slope")
    assert (des.n_fixed, des.n_random, des.n_groups) == (2, 2, 2)
    # the rows come in group order: group 0's x = 2.0, then group 1's
    expected = np.array(
        [
            [1.0, 2.0, 1.0, 2.0, 0.0, 0.0],
            [1.0, 0.5, 0.0, 0.0, 1.0, 0.5],
            [1.0, 1.0, 0.0, 0.0, 1.0, 1.0],
        ]
    )
    assert np.array_equal(dense_design(des), expected)

    des_i = tlmm.assemble_design(data, "intercept")
    assert (des_i.n_fixed, des_i.n_random) == (2, 1)
    assert np.array_equal(
        dense_design(des_i)[:, 2:], np.array([[1, 0], [0, 1], [0, 1]], dtype=float)
    )

    with pytest.raises(InvalidHyperparameter):
        tlmm.assemble_design(data, "cubic")


@given(st.integers(0, 10_000), st.sampled_from(["slope", "intercept"]))
@settings(max_examples=20, deadline=None)
def test_design_rows_encode_group_membership(seed, design):
    q = 2 if design == "slope" else 1
    data, truth = tlmm.simulate(
        seed=seed,
        n_groups=3,
        group_size=4,
        noise_variance=0.0,
        random_cov=np.eye(q),
        design=design,
    )
    des = tlmm.assemble_design(data, design)
    z = np.column_stack((np.ones(data.n_obs), data.x))[:, :q]
    manual = (
        truth.beta[0]
        + truth.beta[1] * data.x
        + np.sum(z * truth.u[data.group], axis=1)
    )
    assert np.allclose(data.y, manual, rtol=0, atol=1e-12)
    assert np.allclose(dense_design(des) @ np.concatenate((truth.beta, truth.u.ravel())), data.y)


@pytest.mark.parametrize(
    "group, m",
    [([0, 1, 0, 1], 2), ([0, 0, 2, 2], 3), ([], 1)],
    ids=["shuffled", "missing label", "empty"],
)
def test_design_rejects_rows_out_of_group_order(group, m):
    # reduceat would misread a segment that is split or missing
    n = len(group)
    with pytest.raises(DimensionMismatch, match="sorted order"):
        tlmm.DesignInfo(np.ones((n, 2)), np.ones((n, 1)), np.array(group, dtype=int), m)


def _random_design(rng, p, q, m, n_per_group=3):
    group = np.repeat(np.arange(m), n_per_group)
    # the shuffle keeps the later draws as they were; DesignInfo reads its
    # rows in group order
    rng.shuffle(group)
    group.sort()
    return tlmm.DesignInfo(
        rng.standard_normal((group.size, p)), rng.standard_normal((group.size, q)), group, m
    )


def _random_spd_arrowhead(rng, p, q, m, floor=1.0):
    # the precision of a random design plus floor times the identity
    des = _random_design(rng, p, q, m)
    _, gram = des.weighted_cross(rng.uniform(0.5, 2.0, des.group.size), np.zeros(des.group.size))
    a = matops.unravel_arrowhead(gram, p, q, m)
    return a._replace(corner=a.corner + floor * np.eye(p), blocks=a.blocks + floor * np.eye(q))


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2]),
    st.sampled_from([1, 2, 3]),
    st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_index_design_products_match_dense_design(seed, p, q, m):
    rng = np.random.default_rng(seed)
    des = _random_design(rng, p, q, m)
    C = dense_design(des)
    theta = rng.standard_normal(des.n_coefficients)
    assert_allclose(des.predict(theta), C @ theta, rtol=1e-12, atol=1e-12)

    cov = _random_spd_arrowhead(rng, p, q, m)
    want = np.einsum("lj,jk,lk->l", C, dense_arrowhead(cov), C)
    assert_allclose(des.row_variance(cov), want, rtol=1e-12, atol=1e-12)

    w, y = rng.uniform(0.1, 3.0, C.shape[0]), rng.standard_normal(C.shape[0])
    cross_y, gram = des.weighted_cross(w, y)
    assert_allclose(cross_y, C.T @ (w * y), rtol=1e-12, atol=1e-12)
    # every entry off the arrowhead is zero: each row touches one group
    assert gram.shape == (matops.arrowhead_len(p, q, m),)
    assert_allclose(
        dense_arrowhead(matops.unravel_arrowhead(gram, p, q, m)),
        C.T @ (w[:, None] * C),
        rtol=1e-12,
        atol=1e-12,
    )


def _natural_pair(rng, p, q, m, shift):
    """(arrowhead natural vector, dense vech natural vector, precision) of
    one Gaussian whose precision has its smallest eigenvalue at about
    ``shift`` times its largest diagonal entry."""
    a = _random_spd_arrowhead(rng, p, q, m, floor=0.0)
    P = dense_arrowhead(a)
    delta = shift * np.max(np.diag(P)) - np.linalg.eigvalsh(P)[0]
    a = a._replace(corner=a.corner + delta * np.eye(p), blocks=a.blocks + delta * np.eye(q))
    P = dense_arrowhead(a)
    h = rng.standard_normal(P.shape[0])
    arrow = np.concatenate((h, -0.5 * matops.ravel_arrowhead(a)))
    dense = np.concatenate((h, -0.5 * matops.fold_vech(P)))
    return arrow, dense, P


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2]),
    st.sampled_from([1, 2]),
    st.integers(1, 6),
    st.sampled_from([-1e-3, -1e-8, 0.0, 1e-8, 1e-3, 1.0]),
)
@settings(max_examples=80, deadline=None)
def test_extract_gaussian_matches_dense_natural_map(seed, p, q, m, shift):
    rng = np.random.default_rng(seed)
    arrow, dense, P = _natural_pair(rng, p, q, m, shift)
    k = P.shape[0]
    try:
        want_mu, want_cov = mvn_from_natural(NaturalMVN.from_vector(dense, k))
    except NonSPDPrecision:
        with pytest.raises(NonSPDPrecision):
            tlmm.extract_gaussian(arrow, p, q, m)
        return
    mu, cov = tlmm.extract_gaussian(arrow, p, q, m)
    mu_dense, cov_dense = tlmm.extract_gaussian(arrow, p, q, m, dense=True)
    assert np.array_equal(mu, mu_dense)
    # two factorizations agree to rounding times the condition number
    bound = 1e3 * np.finfo(float).eps * np.linalg.cond(P)
    assert np.linalg.norm(mu - want_mu) <= bound * np.linalg.norm(want_mu)
    scale = np.max(np.abs(want_cov))
    assert np.max(np.abs(cov_dense - want_cov)) <= bound * scale
    blocks = dense_arrowhead(cov)
    mask = dense_arrowhead(matops.Arrowhead(*(np.ones_like(b) for b in cov))) != 0
    assert np.max(np.abs(blocks - want_cov)[mask]) <= bound * scale


@pytest.mark.parametrize("factor, spd", [(1.0 + 1e-3, True), (1.0 - 1e-3, False)])
def test_extract_gaussian_applies_the_spd_threshold(factor, spd):
    # u[2,1] is coupled to nothing, so its diagonal entry is an eigenvalue of
    # P, placed just above or below 1e-12 times the largest diagonal entry
    p, q, m = 2, 2, 3
    a = _random_spd_arrowhead(np.random.default_rng(4), p, q, m)
    a.border[1, :, 1] = 0.0
    a.blocks[1, 0, 1] = a.blocks[1, 1, 0] = 0.0
    a.blocks[1, 1, 1] = 0.0
    top = max(np.max(np.diag(a.corner)), np.max(np.diagonal(a.blocks, axis1=1, axis2=2)))
    a.blocks[1, 1, 1] = factor * 1e-12 * top
    eta = np.concatenate((np.ones(p + m * q), -0.5 * matops.ravel_arrowhead(a)))
    assert matops.is_spd(dense_arrowhead(a)) is spd
    if spd:
        mu, _ = tlmm.extract_gaussian(eta, p, q, m)
        assert np.all(np.isfinite(mu))
    else:
        with pytest.raises(NonSPDPrecision):
            tlmm.extract_gaussian(eta, p, q, m)


def test_coefficient_names():
    names = tlmm.coefficient_names(2, 2, 3)
    assert names == (
        "beta0",
        "beta1",
        "u[1,0]",
        "u[1,1]",
        "u[2,0]",
        "u[2,1]",
        "u[3,0]",
        "u[3,1]",
    )


def test_data_validation():
    with pytest.raises(DimensionMismatch):
        tlmm.TLMMData(np.zeros(3), np.zeros(2), np.zeros(3, dtype=int))
    for labels in ([0, 2, 2], [1, 2, 2], [-1, 0, 1]):
        with pytest.raises(DimensionMismatch):
            tlmm.TLMMData(np.zeros(3), np.zeros(3), np.array(labels))
    with pytest.raises(DimensionMismatch):
        tlmm.TLMMData(np.zeros(3), np.zeros(3), np.array([0.0, 0.5, 1.0]))
    data = tlmm.TLMMData(np.zeros(3), np.zeros(3), np.array([1, 0, 1]))
    assert data.n_groups == 2


def test_data_rows_come_stably_sorted_by_group():
    y = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    x = 10.0 + y
    group = np.array([2, 0, 1, 0, 2])
    data = tlmm.TLMMData(y, x, group)
    assert np.array_equal(data.group, [0, 0, 1, 2, 2])
    assert np.array_equal(data.y, [1.0, 3.0, 2.0, 0.0, 4.0])
    assert np.array_equal(data.x, 10.0 + data.y)
    # the caller's arrays are copied, not reordered in place
    assert np.array_equal(group, [2, 0, 1, 0, 2])
    assert y.flags.writeable


@pytest.mark.parametrize("field", ["y", "x"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_data_must_be_finite(field, bad):
    values = {"y": np.zeros(3), "x": np.zeros(3)}
    values[field][1] = bad
    with pytest.raises(DomainError, match="finite"):
        tlmm.TLMMData(values["y"], values["x"], np.array([1, 0, 1]))


def test_hyper_validation():
    # every hyperparameter must be > 0 with a finite, nonzero square and
    # reciprocal square (1e-160 squares to a subnormal whose reciprocal is inf)
    for field in ("fixed_scale", "noise_scale", "df_rate", "random_scales"):
        for bad in (-1.0, 0.0, np.nan, np.inf, 1e-200, 1e-160, 1e200, 1e300):
            value = (1.0, bad) if field == "random_scales" else bad
            with pytest.raises(InvalidHyperparameter):
                tlmm.TLMMHyper(**{field: value})
        for good in (1e-150, 1e150):
            tlmm.TLMMHyper(**{field: (1.0, good) if field == "random_scales" else good})
    assert tlmm.TLMMHyper.diffuse(3).random_scales == (1e5, 1e5, 1e5)


# ---------------------------------------------------------------------------
# initial messages
# ---------------------------------------------------------------------------


def test_initial_message_table():
    hyper = tlmm.TLMMHyper()
    p, q, m = 2, 2, 3
    k = p + m * q
    msgs = tlmm.initial_messages(hyper, p, q, m)

    igw_init = np.array([-0.5, -0.5, 0.0, -0.5])
    for fac, node, graph in [
        ("cov_conditional", "cov_aux", Graph.DIAG),
        ("cov_conditional", "cov", Graph.FULL),
        ("coefficient_prior", "cov", Graph.FULL),
    ]:
        assert np.array_equal(msgs[(fac, node)].eta, igw_init), (fac, node)
        assert msgs[(fac, node)].graph is graph

    for fac, node, graph in [
        ("noise_conditional", "noise_aux", Graph.DIAG),
        ("noise_conditional", "noise", Graph.FULL),
        ("likelihood", "noise", Graph.FULL),
    ]:
        assert np.array_equal(msgs[(fac, node)].eta, [-2.0, -1.0])
        assert msgs[(fac, node)].graph is graph

    # (P mu, the raveled arrowhead blocks of -P/2) for mu = 0 and P = I_k
    for fac in ("coefficient_prior", "likelihood"):
        eta = msgs[(fac, "coefficients")].eta
        assert eta.shape == (k + matops.arrowhead_len(p, q, m),)
        assert np.array_equal(eta[:k], np.zeros(k))
        precision = dense_arrowhead(matops.unravel_arrowhead(-2.0 * eta[k:], p, q, m))
        assert np.array_equal(precision, np.eye(k)), fac

    assert np.array_equal(msgs[("scale_mix", "df_half")].eta, [1.0, -1.1])
    assert np.array_equal(msgs[("df_prior", "df_half")].eta, [0.0, -hyper.df_rate])

    hw = fr.igw_prior_update(plan_prior(HuangWandSpec(scales=hyper.random_scales)).prior_factor)
    assert np.array_equal(msgs[("cov_aux_prior", "cov_aux")].eta, hw.eta)
    assert msgs[("cov_aux_prior", "cov_aux")].graph is Graph.DIAG
    hc = fr.igw_prior_update(plan_prior(HalfCauchySpec(scale=hyper.noise_scale)).prior_factor)
    assert np.array_equal(msgs[("noise_aux_prior", "noise_aux")].eta, hc.eta)


def test_prior_factors_emit_their_start_messages(small_data):
    # the three constant factors send, every sweep, the start message stored
    data, _ = small_data
    hyper = tlmm.TLMMHyper()
    graph = tlmm.build_graph(data, hyper)
    start = tlmm.initial_messages(hyper, 2, 2, data.n_groups)
    for fac, node in [
        ("cov_aux_prior", "cov_aux"),
        ("noise_aux_prior", "noise_aux"),
        ("df_prior", "df_half"),
    ]:
        sent = graph.factors[fac].update(graph)
        assert list(sent) == [node]
        assert np.array_equal(sent[node].eta, start[(fac, node)].eta)
        assert sent[node].graph is start[(fac, node)].graph


def test_first_sweep_keeps_every_posterior_extractable(small_data):
    data, _ = small_data
    graph = tlmm.build_graph(data, tlmm.TLMMHyper.diffuse(2))
    graph.sweep()
    mu, Sig = tlmm.extract_gaussian(graph.q_star("coefficients").eta, 2, 2, 6, dense=True)
    assert np.all(np.isfinite(mu)) and matops.is_spd(Sig)
    assert tlmm.extract_igw_full(graph.q_star("cov").eta).xi > 2
    delta, lam = tlmm.extract_inv_chisq(graph.q_star("noise").eta)
    assert delta > 0 and lam > 0
    params = MoonRockParams.from_vector(graph.q_star("df_half").eta)
    assert params.beta > params.alpha


def test_improper_df_message_is_a_numerical_failure_of_the_sweep():
    # an extrapolated state can hold a scale_mix -> df_half message that
    # makes q(df_half) improper (beta < 0); the next sweep must raise a
    # NumericalFailure, which the SQUAREM guard rejects, not an input error
    data, _ = tlmm.simulate(seed=1)
    graph = tlmm.build_graph(data, tlmm.TLMMHyper.diffuse(2))
    graph.store("scale_mix", "df_half", Message(np.array([300.0, 50.0])))
    with pytest.raises(NumericalFailure):
        graph.sweep()


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_one_moon_rock_grid_per_sweep(monkeypatch):
    # likelihood and scale_mix read the same q(df_half) within a sweep and
    # share one MoonRockParams, so its Moon Rock grid is built once per
    # completed sweep; a sweep from a rejected extrapolated state can stop
    # before the likelihood and build none
    builds = []
    grid_init = distributions._MoonRockGrid.__init__

    def counted(self, alpha, beta):
        builds.append((alpha, beta))
        grid_init(self, alpha, beta)

    completed = []
    sweep = FactorGraph.sweep

    def counted_sweep(self, schedule=None):
        sweep(self, schedule)
        completed.append(schedule)

    monkeypatch.setattr(distributions._MoonRockGrid, "__init__", counted)
    monkeypatch.setattr(FactorGraph, "sweep", counted_sweep)
    data, _ = tlmm.simulate(seed=1)
    tlmm.fit(data)
    # plus one for the summary's q(nu) density and moments of the final
    # q(df_half), whose quantile and normalizer share that grid
    assert len(builds) == len(completed) + 1


def test_one_likelihood_computation_per_sweep(monkeypatch):
    # only the likelihood factor forms C^T W y and C^T W C; scale_mix sends
    # its df message from q(b) without them
    calls = {"weighted_cross": 0, "t_likelihood_update": 0}
    weighted_cross = tlmm.DesignInfo.weighted_cross
    t_likelihood_update = fr.t_likelihood_update

    def counted_cross(self, w, y):
        calls["weighted_cross"] += 1
        return weighted_cross(self, w, y)

    def counted_likelihood(*args):
        calls["t_likelihood_update"] += 1
        return t_likelihood_update(*args)

    monkeypatch.setattr(tlmm.DesignInfo, "weighted_cross", counted_cross)
    monkeypatch.setattr(fr, "t_likelihood_update", counted_likelihood)
    data, _ = tlmm.simulate(seed=1)
    sweeps = tlmm.fit(data).summary.report.iterations
    assert calls == {"weighted_cross": sweeps, "t_likelihood_update": sweeps}


def _posterior_blocks(summary):
    return {
        "beta_u.mean": summary.coefficient_mean,
        "beta_u.cov": summary.coefficient_cov,
        "sigma2": np.array([summary.noise_delta, summary.noise_lambda]),
        "Sigma": np.concatenate(([summary.variance.xi], summary.variance.Lambda.ravel())),
        "upsilon": np.array([summary.df_half.alpha, summary.df_half.beta]),
    }


# the four standard sets, with the sweeps the unaccelerated loop took at tol 1e-10
STANDARD_SETS = [
    (dict(n_groups=10), 153),
    (dict(n_groups=20), 248),
    (dict(n_groups=40), 155),
    (dict(n_groups=10, df=100.0), 998),
]


@pytest.mark.parametrize(
    "kwargs, plain_sweeps", STANDARD_SETS, ids=["m10", "m20", "m40", "m10-df100"]
)
def test_accelerated_fit_agrees_with_a_tight_fit_in_fewer_sweeps(kwargs, plain_sweeps):
    data, _ = tlmm.simulate(seed=1, group_size=15, **kwargs)
    fit = tlmm.fit(data, tol=1e-10, max_iters=2000)
    tight = tlmm.fit(data, tol=1e-13, max_iters=5000)
    assert fit.summary.report.iterations < plain_sweeps
    got, want = _posterior_blocks(fit.summary), _posterior_blocks(tight.summary)
    for name in want:
        gap = np.max(np.abs(got[name] - want[name]))
        assert gap < 1e-8 * np.max(np.abs(want[name])), name


def _robustness_cases():
    base, _ = tlmm.simulate(seed=1, n_groups=20, group_size=15)
    y, x, group = base.y, base.x, base.group
    return {
        "m20": base,
        "y*1e-6": tlmm.TLMMData(y * 1e-6, x, group),
        "x*1e4": tlmm.TLMMData(y, x * 1e4, group),
        "y*1e6": tlmm.TLMMData(y * 1e6, x, group),
        "y+1e6": tlmm.TLMMData(y + 1e6, x, group),
        "1 group of 60": tlmm.simulate(seed=1, n_groups=1, group_size=60)[0],
        "40 groups of 1": tlmm.simulate(seed=1, n_groups=40, group_size=1)[0],
        "40 groups of 2": tlmm.simulate(seed=1, n_groups=40, group_size=2)[0],
        "m10 df 100": tlmm.simulate(seed=1, n_groups=10, group_size=15, df=100.0)[0],
        "constant x": tlmm.TLMMData(y, np.full_like(x, 0.5), group),
    }


# how each case ended under the unaccelerated loop at max_iters=500
ROBUSTNESS_OUTCOMES = {
    "m20": "converged",
    "y*1e-6": "converged",
    "x*1e4": "converged",
    "y*1e6": "NotConverged",
    "y+1e6": "NotConverged",
    "1 group of 60": "NotConverged",
    "40 groups of 1": "NotConverged",
    "40 groups of 2": "NotConverged",
    "m10 df 100": "NotConverged",
    "constant x": "NonSPDPrecision",
}


@pytest.mark.parametrize("case", sorted(ROBUSTNESS_OUTCOMES))
def test_robustness_cases_end_as_before_or_converge(case):
    data = _robustness_cases()[case]
    try:
        fit = tlmm.fit(data, max_iters=500)
    except NotConverged as exc:
        outcome = "NotConverged"
        assert exc.report.iterations == 500 == len(exc.report.changes)
        assert np.isfinite(exc.report.final_change)
    except IGWVMPError as exc:
        outcome = type(exc).__name__
    else:
        outcome = "converged"
        assert fit.summary.report.iterations <= 500
    before = ROBUSTNESS_OUTCOMES[case]
    # only a fit that ran out of sweeps may now converge; a non-identifiable
    # model (constant x) must still be refused
    assert outcome == before or (before == "NotConverged" and outcome == "converged")


def test_sweeps_need_no_k_by_k_array():
    # m = 5000 groups of 15: k = 10002, so one k x k array is 800 MB
    data, _ = tlmm.simulate(seed=1, n_groups=5000, group_size=15)
    tracemalloc.start()
    try:
        graph = tlmm.build_graph(data, tlmm.TLMMHyper.diffuse(2))
        for _ in range(3):
            graph.sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_fit_converges_on_default_example(example_fit):
    _, _, res = example_fit
    assert res.summary.report.converged
    assert res.summary.report.final_change < 1e-10
    assert res.summary.report.iterations < 500


def test_fit_recovers_fixed_effects(example_fit):
    _, truth, res = example_fit
    s = res.summary
    err = np.abs(s.coefficient_mean[:2] - truth.beta)
    assert np.all(err < 4 * s.coefficient_sd[:2])


def test_posterior_summary_finite_and_coherent(example_fit):
    _, _, res = example_fit
    s = res.summary
    assert len(s.names) == len(s.coefficient_mean) == 2 + 20 * 2
    assert s.names[:2] == ("beta0", "beta1")
    assert s.noise_delta > 2 and s.noise_lambda > 0
    # Jensen: E(sigma)^2 < E(sigma^2) = lambda / (delta - 2)
    noise_sd_mean = inv_chisq_sqrt_mean(s.noise_delta, s.noise_lambda)
    assert noise_sd_mean**2 < s.noise_lambda / (s.noise_delta - 2)
    assert inv_chisq_sqrt_sd(s.noise_delta, s.noise_lambda) > 0
    assert s.to_dict()["Sigma"]["kappa"] == pytest.approx(s.variance.xi - 2 + 1)
    assert s.variance.xi > 2 * s.variance.dim
    assert matops.is_spd(s.variance.Lambda / (s.variance.xi - 2 * s.variance.dim))
    assert s.df_mean() > 0 and s.df_sd() > 0


def test_qstar_is_sum_of_incident_messages(example_fit):
    _, _, res = example_fit
    g = res.graph
    total = (
        g.factor_to_node("cov_conditional", "cov").eta
        + g.factor_to_node("coefficient_prior", "cov").eta
    )
    assert np.array_equal(g.q_star("cov").eta, total)


def test_variance_conversion_round_trip(example_fit):
    _, _, res = example_fit
    eta = res.graph.q_star("cov").eta
    back = igw_to_natural(tlmm.extract_igw_full(eta)).to_vector()
    assert np.max(np.abs(back - eta) / (np.abs(eta) + 1e-12)) < 1e-12


def test_nu_grid_integrates_to_one(example_fit):
    _, _, res = example_fit
    s = res.summary
    mass = np.trapezoid(s.nu_density, s.nu_grid)
    assert abs(mass - 1.0) < 1e-6
    assert np.all(s.nu_density >= 0)
    assert s.nu_grid.shape == (401,)


def test_df_outputs_are_smooth_in_beta():
    # q(upsilon) of the VMP fit to tlmm.simulate(seed=1, n_groups=10,
    # group_size=15, df=100) at tol 1e-10. One ulp more of beta may move its
    # mean and the upper end of the nu density grid by rounding only: both
    # come from the one Moon Rock grid, whose range is set by the curvature
    # at the mode in closed form
    alpha, beta = 150.0, 150.6716682511638
    p0 = MoonRockParams(alpha, beta)
    p1 = MoonRockParams(alpha, np.nextafter(beta, np.inf))
    assert abs(moonrock_mean(p1) / moonrock_mean(p0) - 1.0) < 1e-12
    end0 = tlmm.df_density_grid(p0)[0][-1]
    end1 = tlmm.df_density_grid(p1)[0][-1]
    assert abs(end1 / end0 - 1.0) < 1e-12


def test_summary_to_dict_is_json_ready(example_fit):
    _, _, res = example_fit
    blob = json.loads(json.dumps(res.summary.to_dict()))
    assert blob["names"][2] == "u[1,0]"
    assert blob["sigma2"]["delta"] > 0
    assert len(blob["nu_density"]["grid"]) == len(blob["nu_density"]["values"]) == 401


def test_extra_sweep_after_convergence_is_stable(small_data):
    data, _ = small_data
    res = tlmm.fit(data)
    report = res.graph.run(tol=1e-10, max_iters=1)
    assert report.converged
    assert report.final_change < 1e-10


def test_group_relabeling_leaves_fixed_effects_invariant(small_data):
    data, _ = small_data
    perm = np.array([3, 0, 5, 1, 4, 2])
    relabeled = tlmm.TLMMData(data.y, data.x, perm[data.group])
    f1 = tlmm.fit(data)
    f2 = tlmm.fit(relabeled)
    assert np.max(np.abs(f1.summary.coefficient_mean[:2] - f2.summary.coefficient_mean[:2])) < 1e-8
    # group i's effects move to slot perm[i]
    u1 = f1.summary.coefficient_mean[2:].reshape(6, 2)
    u2 = f2.summary.coefficient_mean[2:].reshape(6, 2)
    assert np.max(np.abs(u1 - u2[perm])) < 1e-8


def test_schedule_permutation_reaches_same_fixed_point(small_data):
    data, _ = small_data
    f1 = tlmm.fit(data)
    swapped = (
        "noise_aux_prior",
        "cov_aux_prior",
        "noise_conditional",
        "cov_conditional",
        "likelihood",
        "coefficient_prior",
        "df_prior",
        "scale_mix",
    )
    f2 = tlmm.fit(data, schedule=swapped)
    for node in tlmm.NODE_NAMES:
        a = f1.graph.q_star(node).eta
        b = f2.graph.q_star(node).eta
        assert np.max(np.abs(a - b) / (np.abs(a) + 1e-10)) < 1e-8, node


def test_schedule_reading_stale_covariance_raises(small_data):
    # the coefficient prior may not run before the covariance conditional
    # has replaced its half of the initial covariance messages
    data, _ = small_data
    bad = (
        "cov_aux_prior",
        "noise_aux_prior",
        "coefficient_prior",
        "cov_conditional",
        "noise_conditional",
        "likelihood",
        "scale_mix",
        "df_prior",
    )
    with pytest.raises(ImproperMessage):
        tlmm.fit(data, schedule=bad)


def test_not_converged_raises_with_report(small_data):
    data, _ = small_data
    with pytest.raises(NotConverged) as exc:
        tlmm.fit(data, max_iters=2)
    assert exc.value.report.converged is False
    assert exc.value.report.iterations == 2


def test_scale_count_must_match_design(small_data):
    data, _ = small_data
    with pytest.raises(DimensionMismatch):
        tlmm.fit(data, hyper=tlmm.TLMMHyper.diffuse(2), design="intercept")
