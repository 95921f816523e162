import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import digamma

from igwvmp import fragments as fr
from igwvmp import matops, tlmm
from igwvmp.distributions import CommonIGW, Graph
from igwvmp.errors import ImproperMessage, InvalidShape
from igwvmp.graph_engine import Message
from oracles import blockdiag, dense_arrowhead, dense_design, vec


def natural_of(xi, Lam):
    d = Lam.shape[0]
    D = matops.duplication(d)
    return np.concatenate(([-(xi + 2.0) / 2.0], -0.5 * (D.T @ vec(Lam))))


class TestPriorFragment:
    def test_full_graph_vector(self):
        msg = fr.igw_prior_update(CommonIGW(Graph.FULL, 10.0, np.eye(2)))
        # one tagged-vector type: the engine stores fragment output as is
        assert fr.IGWMessage is Message and type(msg) is Message
        assert msg.graph is Graph.FULL
        assert_allclose(msg.eta, [-6.0, -0.5, 0.0, -0.5])

    def test_diag_graph_vector(self):
        msg = fr.igw_prior_update(CommonIGW(Graph.DIAG, 1.0, np.diag([0.5, 2.0])))
        assert msg.graph is Graph.DIAG
        assert_allclose(msg.eta, [-1.5, -0.25, 0.0, -1.0])

    def test_constant_under_repetition(self):
        p = CommonIGW(Graph.FULL, 5.0, np.array([[2.0, 0.3], [0.3, 1.0]]))
        a = fr.igw_prior_update(p)
        b = fr.igw_prior_update(p)
        assert_allclose(a.eta, b.eta)


class TestIteratedFragment:
    """Hand-worked single updates, exact to near machine precision."""

    def test_d1_message_to_variance(self):
        # combined auxiliary (-1.5, -0.5): E(A^{-1}) = (-0.5)(-2) = 1,
        # so the variance message is (-(xi+2)/2, -1/2) = (-1.5, -0.5)
        res = fr.iterated_igw_update(
            Graph.FULL,
            1.0,
            to_variance=np.array([-0.5, -1.5]),
            from_variance=np.array([-1.5, -1.5]),
            to_auxiliary=np.array([-0.5, -0.25]),
            from_auxiliary=fr.IGWMessage(np.array([-1.0, -0.25]), Graph.DIAG),
        )
        assert res.to_variance.graph is Graph.FULL
        assert np.max(np.abs(res.to_variance.eta - [-1.5, -0.5])) < 1e-14

    def test_d1_message_to_auxiliary(self):
        # the refreshed variance message is (-1.5, -0.5); adding the incoming
        # (-0.5, -2.5) gives the combined (-2, -3), so E(Sigma^{-1}) =
        # (-2+1)(-1/3) = 1/3 and eta1 = -(xi + 2 - 2 omega)/2 = -1/2 at d = 1
        res = fr.iterated_igw_update(
            Graph.FULL,
            1.0,
            to_variance=np.array([-0.5, -1.5]),
            from_variance=np.array([-0.5, -2.5]),
            to_auxiliary=np.array([-0.5, -0.25]),
            from_auxiliary=fr.IGWMessage(np.array([-1.0, -0.25]), Graph.DIAG),
        )
        assert res.to_auxiliary.graph is Graph.DIAG
        assert np.max(np.abs(res.to_auxiliary.eta - [-0.5, -1.0 / 6.0])) < 1e-14

    def test_d2_full_full_shape_translation(self):
        # for the full graph the auxiliary message shape term is
        # -(xi - d + 1)/2; here xi = 4, d = 2 gives -1.5
        eta = natural_of(6.0, np.eye(2))
        # the refreshed variance message is (-3, -2.5 vech(I)); the incoming
        # message below makes the combined equal eta = (-4, -0.5 vech(I))
        res = fr.iterated_igw_update(
            Graph.FULL,
            4.0,
            to_variance=0.5 * eta,
            from_variance=np.array([-1.0, 2.0, 0.0, 2.0]),
            to_auxiliary=0.5 * eta,
            from_auxiliary=fr.IGWMessage(0.5 * eta, Graph.FULL),
        )
        assert abs(res.to_auxiliary.eta[0] - (-1.5)) < 1e-14
        # E(A^{-1}) = E(Sigma^{-1}) = (-4 + 1.5)(-I/2)^{-1} = 5 I
        assert np.max(np.abs(res.to_variance.eta - [-3.0, -2.5, 0.0, -2.5])) < 1e-14
        assert np.max(np.abs(res.to_auxiliary.eta[1:] - [-2.5, 0.0, -2.5])) < 1e-14

    def test_improper_combined_raises(self):
        # the refreshed variance message has eta1 = -1.5; the incoming +0.5
        # drives the combined eta1 to -1, outside the proper range
        with pytest.raises(ImproperMessage):
            fr.iterated_igw_update(
                Graph.FULL,
                1.0,
                to_variance=np.array([-0.5, -0.5]),
                from_variance=np.array([0.5, -0.5]),
                to_auxiliary=np.array([-1.0, -0.5]),
                from_auxiliary=fr.IGWMessage(np.array([-1.0, -0.5]), Graph.DIAG),
            )

    def test_indefinite_combined_scale_raises(self):
        # aux side gives E(A^{-1}) = 4I, so the refreshed variance message
        # contributes 4I of scale; the incoming indefinite scale swamps it
        # and the combined implies scale [[5, 6], [6, 5]], not SPD
        bad = natural_of(5.0, np.array([[1.0, 6.0], [6.0, 1.0]]))
        good = natural_of(5.0, np.eye(2))
        with pytest.raises(ImproperMessage):
            fr.iterated_igw_update(
                Graph.FULL,
                4.0,
                to_variance=bad / 2,
                from_variance=bad,
                to_auxiliary=good / 2,
                from_auxiliary=fr.IGWMessage(good / 2, Graph.FULL),
            )

    def test_invalid_shape_raises(self):
        eta = natural_of(6.0, np.eye(2))
        with pytest.raises(InvalidShape):
            fr.iterated_igw_update(
                Graph.FULL,
                2.0,  # needs xi > 2 at d = 2
                to_variance=eta / 2,
                from_variance=eta / 2,
                to_auxiliary=eta / 2,
                from_auxiliary=fr.IGWMessage(eta / 2, Graph.FULL),
            )

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_messages_finite_for_proper_inputs(self, d, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((d, d))
        Lam_v = A @ A.T + d * np.eye(d)
        B = rng.standard_normal((d, d))
        Lam_a = B @ B.T + d * np.eye(d)
        xi = 2 * d - 1.0
        res = fr.iterated_igw_update(
            Graph.FULL,
            xi,
            to_variance=natural_of(2 * d + rng.uniform(0, 3), Lam_v) / 2,
            from_variance=natural_of(2 * d + rng.uniform(0, 3), Lam_v) / 2,
            to_auxiliary=natural_of(2 * d + rng.uniform(0, 3), Lam_a) / 2,
            from_auxiliary=fr.IGWMessage(
                natural_of(2 * d + rng.uniform(0, 3), Lam_a) / 2, Graph.FULL
            ),
        )
        assert np.all(np.isfinite(res.to_variance.eta))
        assert np.all(np.isfinite(res.to_auxiliary.eta))
        assert res.to_variance.eta[0] == -(xi + 2.0) / 2.0


class TestMoonRockPrior:
    def test_vector(self):
        assert_allclose(fr.moonrock_prior_update(0.0, 0.01).eta, [0.0, -0.01])
        assert_allclose(fr.moonrock_prior_update(2.0, 5.0).eta, [2.0, -5.0])


def random_design(rng, p, q, m, n):
    group = np.arange(n) % m
    # the shuffle keeps the later draws as they were; DesignInfo reads its
    # rows in group order
    rng.shuffle(group)
    group.sort()
    return tlmm.DesignInfo(rng.standard_normal((n, p)), rng.standard_normal((n, q)), group, m)


def random_arrowhead(rng, p, q, m):
    """Arrowhead blocks of a random SPD k x k matrix."""
    k = p + m * q
    A = rng.standard_normal((k, k))
    full = A @ A.T + k * np.eye(k)
    groups = [slice(p + i * q, p + (i + 1) * q) for i in range(m)]
    blocks = np.array([full[g, g] for g in groups])
    border = np.array([full[:p, g] for g in groups])
    return matops.Arrowhead(full[:p, :p], border, blocks)


def dense_from_ravel(arrow, p, q, m):
    """The symmetric k x k matrix whose raveled arrowhead blocks are ``arrow``."""
    return dense_arrowhead(matops.unravel_arrowhead(arrow, p, q, m))


class TestGaussianPenalization:
    def test_message_structure(self):
        p, m, q = 2, 3, 2
        k = p + m * q
        rng = np.random.default_rng(23)
        mean = rng.standard_normal(k)
        cov = random_arrowhead(rng, p, q, m)
        Einv = np.array([[2.0, 0.5], [0.5, 1.0]])
        res = fr.gaussian_penalization_update(mean, cov, p, m, 10.0, Einv)

        # precision block: sigma_beta^{-2} I_p then m copies of E(Sigma^{-1})
        P = -2.0 * dense_from_ravel(res.to_coefficients.eta[k:], p, q, m)
        expected = blockdiag([np.eye(p) / 100.0] + [Einv] * m)
        assert_allclose(P, expected, atol=1e-13)
        assert_allclose(res.to_coefficients.eta[:k], np.zeros(k))

        # variance message carries -m/2 and the summed second moments
        assert res.to_variance.graph is Graph.FULL
        assert res.to_variance.eta[0] == -m / 2.0
        S = np.zeros((q, q))
        for i in range(m):
            sl = slice(p + i * q, p + (i + 1) * q)
            S += np.outer(mean[sl], mean[sl]) + cov.blocks[i]
        Dq = matops.duplication(q)
        assert_allclose(res.to_variance.eta[1:], -0.5 * (Dq.T @ vec(S)))

    def test_dimension_check(self):
        blocks = np.broadcast_to(np.eye(2), (3, 2, 2))
        cov = matops.Arrowhead(np.eye(2), np.zeros((3, 2, 2)), blocks)
        with pytest.raises(InvalidShape):
            fr.gaussian_penalization_update(np.zeros(3), cov, 2, 3, 1.0, np.eye(2))
        with pytest.raises(InvalidShape):
            fr.gaussian_penalization_update(np.zeros(11), cov, 2, 3, 1.0, np.eye(3))


class TestTLikelihood:
    def setup_method(self):
        rng = np.random.default_rng(31)
        self.n, self.p, self.q, self.m = 12, 2, 2, 3
        self.k = self.p + self.m * self.q
        self.design = random_design(rng, self.p, self.q, self.m, self.n)
        self.C = dense_design(self.design)
        self.y = rng.standard_normal(self.n)
        self.mean = rng.standard_normal(self.k)
        self.cov = random_arrowhead(rng, self.p, self.q, self.m)
        # off the arrowhead the covariance never meets a row of C
        self.cov_dense = dense_arrowhead(self.cov)

    def residual_second_moments(self):
        return np.array(
            [
                (self.y[i] - self.C[i] @ self.mean) ** 2
                + self.C[i] @ self.cov_dense @ self.C[i]
                for i in range(self.n)
            ]
        )

    def test_residual_second_moments(self):
        # the update's r_l = (y_l - (C mu)_l)^2 + (C Sigma C^T)_ll, read from
        # the index-form design; b_l's rate is 2 E(upsilon) + E(1/sigma^2) r_l
        r = (self.y - self.design.predict(self.mean)) ** 2 + self.design.row_variance(self.cov)
        assert_allclose(r, self.residual_second_moments(), rtol=1e-12)

    def test_messages_match_direct_formulas(self):
        einv_noise, e_df_half = 2.0, 1.5
        args = (self.y, self.design, self.mean, self.cov, einv_noise, e_df_half)
        res = fr.t_likelihood_update(*args)
        r = self.residual_second_moments()
        w = (2 * e_df_half + 1.0) / (2 * e_df_half + einv_noise * r)
        W = np.diag(w)
        assert res.to_coefficients.graph is None
        assert_allclose(res.to_coefficients.eta[: self.k], einv_noise * self.C.T @ W @ self.y)
        # the arrowhead blocks are the whole dense message: every entry of
        # C^T W C off the arrowhead is zero
        assert_allclose(
            dense_from_ravel(res.to_coefficients.eta[self.k :], self.p, self.q, self.m),
            -0.5 * einv_noise * (self.C.T @ W @ self.C),
            rtol=1e-12,
        )
        assert res.to_noise.graph is Graph.FULL
        assert_allclose(res.to_noise.eta, [-self.n / 2.0, -0.5 * np.sum(w * r)])
        elog_b = np.log((2 * e_df_half + einv_noise * r) / 2.0) - digamma(
            (2 * e_df_half + 1.0) / 2.0
        )
        to_df_half = fr.scale_mixture_update(*args)
        assert to_df_half.graph is None
        assert_allclose(to_df_half.eta, [self.n, -np.sum(elog_b + w)])

    def test_gaussian_limit_weights_approach_one(self):
        # as E(upsilon) grows the scale mixture collapses and W -> I
        # |w_l - 1| < 1e-6 bounds each entry of C^T (W - I) y and C^T (W - I) C
        res = fr.t_likelihood_update(self.y, self.design, self.mean, self.cov, 1.0, 1e8)
        C = self.C
        h = res.to_coefficients.eta[: self.k]
        gram = dense_from_ravel(res.to_coefficients.eta[self.k :], self.p, self.q, self.m)
        assert np.all(np.abs(h - C.T @ self.y) <= 1e-6 * np.abs(C).T @ np.abs(self.y))
        assert np.all(np.abs(gram + 0.5 * (C.T @ C)) <= 0.5e-6 * (np.abs(C).T @ np.abs(C)))
