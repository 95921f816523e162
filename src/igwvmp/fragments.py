"""Factor-to-node update rules for the message passing fragments.

Each update is a pure function from message inputs to message outputs.
Messages on variance-type nodes are natural vectors for the sufficient
statistic (log|X|, vech(X^{-1})) carrying an Inverse G-Wishart graph tag;
diag-tagged vectors keep their off-diagonal vech entries at zero (those
entries carry no information under the diagonal graph, and zeroing them makes
message equality checks exact). Messages on the Gaussian coefficient node
are (eta1, eta2) with eta2 = ``matops.ravel_arrowhead`` of -P/2 for a
precision P that is zero off the arrowhead, and messages on Moon Rock
nodes the pair (alpha, -beta).
"""

from typing import NamedTuple

import numpy as np

from . import matops
from .distributions import (
    CommonIGW,
    Graph,
    combined_mean_inverse,
    igw_to_natural,
    inv_chisq_mean_inverse,
    inv_chisq_mean_log,
    omega,
)
from .errors import InvalidShape

__all__ = [
    "IGWMessage",
    "IteratedIGWResult",
    "GaussianPenalizationResult",
    "TLikelihoodResult",
    "canonical_eta",
    "igw_prior_update",
    "iterated_igw_update",
    "moonrock_prior_update",
    "gaussian_penalization_update",
    "t_likelihood_update",
]


class IGWMessage(NamedTuple):
    """A natural vector on a variance node together with its graph tag."""

    eta: np.ndarray
    graph: Graph


class IteratedIGWResult(NamedTuple):
    to_variance: IGWMessage
    to_auxiliary: IGWMessage


class GaussianPenalizationResult(NamedTuple):
    to_coefficients: np.ndarray
    to_variance: IGWMessage


class TLikelihoodResult(NamedTuple):
    to_coefficients: np.ndarray
    to_noise: IGWMessage
    to_df_half: np.ndarray


def canonical_eta(eta: np.ndarray, graph: Graph) -> np.ndarray:
    """Zero the off-diagonal vech entries of a diag-tagged natural vector."""
    eta = np.asarray(eta, dtype=float)
    if graph is Graph.FULL:
        return eta
    return np.concatenate((eta[:1], matops.zero_offdiag_vech(eta[1:])))


def igw_prior_update(prior: CommonIGW) -> IGWMessage:
    """Message from an Inverse G-Wishart prior factor to its variance node.

    Constant across iterations: the natural vector of the prior itself.
    """
    n = igw_to_natural(prior)
    return IGWMessage(canonical_eta(n.to_vector(), prior.graph), prior.graph)


def iterated_igw_update(
    graph: Graph,
    xi: float,
    to_variance: np.ndarray,
    from_variance: np.ndarray,
    to_auxiliary: np.ndarray,
    from_auxiliary: IGWMessage,
) -> IteratedIGWResult:
    """Update for a factor of the form p(Sigma | A) = IGW(graph, xi, A^{-1}).

    ``to_*`` are the factor's messages from the previous iteration and
    ``from_*`` the current node-to-factor messages. The returned message to
    the variance node carries ``graph``; the one to the auxiliary node carries
    the auxiliary's own graph, taken from ``from_auxiliary``.

    The two halves run in sequence: the variance-side expectation uses the
    freshly updated variance message, not the previous one. Started from the
    documented initial messages this keeps every combined vector proper from
    the first sweep, which a simultaneous update does not.

    Each expectation is projected onto the diagonal when the opposite edge
    carries the diagonal graph.
    """
    aux_graph = from_auxiliary.graph
    to_variance = np.asarray(to_variance, dtype=float)
    from_variance = np.asarray(from_variance, dtype=float)
    to_auxiliary = np.asarray(to_auxiliary, dtype=float)
    d = matops.dim_from_vech_len(to_variance.size - 1)
    if graph is Graph.FULL and not (xi > 2 * d - 2):
        raise InvalidShape(f"full graph requires xi > {2 * d - 2}, got {xi}")
    if xi <= 0:
        raise InvalidShape(f"xi must be positive, got {xi}")

    both_auxiliary = canonical_eta(to_auxiliary + from_auxiliary.eta, aux_graph)

    mean_inv_aux = combined_mean_inverse(both_auxiliary, aux_graph)
    if graph is Graph.DIAG:
        mean_inv_aux = np.diag(np.diag(mean_inv_aux))
    eta_to_variance = np.concatenate(
        ([-(xi + 2.0) / 2.0], -0.5 * matops.fold_vech(mean_inv_aux))
    )

    both_variance = canonical_eta(eta_to_variance + from_variance, graph)
    w2 = omega(graph, d)
    mean_inv_var = combined_mean_inverse(both_variance, graph)
    if aux_graph is Graph.DIAG:
        mean_inv_var = np.diag(np.diag(mean_inv_var))
    eta_to_auxiliary = np.concatenate(
        ([-(xi + 2.0 - 2.0 * w2) / 2.0], -0.5 * matops.fold_vech(mean_inv_var))
    )

    return IteratedIGWResult(
        IGWMessage(canonical_eta(eta_to_variance, graph), graph),
        IGWMessage(canonical_eta(eta_to_auxiliary, aux_graph), aux_graph),
    )


def moonrock_prior_update(alpha: float, beta: float) -> np.ndarray:
    """Constant message from a Moon Rock prior factor: (alpha, -beta)."""
    return np.array([float(alpha), -float(beta)])


def gaussian_penalization_update(
    mean_coeffs: np.ndarray,
    cov_coeffs: matops.Arrowhead,
    n_fixed: int,
    n_groups: int,
    sigma_beta: float,
    mean_inv_variance: np.ndarray,
) -> GaussianPenalizationResult:
    """Update for the factor N((beta, u); 0, blockdiag(sigma_beta^2 I, I (x) Sigma)).

    ``mean_coeffs`` and ``cov_coeffs`` (arrowhead blocks) are the current
    moments of q(beta, u); ``mean_inv_variance`` is E_q(Sigma^{-1}).
    """
    q = mean_inv_variance.shape[0]
    k = n_fixed + n_groups * q
    if mean_coeffs.size != k or cov_coeffs.blocks.shape != (n_groups, q, q):
        raise InvalidShape(
            f"coefficient moments must have dimension {k} with {n_groups} "
            f"{q} x {q} blocks, got {mean_coeffs.size} and {cov_coeffs.blocks.shape}"
        )
    precision = matops.Arrowhead(
        np.eye(n_fixed) / sigma_beta**2,
        np.zeros((n_groups, n_fixed, q)),
        np.broadcast_to(mean_inv_variance, (n_groups, q, q)),
    )
    to_coefficients = np.concatenate((np.zeros(k), -0.5 * matops.ravel_arrowhead(precision)))

    u = mean_coeffs[n_fixed:].reshape(n_groups, q)
    S = u.T @ u + cov_coeffs.blocks.sum(axis=0)
    eta_var = np.concatenate(([-n_groups / 2.0], -0.5 * matops.fold_vech(S)))
    return GaussianPenalizationResult(
        to_coefficients, IGWMessage(eta_var, Graph.FULL)
    )


def t_likelihood_update(
    y: np.ndarray,
    design,
    mean_coeffs: np.ndarray,
    cov_coeffs: matops.Arrowhead,
    mean_inv_noise: float,
    mean_df_half: float,
) -> TLikelihoodResult:
    """Joint update for the pair of factors attaching t-distributed responses.

    The responses enter through y_l | coeffs, sigma^2, b_l ~ N((C coeffs)_l,
    sigma^2 b_l) with b_l | upsilon ~ Inverse-chi^2(2 upsilon, 2 upsilon); the
    b_l are marginalized in closed form every update, so no messages are
    stored on them. ``design`` is the index-form C (``tlmm.DesignInfo``)
    and ``cov_coeffs`` the arrowhead blocks of the coefficient covariance.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    resid = y - design.predict(mean_coeffs)
    r = resid**2 + design.row_variance(cov_coeffs)

    b_shape = 2.0 * mean_df_half + 1.0
    b_rates = 2.0 * mean_df_half + mean_inv_noise * r
    mean_inv_b = inv_chisq_mean_inverse(b_shape, b_rates)
    mean_log_b = inv_chisq_mean_log(b_shape, b_rates)

    cross_y, gram = design.weighted_cross(mean_inv_b, y)
    to_coefficients = np.concatenate((mean_inv_noise * cross_y, -0.5 * mean_inv_noise * gram))
    to_noise = IGWMessage(
        np.array([-n / 2.0, -0.5 * float(np.sum(mean_inv_b * r))]), Graph.FULL
    )
    to_df_half = np.array([float(n), -float(np.sum(mean_log_b + mean_inv_b))])
    return TLikelihoodResult(to_coefficients, to_noise, to_df_half)
