import logging

import numpy as np
import pytest
from numpy.testing import assert_allclose

from igwvmp import fragments as fr
from igwvmp.distributions import CommonIGW, Graph
from igwvmp.errors import (
    DimensionMismatch,
    GraphTagMismatch,
    InvalidHyperparameter,
    MissingMessage,
)
from igwvmp.graph_engine import ConvergenceReport, Factor, FactorGraph, Message, Node


def conjugate_toy(delta0=3.0, lam0=5.0, y=None):
    """Inverse-chi^2 prior plus Gaussian likelihood with known zero mean.

    The exact posterior is inverse-chi^2(delta0 + n, lam0 + sum y^2), reached
    in a single sweep.
    """
    if y is None:
        y = np.array([0.6, -1.2, 0.4, 2.0])
    prior = CommonIGW(Graph.FULL, delta0, np.array([[lam0]]))

    def prior_update(engine):
        msg = fr.igw_prior_update(prior)
        return {"noise": Message(msg.eta, msg.graph)}

    def likelihood_update(engine):
        eta = np.array([-y.size / 2.0, -0.5 * float(np.sum(y**2))])
        return {"noise": Message(eta, Graph.FULL)}

    graph = FactorGraph(
        nodes=[Node("noise", 2, Graph.FULL)],
        factors=[
            Factor("prior", ("noise",), prior_update),
            Factor("likelihood", ("noise",), likelihood_update),
        ],
    )
    return graph, y


class TestStoreDiscipline:
    def test_wrong_length_rejected(self):
        graph, _ = conjugate_toy()
        with pytest.raises(DimensionMismatch):
            graph.store("prior", "noise", Message(np.zeros(3), Graph.FULL))

    def test_wrong_tag_rejected(self):
        graph, _ = conjugate_toy()
        with pytest.raises(GraphTagMismatch):
            graph.store("prior", "noise", Message(np.array([-2.0, -1.0]), Graph.DIAG))
        with pytest.raises(GraphTagMismatch):
            graph.store("prior", "noise", Message(np.array([-2.0, -1.0])))

    def test_nonfinite_rejected(self):
        graph, _ = conjugate_toy()
        with pytest.raises(DimensionMismatch):
            graph.store("prior", "noise", Message(np.array([np.nan, -1.0]), Graph.FULL))

    def test_unknown_node_or_read_rejected(self):
        with pytest.raises(MissingMessage):
            FactorGraph(
                nodes=[Node("a", 2, Graph.FULL)],
                factors=[Factor("f", ("b",), lambda e: {})],
            )
        with pytest.raises(MissingMessage):
            FactorGraph(
                nodes=[Node("a", 2, Graph.FULL)],
                factors=[Factor("f", ("a",), lambda e: {}, reads=(("g", "a"),))],
            )


class TestMessageAlgebra:
    def test_node_to_factor_excludes_own_message(self):
        graph, y = conjugate_toy()
        graph.sweep()
        n2f = graph.node_to_factor("noise", "likelihood")
        assert_allclose(n2f.eta, [-(3.0 + 2.0) / 2.0, -2.5])

    def test_missing_message_raises(self):
        graph, _ = conjugate_toy()
        with pytest.raises(MissingMessage):
            graph.q_star("noise")

    def test_combined_is_sum(self):
        graph, y = conjugate_toy()
        graph.sweep()
        q = graph.q_star("noise")
        assert_allclose(
            q.eta,
            [-(3.0 + 2.0) / 2.0 - y.size / 2.0, -2.5 - 0.5 * np.sum(y**2)],
        )
        assert q.graph is Graph.FULL


class TestRun:
    def test_conjugate_exact_after_one_sweep(self):
        graph, y = conjugate_toy()
        report = graph.run(tol=1e-10)
        assert report.converged
        # first sweep reaches the fixed point, second confirms it
        assert report.iterations == 2
        q = graph.q_star("noise")
        delta_post = 3.0 + y.size
        lam_post = 5.0 + np.sum(y**2)
        assert np.max(np.abs(q.eta - [-(delta_post + 2) / 2.0, -lam_post / 2.0])) < 1e-12

    def test_report_fields_and_log(self, caplog):
        graph, _ = conjugate_toy()
        with caplog.at_level(logging.INFO, logger="igwvmp.graph_engine"):
            report = graph.run(tol=1e-10, max_iters=7)
        assert isinstance(report, ConvergenceReport)
        assert report.tol == 1e-10
        assert report.final_change < 1e-10
        assert len(report.changes) == report.iterations
        lines = [r.message for r in caplog.records]
        assert lines and lines[0].startswith("1 ")
        # each line is "<iteration> <change in scientific notation>"
        head, tail = lines[-1].split(" ")
        assert int(head) == report.iterations
        float(tail)

    def test_nonconverged_report(self):
        # a factor that keeps shrinking its message never settles
        state = {"v": 1.0}

        def decay(engine):
            state["v"] *= 0.5
            return {"x": Message(np.array([-2.0, -state["v"]]), Graph.FULL)}

        graph = FactorGraph(
            nodes=[Node("x", 2, Graph.FULL)],
            factors=[Factor("f", ("x",), decay)],
        )
        report = graph.run(tol=1e-30, max_iters=5)
        assert not report.converged
        assert report.iterations == 5
        assert report.final_change > 1e-30

    def test_schedule_must_be_permutation(self):
        graph, _ = conjugate_toy()
        with pytest.raises(DimensionMismatch):
            graph.run(schedule=["prior", "prior"])
        with pytest.raises(DimensionMismatch):
            graph.run(schedule=["prior"])

    @pytest.mark.parametrize(
        "tol, max_iters", [(1e-10, 0), (1e-10, -3), (0.0, 5), (-1.0, 5), (np.nan, 5), (np.inf, 5)]
    )
    def test_run_length_is_validated_before_any_sweep(self, tol, max_iters):
        graph, _ = conjugate_toy()
        with pytest.raises(InvalidHyperparameter):
            graph.run(tol=tol, max_iters=max_iters)
        with pytest.raises(MissingMessage):
            graph.q_star("noise")

    def test_schedule_order_reaches_same_fixed_point(self):
        g1, _ = conjugate_toy()
        g1.run(tol=1e-12)
        g2, _ = conjugate_toy()
        g2.run(tol=1e-12, schedule=["likelihood", "prior"])
        assert_allclose(g1.q_star("noise").eta, g2.q_star("noise").eta, rtol=1e-12)

    def test_non_edge_output_rejected(self):
        graph = FactorGraph(
            nodes=[Node("x", 2, Graph.FULL), Node("y", 2, Graph.FULL)],
            factors=[
                Factor("f", ("x",), lambda e: {"y": Message(np.array([-2.0, -1.0]), Graph.FULL)}),
                Factor("g", ("y",), lambda e: {}),
            ],
        )
        with pytest.raises(MissingMessage):
            graph.sweep()


class TestLeafNode:
    def test_node_to_factor_with_single_factor_is_zero(self):
        graph = FactorGraph(
            nodes=[Node("x", 3, None)],
            factors=[Factor("only", ("x",), lambda e: {})],
        )
        n2f = graph.node_to_factor("x", "only")
        assert_allclose(n2f.eta, np.zeros(3))
        assert n2f.graph is None
