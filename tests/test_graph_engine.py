import logging

import numpy as np
import pytest
from numpy.testing import assert_allclose

from igwvmp import fragments as fr
from igwvmp import tlmm
from igwvmp.distributions import CommonIGW, Graph
from igwvmp.errors import (
    DimensionMismatch,
    GraphTagMismatch,
    ImproperMessage,
    InvalidHyperparameter,
    MissingMessage,
    NumericalFailure,
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


def sqrt_toy():
    """x <- sqrt(2 x) on one scalar message, from below its fixed point 2.

    A stored value above 2 counts as improper, so a SQUAREM step past the
    fixed point is rejected by its stabilizing sweep.
    """

    def update(engine):
        x = engine.factor_to_node("f", "x").eta[0]
        if x > 2.0:
            raise ImproperMessage(f"x = {x} > 2")
        return {"x": Message(np.array([np.sqrt(2.0 * x)]))}

    graph = FactorGraph(nodes=[Node("x", 1)], factors=[Factor("f", ("x",), update)])
    graph.store("f", "x", Message(np.array([0.5])))
    return graph


def decay_toy(fail_on=None, error=ImproperMessage):
    """A factor that keeps halving its message, so no run converges. With
    ``fail_on``, its call of that number raises ``error``."""
    calls = []

    def decay(engine):
        calls.append(None)
        if len(calls) == fail_on:
            raise error("failing on purpose")
        return {"x": Message(np.array([-2.0, -(0.5 ** len(calls))]), Graph.FULL)}

    graph = FactorGraph(
        nodes=[Node("x", 2, Graph.FULL)],
        factors=[Factor("f", ("x",), decay)],
    )
    graph.store("f", "x", Message(np.array([-2.0, -1.0]), Graph.FULL))
    return graph


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
        with pytest.raises(ImproperMessage):
            graph.store("prior", "noise", Message(np.array([np.nan, -1.0]), Graph.FULL))

    def test_unknown_node_rejected(self):
        with pytest.raises(MissingMessage):
            FactorGraph(
                nodes=[Node("a", 2, Graph.FULL)],
                factors=[Factor("f", ("b",), lambda e: {})],
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


class TestState:
    def test_state_follows_store_order_and_round_trips(self):
        graph, _ = conjugate_toy()
        assert graph.state().shape == (0,)
        graph.store("likelihood", "noise", Message(np.array([-2.0, -1.0]), Graph.FULL))
        graph.store("prior", "noise", Message(np.array([-3.0, -4.0]), Graph.FULL))
        assert_allclose(graph.state(), [-2.0, -1.0, -3.0, -4.0], rtol=0)
        graph.load_state([-5.0, -6.0, -7.0, -8.0])
        assert_allclose(graph.factor_to_node("prior", "noise").eta, [-7.0, -8.0], rtol=0)
        assert graph.factor_to_node("prior", "noise").graph is Graph.FULL
        assert_allclose(graph.state(), [-5.0, -6.0, -7.0, -8.0], rtol=0)

    def test_load_state_keeps_store_checks(self):
        graph, _ = conjugate_toy()
        graph.sweep()
        before = graph.state()
        with pytest.raises(DimensionMismatch):
            graph.load_state(np.zeros(3))
        with pytest.raises(ImproperMessage):
            graph.load_state([-2.0, np.inf, -2.0, -1.0])
        assert np.array_equal(graph.factor_to_node("likelihood", "noise").eta, before[2:])

    def test_rejected_load_state_leaves_the_store_as_it_was(self):
        # the only non-finite entry is in the last message's slice
        graph, _ = conjugate_toy()
        graph.sweep()
        before = graph.state()
        with pytest.raises(ImproperMessage):
            graph.load_state([-7.0, -8.0, -9.0, np.inf])
        assert np.array_equal(graph.state(), before)

    def test_change_rule_equals_per_message_rule(self):
        # the flat rule is bitwise the per-(factor, node) maximum of
        # |new - old| / (|old| + 1e-10)
        data, _ = tlmm.simulate(seed=11, n_groups=6, group_size=8)
        plain = tlmm.build_graph(data, tlmm.TLMMHyper.diffuse(2))
        ran = tlmm.build_graph(data, tlmm.TLMMHyper.diffuse(2))
        edges = [(f.name, node) for f in plain.factors.values() for node in f.edges]
        for _ in range(3):
            old = {edge: plain.factor_to_node(*edge).eta for edge in edges}
            plain.sweep()
            new = {edge: plain.factor_to_node(*edge).eta for edge in edges}
            expected = max(
                float(np.max(np.abs(new[e] - old[e]) / (np.abs(old[e]) + 1e-10))) for e in edges
            )
            report = ran.run(tol=1e-10, max_iters=1)
            assert report.changes == (expected,)


class TestSquarem:
    def test_improper_extrapolation_falls_back_to_the_plain_fixed_point(self):
        reference = sqrt_toy()
        for _ in range(200):
            reference.sweep()
        graph = sqrt_toy()
        report = graph.run(tol=1e-13, max_iters=200)
        assert report.converged
        # some extrapolated states were improper, and every one was dropped
        assert np.inf in report.changes
        assert np.isfinite(report.final_change)
        assert abs(graph.state()[0] - reference.state()[0]) < 1e-12

    def test_extrapolation_cuts_sweeps_of_a_linear_contraction(self):
        # x <- x / 2 + 1: one extrapolated step lands on the fixed point 2
        def update(engine):
            x = engine.factor_to_node("f", "x").eta
            return {"x": Message(x / 2.0 + 1.0)}

        graph = FactorGraph(nodes=[Node("x", 1)], factors=[Factor("f", ("x",), update)])
        graph.store("f", "x", Message(np.array([0.0])))
        report = graph.run(tol=1e-10, max_iters=100)
        assert report.converged
        assert report.iterations <= 4
        assert abs(graph.state()[0] - 2.0) < 1e-12

    @pytest.mark.parametrize("max_iters", [1, 2, 3, 4, 5, 7, 8])
    def test_budget_counts_every_sweep(self, max_iters, monkeypatch, caplog):
        graph = decay_toy()
        sweeps = []
        sweep = graph.sweep
        monkeypatch.setattr(graph, "sweep", lambda schedule=None: (sweeps.append(1), sweep(schedule)))
        with caplog.at_level(logging.INFO, logger="igwvmp.graph_engine"):
            report = graph.run(tol=1e-30, max_iters=max_iters)
        assert not report.converged
        assert report.iterations == max_iters == len(report.changes) == len(sweeps)
        lines = [r.message for r in caplog.records]
        assert [int(line.split(" ")[0]) for line in lines] == list(range(1, max_iters + 1))

    def test_budget_ending_on_a_rejected_sweep_leaves_the_last_completed_state(self):
        changes = sqrt_toy().run(tol=1e-13, max_iters=200).changes
        first_rejected = changes.index(np.inf)
        graph = sqrt_toy()
        report = graph.run(tol=1e-13, max_iters=first_rejected + 1)
        assert not report.converged
        assert report.changes == changes[: first_rejected + 1]
        assert report.final_change == changes[first_rejected - 1]
        # the store holds the state the last completed sweep left
        before = sqrt_toy()
        before.run(tol=1e-13, max_iters=first_rejected)
        assert np.array_equal(graph.state(), before.state())

    @pytest.mark.parametrize("fail_on", [1, 2, 4, 5])
    def test_plain_sweep_error_propagates(self, fail_on):
        # calls 1, 2, 4 and 5 are the plain sweeps x0 -> x1 -> x2 of the
        # first two cycles; call 3 is the first stabilizing sweep
        with pytest.raises(ImproperMessage):
            decay_toy(fail_on).run(tol=1e-30, max_iters=10)

    def test_stabilizing_sweep_error_rejects_the_step(self):
        # the guard rejects any NumericalFailure, the base class included
        for error in (ImproperMessage, NumericalFailure):
            report = decay_toy(fail_on=3, error=error).run(tol=1e-30, max_iters=6)
            assert report.changes[2] == np.inf
            assert np.all(np.isfinite(report.changes[:2] + report.changes[3:]))

    def test_non_numerical_error_in_stabilizing_sweep_propagates(self):
        with pytest.raises(MissingMessage):
            decay_toy(fail_on=3, error=MissingMessage).run(tol=1e-30, max_iters=6)


class TestLeafNode:
    def test_node_to_factor_with_single_factor_is_zero(self):
        graph = FactorGraph(
            nodes=[Node("x", 3, None)],
            factors=[Factor("only", ("x",), lambda e: {})],
        )
        n2f = graph.node_to_factor("x", "only")
        assert_allclose(n2f.eta, np.zeros(3))
        assert n2f.graph is None
