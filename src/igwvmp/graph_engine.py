"""A small factor graph engine for coordinate-ascent message passing.

Factors update the messages on their edges one factor at a time, in schedule
order. All state lives in the factor-to-node store; node-to-factor messages
and posterior naturals are sums over that store, so any fixed point is
independent of the schedule used to reach it.
"""

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .distributions import Graph
from .errors import DimensionMismatch, GraphTagMismatch, InvalidHyperparameter, MissingMessage

__all__ = ["Node", "Factor", "Message", "ConvergenceReport", "FactorGraph"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Message:
    """A natural parameter vector, tagged with a graph for variance nodes."""

    eta: np.ndarray
    graph: Optional[Graph] = None

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float).copy()
        eta.flags.writeable = False
        object.__setattr__(self, "eta", eta)


@dataclass(frozen=True)
class Node:
    """A random node: its name, natural vector length, and graph tag (None
    for nodes that are not variance matrices)."""

    name: str
    length: int
    tag: Optional[Graph] = None


@dataclass(frozen=True)
class Factor:
    """A factor with an update rule.

    ``update`` is called with the engine and returns {node_name: Message} for
    the factor's edges. ``reads`` declares messages of other factors the
    update consumes beyond its own edges, for documentation and validation.
    """

    name: str
    edges: tuple
    update: Callable
    reads: tuple = field(default=())


@dataclass(frozen=True)
class ConvergenceReport:
    converged: bool
    iterations: int
    final_change: float
    tol: float
    changes: tuple


class FactorGraph:
    """Bipartite factor/node graph holding the factor-to-node message store."""

    def __init__(self, nodes, factors):
        self.nodes = {n.name: n for n in nodes}
        if len(self.nodes) != len(nodes):
            raise DimensionMismatch("duplicate node names")
        self.factors = {f.name: f for f in factors}
        if len(self.factors) != len(factors):
            raise DimensionMismatch("duplicate factor names")
        self.schedule = tuple(f.name for f in factors)
        self._store = {}
        for f in factors:
            for node in f.edges:
                if node not in self.nodes:
                    raise MissingMessage(f"factor {f.name} references unknown node {node}")
            for fac, node in f.reads:
                if fac not in self.factors or node not in self.nodes:
                    raise MissingMessage(
                        f"factor {f.name} reads unknown message ({fac}, {node})"
                    )

    def incident_factors(self, node: str):
        return [f for f in self.factors.values() if node in f.edges]

    def store(self, factor: str, node: str, message: Message):
        """Record a factor-to-node message, enforcing length and tag."""
        spec = self.nodes[node]
        if message.eta.size != spec.length:
            raise DimensionMismatch(
                f"message ({factor} -> {node}) has length {message.eta.size}, "
                f"node expects {spec.length}"
            )
        if message.graph is not spec.tag:
            raise GraphTagMismatch(
                f"message ({factor} -> {node}) tagged {message.graph}, "
                f"node is tagged {spec.tag}"
            )
        if not np.all(np.isfinite(message.eta)):
            raise DimensionMismatch(
                f"message ({factor} -> {node}) contains non-finite entries"
            )
        self._store[(factor, node)] = message

    def factor_to_node(self, factor: str, node: str) -> Message:
        try:
            return self._store[(factor, node)]
        except KeyError:
            raise MissingMessage(f"no stored message ({factor} -> {node})") from None

    def node_to_factor(self, node: str, factor: str) -> Message:
        """Sum of messages into ``node`` from all its other factors."""
        spec = self.nodes[node]
        total = np.zeros(spec.length)
        for f in self.incident_factors(node):
            if f.name == factor:
                continue
            total = total + self.factor_to_node(f.name, node).eta
        return Message(total, spec.tag)

    def q_star(self, node: str) -> Message:
        """Sum of all factor-to-node messages into ``node``; the natural
        vector of the current posterior approximation on it."""
        spec = self.nodes[node]
        total = np.zeros(spec.length)
        for f in self.incident_factors(node):
            total = total + self.factor_to_node(f.name, node).eta
        return Message(total, spec.tag)

    def _snapshot(self):
        return {k: v.eta for k, v in self._store.items()}

    def run(self, tol: float = 1e-8, max_iters: int = 500, schedule=None) -> ConvergenceReport:
        """Sweep the factors until the largest relative message change falls
        below ``tol``. Returns a report; it is the caller's decision whether
        a non-converged run is an error. Needs max_iters >= 1 and a finite
        tol > 0.
        """
        if not (max_iters >= 1 and np.isfinite(tol) and tol > 0):
            raise InvalidHyperparameter(
                f"need max_iters >= 1 and a finite tol > 0, got max_iters={max_iters}, tol={tol}"
            )
        if schedule is None:
            schedule = self.schedule
        if sorted(schedule) != sorted(self.schedule):
            raise DimensionMismatch("schedule must be a permutation of the factors")
        changes = []
        change = np.inf
        iteration = 0
        for iteration in range(1, max_iters + 1):
            previous = self._snapshot()
            self.sweep(schedule)
            change = 0.0
            for key, new in self._snapshot().items():
                old = previous.get(key)
                if old is None or old.size != new.size:
                    change = np.inf
                    continue
                delta = np.max(np.abs(new - old) / (np.abs(old) + 1e-10))
                change = max(change, float(delta))
            changes.append(change)
            logger.info("%d %.5e", iteration, change)
            if change < tol:
                return ConvergenceReport(True, iteration, change, tol, tuple(changes))
        return ConvergenceReport(False, iteration, change, tol, tuple(changes))

    def sweep(self, schedule=None):
        """One pass of factor updates in schedule order."""
        if schedule is None:
            schedule = self.schedule
        for name in schedule:
            factor = self.factors[name]
            out = factor.update(self)
            for node, message in out.items():
                if node not in factor.edges:
                    raise MissingMessage(
                        f"factor {name} produced a message for non-edge node {node}"
                    )
                self.store(name, node, message)
