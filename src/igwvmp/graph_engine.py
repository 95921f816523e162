"""A small factor graph engine for coordinate-ascent message passing.

Factors update the messages on their edges one factor at a time, in schedule
order. All state lives in the factor-to-node store; node-to-factor messages
and posterior naturals are sums over that store, so any fixed point is
independent of the schedule used to reach it.

The store is one float array with one fixed slice per (factor, node)
message, laid out in the order the messages were first stored: a first
``store`` appends the message's slice, later ones write into it.
``FactorGraph.state`` is a copy of that array and ``load_state`` copies a
finite array of the same shape back. ``FactorGraph.run`` iterates the sweep
map on that array with SQUAREM, the
SqS3 scheme of Varadhan & Roland (2008, "Simple and globally convergent
methods for accelerating the convergence of any EM algorithm", Scand. J.
Stat.). A cycle takes two plain sweeps x0 -> x1 -> x2, sets r = x1 - x0,
v = x2 - 2 x1 + x0 and the step alpha = -|r|/|v| (at most -1), loads
x0 - 2 alpha r + alpha^2 v and runs one stabilizing sweep from it. An
extrapolated vector that is non-finite, or whose stabilizing sweep raises a
``NumericalFailure``, is dropped: x2 is reloaded and alpha halved toward -1.
Once alpha is within ``_PLAIN_STEP`` of -1, where the extrapolation is x2
itself, the cycle ends with a plain sweep from x2 instead. Errors raised by
a plain sweep propagate, and so does any other error of a stabilizing sweep:
a wrong length or tag (``DimensionMismatch``, ``GraphTagMismatch``) or a
missing message is a wiring fault, not a bad step. Convergence is judged on
every completed sweep, plain or stabilizing, by the same rule.
"""

import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distributions import Graph
from .errors import (
    DimensionMismatch,
    GraphTagMismatch,
    ImproperMessage,
    InvalidHyperparameter,
    MissingMessage,
    NumericalFailure,
)

__all__ = ["Node", "Factor", "Message", "ConvergenceReport", "FactorGraph"]

logger = logging.getLogger(__name__)

# a step alpha within this distance of -1 is not extrapolated; the cycle's
# third sweep is then a plain sweep from x2
_PLAIN_STEP = 0.5


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
    the factor's edges.
    """

    name: str
    edges: tuple
    update: Callable


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
        # the message store, and each (factor, node) message's slice of it
        self._store = np.zeros(0)
        self._slices = {}
        for f in factors:
            for node in f.edges:
                if node not in self.nodes:
                    raise MissingMessage(f"factor {f.name} references unknown node {node}")
        # each node's factors in construction order, which fixes the order
        # of the message sums below
        self._incident = {
            name: tuple(f.name for f in factors if name in f.edges) for name in self.nodes
        }

    def store(self, factor: str, node: str, message: Message):
        """Record a factor-to-node message, enforcing length and tag
        (wiring errors) and finite entries (``ImproperMessage``)."""
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
            raise ImproperMessage(
                f"message ({factor} -> {node}) contains non-finite entries"
            )
        key = (factor, node)
        if key in self._slices:
            self._store[self._slices[key]] = message.eta
        else:
            start = self._store.size
            self._slices[key] = slice(start, start + spec.length)
            self._store = np.concatenate([self._store, message.eta])

    def _slice(self, factor: str, node: str) -> slice:
        try:
            return self._slices[(factor, node)]
        except KeyError:
            raise MissingMessage(f"no stored message ({factor} -> {node})") from None

    def factor_to_node(self, factor: str, node: str) -> Message:
        return Message(self._store[self._slice(factor, node)], self.nodes[node].tag)

    def node_to_factor(self, node: str, factor: str) -> Message:
        """Sum of messages into ``node`` from all its other factors."""
        spec = self.nodes[node]
        total = np.zeros(spec.length)
        for name in self._incident[node]:
            if name == factor:
                continue
            total = total + self._store[self._slice(name, node)]
        return Message(total, spec.tag)

    def q_star(self, node: str) -> Message:
        """Sum of all factor-to-node messages into ``node``; the natural
        vector of the current posterior approximation on it."""
        return self.node_to_factor(node, None)  # no factor is named None

    def state(self) -> np.ndarray:
        """A copy of the message store, one slice per message in the order
        the messages were first stored."""
        return self._store.copy()

    def load_state(self, x):
        """Overwrite the store with ``x``, laid out as ``state()``. A wrong
        shape (``DimensionMismatch``) or a non-finite entry
        (``ImproperMessage``) leaves the store as it was."""
        x = np.asarray(x, dtype=float)
        if x.shape != self._store.shape:
            raise DimensionMismatch(
                f"state has shape {x.shape}, the store holds {self._store.size} entries"
            )
        if not np.all(np.isfinite(x)):
            raise ImproperMessage("state contains non-finite entries")
        self._store[:] = x

    def run(self, tol: float = 1e-8, max_iters: int = 500, schedule=None) -> ConvergenceReport:
        """Iterate sweeps, accelerated by guarded SQUAREM cycles (see the
        module docstring), until one completed sweep changes every stored
        message entry by less than ``tol`` relative to its value before the
        sweep (|new - old| / (|old| + 1e-10)).

        Every ``sweep`` call counts: stabilizing and rejected sweeps alike
        take one of ``max_iters``, one entry of the report's ``changes``
        (inf for a rejected sweep) and one log line. ``final_change`` is the
        change of the last completed sweep, whose state the store holds.
        Returns a report; it is the caller's decision whether a
        non-converged run is an error. Needs max_iters >= 1 and a finite
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
        final = np.inf
        for change in self._squarem(schedule):
            if change is None:
                changes.append(np.inf)
            else:
                changes.append(change)
                final = change
            logger.info("%d %.5e", len(changes), changes[-1])
            if final < tol:
                return ConvergenceReport(True, len(changes), final, tol, tuple(changes))
            if len(changes) == max_iters:
                break
        return ConvergenceReport(False, len(changes), final, tol, tuple(changes))

    def _squarem(self, schedule):
        """Yield the change of each sweep of endless SqS3 cycles, None for a
        rejected one. Whenever it yields, the store holds the state the last
        completed sweep left."""
        x2 = self.state()
        while True:
            x0 = x2
            x1, change = self._sweep_from(x0, schedule)
            yield change
            x2, change = self._sweep_from(x1, schedule)
            yield change
            alpha = -1.0
            if x0.size == x2.size:
                r = x1 - x0
                v = x2 - x1 - r
                r_norm, v_norm = np.linalg.norm(r), np.linalg.norm(v)
                if v_norm > 0:
                    alpha = min(-r_norm / v_norm, -1.0)
            while alpha < -1.0 - _PLAIN_STEP:
                x = x0 - 2.0 * alpha * r + alpha**2 * v
                if np.all(np.isfinite(x)):
                    self.load_state(x)
                    try:
                        x2, change = self._sweep_from(x, schedule)
                    except NumericalFailure:
                        self.load_state(x2)
                        yield None
                    else:
                        yield change
                        break
                alpha = (alpha - 1.0) / 2.0
            else:
                x2, change = self._sweep_from(x2, schedule)
                yield change

    def _sweep_from(self, old, schedule):
        """One sweep from the state ``old`` the store holds. Returns the new
        state and the largest relative change of a stored message entry, inf
        if the sweep stored a message for the first time."""
        self.sweep(schedule)
        new = self.state()
        if new.size != old.size:
            return new, np.inf
        return new, float(np.max(np.abs(new - old) / (np.abs(old) + 1e-10), initial=0.0))

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
