"""The node-program API.

A protocol is a :class:`NodeProgram`: per-node state plus an ``on_round``
callback the engine invokes every synchronous round with the node's inbox.
The :class:`Context` passed alongside exposes exactly what the LOCAL /
CONGEST models grant a node — its ID, its neighbour list, private
randomness, the round number, and a ``send`` primitive — and nothing else
(no global state, no topology beyond the neighbourhood).

Programs signal completion per-node via :meth:`Context.halt`; the engine
stops when everyone has halted.  The one extra observable is
``quiet_rounds``: how many consecutive *globally silent* rounds preceded
this one.  Protocols built from flooding phases use it to advance phases
without knowing the diameter — the same "wait until the wave settles"
device the paper's token-packaging protocol relies on (its round count is
``O(D + τ)`` with ``D`` unknown to the nodes).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ParameterError, SimulationError
from repro.simulator.message import Message

# Builds a Message from its field tuple without the keyword-argument
# ``Message.__new__``; the caller has already checked ``bits >= 0``.
_new_message = tuple.__new__


class Context:
    """Per-node view of the network, handed to ``on_round``.

    Protocol code must treat this as its *only* window into the world.
    Inbox lists passed to ``on_round`` are engine-owned scratch buffers,
    valid only for the duration of that call — programs must copy any
    messages they want to keep.

    A standalone context owns its outbox.  The engine points every
    context of a run at one shared outbox instead: nodes run in order, so
    the round's messages collect there already grouped by sender, in the
    order the per-node drain would produce.
    """

    __slots__ = (
        "node_id",
        "neighbors",
        "round",
        "quiet_rounds",
        "_neighbor_set",
        "_outbox",
        "_halted",
        "_output",
        "_wake_at",
        "_rng",
        "_rng_factory",
    )

    def __init__(
        self,
        node_id: int,
        neighbors: Tuple[int, ...],
        rng: Optional[np.random.Generator] = None,
        rng_factory: Optional[Callable[[], np.random.Generator]] = None,
    ) -> None:
        self.node_id = node_id
        self.neighbors = neighbors
        self.round = 0
        self.quiet_rounds = 0
        self._neighbor_set = frozenset(neighbors)
        self._outbox: List[Message] = []
        self._halted = False
        self._output: Any = None
        self._wake_at: Optional[int] = None
        self._rng = rng
        self._rng_factory = rng_factory

    @property
    def rng(self) -> np.random.Generator:
        """This node's private-coin generator.

        Constructed on first access when the context was given a factory
        (the engine's lazy-spawn path): generator construction is costly
        and most protocol nodes never draw randomness.  The stream is
        identical either way.
        """
        gen = self._rng
        if gen is None:
            if self._rng_factory is None:
                raise SimulationError(
                    f"node {self.node_id} has no randomness source"
                )
            gen = self._rng_factory()
            self._rng = gen
        return gen

    def send(self, to: int, payload: Any, bits: int, tag: str = "") -> None:
        """Queue a message to neighbour *to* for delivery next round."""
        if self._halted:
            raise SimulationError(f"node {self.node_id} sent after halting")
        if to not in self._neighbor_set:
            raise SimulationError(
                f"node {self.node_id} tried to message non-neighbour {to}"
            )
        if bits < 0:
            raise ParameterError(f"message bits must be >= 0, got {bits}")
        self._outbox.append(
            _new_message(Message, (self.node_id, to, payload, bits, tag))
        )

    def request_wakeup(self, round_number: int) -> None:
        """Ask the engine to invoke ``on_round`` at *round_number* even if
        this node's inbox is empty then.

        The engine always invokes ``on_round`` when the inbox is non-empty
        or after a globally quiet round; wakeups cover the remaining case —
        timer-driven behaviour such as the token-forwarding phase, which
        must act every round for exactly ``τ`` rounds.

        Wakeups are *consumed by running*: whenever the node runs — at the
        requested round, woken early by mail, or swept in after a quiet
        round — its pending wake is cleared, and ``on_round`` must call
        :meth:`request_wakeup` again to keep a future timer armed
        (clear-and-rearm).  Requests for the current or a past round are
        ignored by the engine.
        """
        if self._wake_at is None or round_number < self._wake_at:
            self._wake_at = round_number

    def broadcast(self, payload: Any, bits: int, tag: str = "") -> None:
        """Send the same message to every neighbour (one per edge).

        Checked once per call rather than once per neighbour; a node with
        no neighbours sends nothing and so raises nothing.
        """
        neighbors = self.neighbors
        if not neighbors:
            return
        if self._halted:
            raise SimulationError(f"node {self.node_id} sent after halting")
        if bits < 0:
            raise ParameterError(f"message bits must be >= 0, got {bits}")
        src = self.node_id
        # A plain loop: cheaper than a list comprehension plus extend for
        # the handful of neighbours a node typically has.
        outbox = self._outbox
        for u in neighbors:
            outbox.append(_new_message(Message, (src, u, payload, bits, tag)))

    def halt(self, output: Any = None) -> None:
        """Mark this node finished; ``output`` becomes its final output."""
        self._halted = True
        if output is not None:
            self._output = output

    def set_output(self, output: Any) -> None:
        """Record the node's output without halting."""
        self._output = output

    @property
    def halted(self) -> bool:
        """Whether this node has finished."""
        return self._halted

    @property
    def output(self) -> Any:
        """The node's current output value."""
        return self._output

    def _drain_outbox(self) -> List[Message]:
        out, self._outbox = self._outbox, []
        return out


class NodeProgram(ABC):
    """Behaviour of one node.  The engine instantiates one per node.

    Subclasses hold per-node state as instance attributes; the engine
    creates instances via the factory passed to it, so two nodes never
    share state.
    """

    def on_start(self, ctx: Context) -> None:
        """Round-0 hook, before any messages exist.  Default: no-op."""

    @abstractmethod
    def on_round(self, ctx: Context, inbox: List[Message]) -> None:
        """Handle this round's inbox; send messages / update state / halt."""
