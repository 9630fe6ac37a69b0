"""Reusable distributed primitives: flooding, convergecast, broadcast.

These are the O(D)-round building blocks Section 5 composes: the network
first agrees on a leader (maximum ID) and a BFS tree rooted there by
**max-ID flooding**, then moves data up (**convergecast**) and decisions
down (**broadcast**) the tree.  Each primitive is a standalone
:class:`~repro.simulator.node.NodeProgram` with its own tests; the CONGEST
uniformity tester embeds the same logic in its phase machine.

All messages fit in ``O(log k)`` bits, certified by the engine's CONGEST
enforcement in the tests.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.simulator.message import Message, bits_for_int
from repro.simulator.node import Context, NodeProgram


class FloodMaxProgram(NodeProgram):
    """Leader election + BFS tree by max-ID flooding.

    Every node repeatedly shares the best (largest) root ID it knows and
    its distance from it; updates adopt the sender as parent.  The wave
    stabilises after ``D + 1`` rounds; nodes detect stability via a
    globally quiet round and halt with output
    ``(leader_id, distance, parent)`` (parent is ``None`` at the leader).

    Message size: ``2⌈log₂ k⌉`` bits (an ID and a distance).
    """

    def __init__(self, node_id: int, k: int) -> None:
        self.node_id = node_id
        self.k = k
        self._bits = 2 * bits_for_int(k)
        self.best = node_id
        self.dist = 0
        self.parent: Optional[int] = None

    def _announce(self, ctx: Context) -> None:
        ctx.broadcast((self.best, self.dist), bits=self._bits, tag="flood")

    def on_start(self, ctx: Context) -> None:
        self._announce(ctx)

    def on_round(self, ctx: Context, inbox: List[Message]) -> None:
        changed = False
        for msg in inbox:
            cand_best, cand_dist = msg.payload
            if cand_best > self.best or (
                cand_best == self.best and cand_dist + 1 < self.dist
            ):
                self.best = cand_best
                self.dist = cand_dist + 1
                self.parent = msg.src
                changed = True
        if changed:
            self._announce(ctx)
        elif ctx.quiet_rounds >= 1:
            ctx.halt((self.best, self.dist, self.parent))


class ConvergecastSumProgram(NodeProgram):
    """Sum per-node values up a known tree; the root outputs the total.

    Construction requires the tree structure (parent and children per
    node), typically obtained from a prior :class:`FloodMaxProgram` run or
    :meth:`Topology.bfs_tree`.  Leaves send immediately; internal nodes
    forward once all children reported.  Completes in ``height(T)`` rounds.

    Every node outputs its subtree sum; the root's output is the total.
    """

    def __init__(
        self,
        node_id: int,
        value: int,
        parent: Optional[int],
        children: Sequence[int],
        max_total: int,
    ) -> None:
        self.node_id = node_id
        self.value = int(value)
        self.parent = parent
        self.waiting = set(children)
        self.acc = int(value)
        self.max_total = max_total
        self._bits = bits_for_int(max_total)

    def _finish(self, ctx: Context) -> None:
        if self.parent is not None:
            ctx.send(
                self.parent,
                self.acc,
                bits=self._bits,
                tag="converge",
            )
        ctx.halt(self.acc)

    def on_start(self, ctx: Context) -> None:
        # on_start cannot halt usefully before round 1; defer to on_round.
        pass

    def on_round(self, ctx: Context, inbox: List[Message]) -> None:
        for msg in inbox:
            if msg.src in self.waiting:
                self.waiting.discard(msg.src)
                self.acc += int(msg.payload)
        if not self.waiting:
            self._finish(ctx)


class BroadcastProgram(NodeProgram):
    """Flood a value from a root to every node (not tree-restricted).

    Each node forwards the value once, the first round it hears it;
    completes in ``ecc(root)`` rounds.  All nodes output the value.
    """

    def __init__(self, node_id: int, root: int, value: Any, value_bits: int) -> None:
        self.node_id = node_id
        self.root = root
        self.value = value if node_id == root else None
        self.value_bits = value_bits
        self.sent = False

    def on_start(self, ctx: Context) -> None:
        if self.node_id == self.root:
            ctx.broadcast(self.value, bits=self.value_bits, tag="bcast")
            self.sent = True
            ctx.halt(self.value)

    def on_round(self, ctx: Context, inbox: List[Message]) -> None:
        if self.value is None:
            for msg in inbox:
                self.value = msg.payload
                break
        if self.value is not None and not self.sent:
            ctx.broadcast(self.value, bits=self.value_bits, tag="bcast")
            self.sent = True
            ctx.halt(self.value)


def children_from_parents(
    parents: Sequence[Optional[int]],
) -> List[List[int]]:
    """Invert parent pointers into per-node children lists."""
    children: List[List[int]] = [[] for _ in parents]
    for v, parent in enumerate(parents):
        if parent is not None:
            children[parent].append(v)
    return children
