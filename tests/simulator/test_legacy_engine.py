"""The CONGEST tester against an independent reference engine loop.

``LegacySynchronousEngine`` is the engine loop from before the fast
path: per-node generators spawned eagerly, per-round ``dict`` inboxes,
``sorted(...)`` active-set rebuilds every round, and per-node outbox
drains.  It shares no delivery code with
:class:`~repro.simulator.SynchronousEngine`, so the test below catches a
fast-path change that moves cold and warm runs the same way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import repro.congest.tester as tester_module
from repro.congest import CongestUniformityTester
from repro.distributions import far_family, uniform
from repro.exceptions import BandwidthExceededError, SimulationError
from repro.rng import SeedLike, ensure_rng, spawn
from repro.simulator import Topology
from repro.simulator.engine import EngineReport
from repro.simulator.message import Message
from repro.simulator.node import Context


class LegacySynchronousEngine:
    """The pre-fast-path ``SynchronousEngine.run``, without fault injection
    or trace recording; the constructor takes the current engine's
    arguments so it can stand in for it."""

    def __init__(
        self,
        topology: Topology,
        bandwidth_bits: Optional[int] = None,
        max_rounds: int = 1_000_000,
        deadlock_quiet_rounds: int = 3,
        faults=None,
        phase_names=None,
    ) -> None:
        if faults is not None and not faults.is_null:
            raise ValueError("the legacy engine predates fault injection")
        self.topology = topology
        self.bandwidth_bits = bandwidth_bits
        self.max_rounds = max_rounds
        self.deadlock_quiet_rounds = deadlock_quiet_rounds

    def run(self, program_factory, rng: SeedLike = None) -> EngineReport:
        topo = self.topology
        node_rngs = spawn(ensure_rng(rng), topo.k)
        programs = [program_factory(v) for v in range(topo.k)]
        contexts = [
            Context(node_id=v, neighbors=topo.neighbors(v), rng=node_rngs[v])
            for v in range(topo.k)
        ]
        live = set(range(topo.k))
        pending_wakes: Dict[int, List[int]] = {}

        def note_halt_and_wake(v: int) -> None:
            ctx = contexts[v]
            if ctx.halted:
                live.discard(v)
            elif ctx._wake_at is not None:
                pending_wakes.setdefault(ctx._wake_at, []).append(v)

        for v, prog in enumerate(programs):
            prog.on_start(contexts[v])
            note_halt_and_wake(v)
        in_flight = self._collect(contexts)

        rounds = messages = total_bits = max_edge_bits = quiet_streak = 0
        while rounds < self.max_rounds:
            if not live and not in_flight:
                break
            rounds += 1
            inboxes: Dict[int, List[Message]] = {}
            for msg in in_flight:
                inboxes.setdefault(msg.dst, []).append(msg)
                messages += 1
                total_bits += msg.bits
                max_edge_bits = max(max_edge_bits, msg.bits)
            if in_flight:
                quiet_streak = 0
            else:
                quiet_streak += 1
                if quiet_streak >= self.deadlock_quiet_rounds:
                    raise SimulationError(
                        f"deadlock: {quiet_streak} silent rounds at round {rounds}"
                    )
            due = pending_wakes.pop(rounds, [])
            if quiet_streak > 0:
                active = sorted(live)
            else:
                active = sorted(set(inboxes).union(due).intersection(live))
            for v in active:
                ctx = contexts[v]
                if ctx._wake_at is not None and ctx._wake_at <= rounds:
                    ctx._wake_at = None
                ctx.round = rounds
                ctx.quiet_rounds = quiet_streak
                programs[v].on_round(ctx, inboxes.get(v, []))
                note_halt_and_wake(v)
            in_flight = self._collect([contexts[v] for v in active])

        return EngineReport(
            rounds=rounds,
            messages=messages,
            total_bits=total_bits,
            max_edge_bits_per_round=max_edge_bits,
            outputs=[ctx.output for ctx in contexts],
            halted=all(ctx.halted for ctx in contexts),
        )

    def _collect(self, contexts: Sequence[Context]) -> List[Message]:
        out: List[Message] = []
        for ctx in contexts:
            seen_edges = set()
            for msg in ctx._drain_outbox():
                if self.bandwidth_bits is not None:
                    if msg.bits > self.bandwidth_bits:
                        raise BandwidthExceededError(
                            f"node {msg.src} sent {msg.bits} bits to {msg.dst} "
                            f"(budget {self.bandwidth_bits})"
                        )
                    if msg.dst in seen_edges:
                        raise BandwidthExceededError(
                            f"node {msg.src} sent two messages to {msg.dst} "
                            f"in one round"
                        )
                    seen_edges.add(msg.dst)
                out.append(msg)
        return out


def test_verdicts_match_cold_and_warm_engine(monkeypatch):
    tester = CongestUniformityTester.solve(500, 1500, 0.9, samples_per_node=4)
    topo = Topology.star(1500)
    inputs = [
        (dist, seed)
        for dist in (uniform(500), far_family("paninski", 500, 0.9, rng=0))
        for seed in (2, 3, 4)
    ]
    cold = [tester.run(topo, d, rng=s, warm_start=False) for d, s in inputs]
    warm = [tester.run(topo, d, rng=s, warm_start=True) for d, s in inputs]
    monkeypatch.setattr(tester_module, "SynchronousEngine", LegacySynchronousEngine)
    legacy = [tester.run(topo, d, rng=s, warm_start=False) for d, s in inputs]

    verdicts = [v for v, _ in legacy]
    assert set(verdicts) == {True, False}
    assert verdicts == [v for v, _ in cold] == [v for v, _ in warm]
    assert [r.rounds for _, r in legacy] == [r.rounds for _, r in cold]
    assert [r.messages for _, r in legacy] == [r.messages for _, r in cold]
