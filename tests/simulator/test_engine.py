"""Tests for the synchronous engine: delivery, CONGEST limits, scheduling."""

from __future__ import annotations

from typing import List

import pytest

from repro.exceptions import BandwidthExceededError, ParameterError, SimulationError
from repro.simulator import Message, SynchronousEngine, Topology
from repro.simulator.node import Context, NodeProgram


class EchoOnce(NodeProgram):
    """Sends one message to each neighbour, halts after hearing anything."""

    def __init__(self, node_id: int, bits: int = 8) -> None:
        self.node_id = node_id
        self.bits = bits

    def on_start(self, ctx: Context) -> None:
        ctx.broadcast(self.node_id, bits=self.bits, tag="echo")

    def on_round(self, ctx: Context, inbox: List[Message]) -> None:
        if inbox:
            ctx.halt([m.payload for m in inbox])


class Oversized(NodeProgram):
    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    def on_start(self, ctx: Context) -> None:
        ctx.broadcast("big", bits=1000, tag="big")

    def on_round(self, ctx: Context, inbox: List[Message]) -> None:
        ctx.halt()


class DoubleSend(NodeProgram):
    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    def on_start(self, ctx: Context) -> None:
        if ctx.neighbors:
            ctx.send(ctx.neighbors[0], 1, bits=1)
            ctx.send(ctx.neighbors[0], 2, bits=1)

    def on_round(self, ctx: Context, inbox: List[Message]) -> None:
        ctx.halt()


class Silent(NodeProgram):
    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    def on_round(self, ctx: Context, inbox: List[Message]) -> None:
        pass  # never halts, never sends -> deadlock


class TimerNode(NodeProgram):
    """Halts at a self-scheduled wakeup without any messages."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    def on_start(self, ctx: Context) -> None:
        ctx.request_wakeup(2)

    def on_round(self, ctx: Context, inbox: List[Message]) -> None:
        if ctx.round >= 2:
            ctx.halt(ctx.round)
        else:
            ctx.request_wakeup(2)


class TestDelivery:
    def test_messages_arrive_next_round(self):
        topo = Topology.line(3)
        report = SynchronousEngine(topo).run(lambda v: EchoOnce(v), rng=0)
        assert report.halted
        assert report.outputs[0] == [1]
        assert sorted(report.outputs[1]) == [0, 2]

    def test_message_and_bit_accounting(self):
        topo = Topology.line(3)
        report = SynchronousEngine(topo).run(lambda v: EchoOnce(v, bits=5), rng=0)
        assert report.messages == 4  # 2 edges x 2 directions
        assert report.total_bits == 20
        assert report.max_edge_bits_per_round == 5


class TestCongestEnforcement:
    def test_oversized_message_rejected(self):
        topo = Topology.line(2)
        engine = SynchronousEngine(topo, bandwidth_bits=16)
        with pytest.raises(BandwidthExceededError):
            engine.run(lambda v: Oversized(v), rng=0)

    def test_oversized_allowed_in_local(self):
        topo = Topology.line(2)
        report = SynchronousEngine(topo, bandwidth_bits=None).run(
            lambda v: Oversized(v), rng=0
        )
        assert report.halted

    def test_double_send_per_edge_rejected(self):
        topo = Topology.line(2)
        engine = SynchronousEngine(topo, bandwidth_bits=16)
        with pytest.raises(BandwidthExceededError):
            engine.run(lambda v: DoubleSend(v), rng=0)

    def test_double_send_allowed_in_local(self):
        topo = Topology.line(2)
        report = SynchronousEngine(topo, bandwidth_bits=None).run(
            lambda v: DoubleSend(v), rng=0
        )
        assert report.halted


class TestScheduling:
    def test_deadlock_detected(self):
        topo = Topology.line(2)
        with pytest.raises(SimulationError, match="deadlock"):
            SynchronousEngine(topo).run(lambda v: Silent(v), rng=0)

    def test_wakeups_fire_without_messages(self):
        topo = Topology.line(2)
        report = SynchronousEngine(topo).run(lambda v: TimerNode(v), rng=0)
        assert report.halted
        assert report.outputs == [2, 2]

    def test_max_rounds_cutoff(self):
        topo = Topology.line(2)
        engine = SynchronousEngine(topo, max_rounds=1)

        class Chatter(NodeProgram):
            def __init__(self, node_id):
                self.node_id = node_id

            def on_start(self, ctx):
                ctx.broadcast(0, bits=1)

            def on_round(self, ctx, inbox):
                ctx.broadcast(0, bits=1)

        report = engine.run(lambda v: Chatter(v), rng=0)
        assert not report.halted
        assert report.rounds == 1


class LongSleeper(NodeProgram):
    """Sleeps straight through more quiet rounds than the deadlock limit."""

    def __init__(self, node_id: int, wake_at: int) -> None:
        self.node_id = node_id
        self.wake_at = wake_at

    def on_start(self, ctx: Context) -> None:
        ctx.request_wakeup(self.wake_at)

    def on_round(self, ctx: Context, inbox: List[Message]) -> None:
        if ctx.round >= self.wake_at:
            ctx.halt(ctx.round)
        else:
            ctx.request_wakeup(self.wake_at)


class EveryRoundSleeper(NodeProgram):
    """Re-arms a one-round timer each round; every round is quiet."""

    def __init__(self, node_id: int, until: int) -> None:
        self.node_id = node_id
        self.until = until

    def on_start(self, ctx: Context) -> None:
        ctx.request_wakeup(1)

    def on_round(self, ctx: Context, inbox: List[Message]) -> None:
        if ctx.round >= self.until:
            ctx.halt(ctx.round)
        else:
            ctx.request_wakeup(ctx.round + 1)


class RearmOnMail(NodeProgram):
    """Node 0 arms a far timer; early mail moves it earlier (clear-and-rearm)."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.target = 10
        self.runs: List[int] = []

    def on_start(self, ctx: Context) -> None:
        if self.node_id == 0:
            ctx.request_wakeup(self.target)
        else:
            ctx.send(ctx.neighbors[0], "poke", bits=1)

    def on_round(self, ctx: Context, inbox: List[Message]) -> None:
        self.runs.append(ctx.round)
        if self.node_id != 0:
            ctx.halt()
            return
        if inbox:
            self.target = 4
        if ctx.round >= self.target:
            ctx.halt(ctx.round)
        else:
            ctx.request_wakeup(self.target)


class PingPongTimer(NodeProgram):
    """Node 0 re-arms the *same* wake round on every mail delivery."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.runs: List[int] = []

    def on_start(self, ctx: Context) -> None:
        if self.node_id == 1:
            ctx.send(ctx.neighbors[0], "ping", bits=1)

    def on_round(self, ctx: Context, inbox: List[Message]) -> None:
        self.runs.append(ctx.round)
        if self.node_id == 1:
            if ctx.round < 3:
                ctx.send(ctx.neighbors[0], "ping", bits=1)
            else:
                ctx.halt()
            return
        for m in inbox:
            ctx.send(m.src, "pong", bits=1)
        if ctx.round >= 8:
            ctx.halt(tuple(self.runs))
        else:
            ctx.request_wakeup(8)


class TestWakeDeadlockAccounting:
    """Regression tests for the sleep/deadlock accounting fixes.

    The pre-fix engine (a) ignored scheduled wakeups in the deadlock
    check, so any sleep longer than ``deadlock_quiet_rounds`` raised a
    spurious deadlock, and (b) kept a node's stale ``_wake_at`` after an
    early mail wake and re-appended it to the pending list, accumulating
    duplicates.  Each test here fails on that engine.
    """

    def test_sleep_past_quiet_limit_is_not_deadlock(self):
        # deadlock_quiet_rounds defaults to 3; sleep through 3 + 2 = 5
        # quiet rounds.  The pre-fix engine raises at the third.
        topo = Topology.line(2)
        report = SynchronousEngine(topo).run(lambda v: LongSleeper(v, 6), rng=0)
        assert report.halted
        assert report.outputs == [6, 6]
        assert report.rounds == 6

    def test_every_round_rearm_is_not_deadlock(self):
        # A wake scheduled for the *current* round has not fired when the
        # deadlock check runs; it must still count as a pending wake.
        topo = Topology.line(2)
        report = SynchronousEngine(topo).run(
            lambda v: EveryRoundSleeper(v, 8), rng=0
        )
        assert report.halted
        assert report.outputs == [8, 8]

    def test_deadlock_still_raised_without_wakes(self):
        # The exemption must not swallow genuine deadlocks.
        topo = Topology.line(2)
        with pytest.raises(SimulationError, match="deadlock"):
            SynchronousEngine(topo).run(lambda v: Silent(v), rng=0)

    def test_mail_wake_rearms_to_earlier_round(self):
        # Node 0 arms round 10, gets mail at round 1, re-arms to round 4:
        # it must halt at 4, not 10, and run at most once per round.
        topo = Topology.line(2)
        programs = {}

        def factory(v):
            programs[v] = RearmOnMail(v)
            return programs[v]

        report = SynchronousEngine(topo).run(factory, rng=0)
        assert report.halted
        assert report.outputs[0] == 4
        assert report.rounds == 4
        runs = programs[0].runs
        assert len(runs) == len(set(runs)), f"duplicate invocations: {runs}"

    def test_rearming_same_round_never_duplicates(self):
        # Node 0 re-arms wake(8) on every ping; the pre-fix engine appended
        # a fresh pending entry each time and fired on_round repeatedly.
        topo = Topology.line(2)
        programs = {}

        def factory(v):
            programs[v] = PingPongTimer(v)
            return programs[v]

        report = SynchronousEngine(topo).run(factory, rng=0)
        assert report.halted
        runs = programs[0].runs
        assert len(runs) == len(set(runs)), f"duplicate invocations: {runs}"
        assert report.outputs[0][-1] == 8


class TestContextGuards:
    def test_send_to_non_neighbor(self):
        topo = Topology.line(3)

        class Bad(NodeProgram):
            def __init__(self, node_id):
                self.node_id = node_id

            def on_start(self, ctx):
                if ctx.node_id == 0:
                    ctx.send(2, "x", bits=1)  # 0 and 2 are not adjacent

            def on_round(self, ctx, inbox):
                ctx.halt()

        with pytest.raises(SimulationError, match="non-neighbour"):
            SynchronousEngine(topo).run(lambda v: Bad(v), rng=0)

    def test_send_after_halt(self):
        topo = Topology.line(2)

        class HaltThenSend(NodeProgram):
            def __init__(self, node_id):
                self.node_id = node_id

            def on_start(self, ctx):
                ctx.halt()
                ctx.send(ctx.neighbors[0], "x", bits=1)

            def on_round(self, ctx, inbox):
                pass

        with pytest.raises(SimulationError, match="halting"):
            SynchronousEngine(topo).run(lambda v: HaltThenSend(v), rng=0)


class Scripted(NodeProgram):
    """Runs ``script(ctx)`` once, at the round named for its node."""

    def __init__(self, node_id, when, script):
        self.node_id = node_id
        self.when = when
        self.script = script

    def _act(self, ctx):
        if ctx.round == self.when.get(self.node_id, -1):
            self.script(ctx)
        ctx.request_wakeup(ctx.round + 1)

    def on_start(self, ctx):
        self._act(ctx)

    def on_round(self, ctx, inbox):
        if ctx.round >= 3:
            ctx.halt()
        else:
            self._act(ctx)


def _run_scripted(topo, when, script, bandwidth_bits=16):
    engine = SynchronousEngine(topo, bandwidth_bits=bandwidth_bits)
    return engine.run(lambda v: Scripted(v, when, script), rng=0)


class TestFastPathErrors:
    """The engine checks CONGEST limits once per round; the errors keep
    the per-sender texts and name the first offender in node order."""

    @pytest.mark.parametrize("round_", [0, 2])
    @pytest.mark.parametrize("how", ["send", "broadcast"])
    def test_over_budget_text(self, how, round_):
        def script(ctx):
            if how == "send":
                ctx.send(ctx.neighbors[0], "big", bits=17, tag="big")
            else:
                ctx.broadcast("big", bits=17, tag="big")

        with pytest.raises(BandwidthExceededError) as err:
            _run_scripted(Topology.star(4), {2: round_, 3: round_}, script)
        assert str(err.value) == "node 2 sent 17 bits to 0 (budget 16) [tag='big']"

    @pytest.mark.parametrize("round_", [0, 2])
    def test_send_after_broadcast_names_first_offender(self, round_):
        def script(ctx):
            ctx.broadcast("b", bits=3, tag="b")
            ctx.send(ctx.neighbors[-1], "s", bits=3, tag="s")

        with pytest.raises(BandwidthExceededError) as err:
            _run_scripted(Topology.line(4), {1: round_, 2: round_}, script)
        assert str(err.value) == "node 1 sent two messages to 2 in one round [tag='s']"

    @pytest.mark.parametrize(
        "doubler, text",
        [
            (1, "node 1 sent two messages to 0 in one round [tag='b']"),
            (2, "node 1 sent 99 bits to 0 (budget 16) [tag='c']"),
        ],
    )
    def test_first_offender_wins_across_kinds(self, doubler, text):
        """Nodes 1 and 2 both offend, one with a duplicate edge and one
        with an over-budget message: node 1's violation is reported."""

        def script(ctx):
            if ctx.node_id == doubler:
                ctx.send(ctx.neighbors[0], 1, bits=1, tag="a")
                ctx.send(ctx.neighbors[0], 2, bits=1, tag="b")
            else:
                ctx.send(ctx.neighbors[0], 3, bits=99, tag="c")

        with pytest.raises(BandwidthExceededError) as err:
            _run_scripted(Topology.line(4), {1: 1, 2: 1}, script)
        assert str(err.value) == text

    @pytest.mark.parametrize("how", ["send", "broadcast"])
    def test_send_errors_surface_through_the_engine(self, how):
        def after_halt(ctx):
            ctx.halt()
            if how == "send":
                ctx.send(ctx.neighbors[0], "x", bits=1)
            else:
                ctx.broadcast("x", bits=1)

        with pytest.raises(SimulationError, match="^node 1 sent after halting$"):
            _run_scripted(Topology.line(3), {1: 1}, after_halt)

        def negative(ctx):
            if how == "send":
                ctx.send(ctx.neighbors[0], "x", bits=-2)
            else:
                ctx.broadcast("x", bits=-2)

        with pytest.raises(ParameterError, match="^message bits must be >= 0, got -2$"):
            _run_scripted(Topology.line(3), {1: 1}, negative)

    def test_non_neighbour_through_the_engine(self):
        def script(ctx):
            ctx.send(ctx.node_id + 2, "x", bits=1)

        with pytest.raises(
            SimulationError, match="^node 0 tried to message non-neighbour 2$"
        ):
            _run_scripted(Topology.line(3), {0: 2}, script)

    def test_halted_isolated_node_broadcast_is_silent(self):
        class IsolatedHalt(NodeProgram):
            def __init__(self, node_id):
                self.node_id = node_id

            def on_start(self, ctx):
                ctx.halt("done")
                ctx.broadcast("x", bits=1)

            def on_round(self, ctx, inbox):  # pragma: no cover - halted
                pass

        report = SynchronousEngine(Topology.from_edges(1, []), bandwidth_bits=8).run(
            lambda v: IsolatedHalt(v), rng=0
        )
        assert report.halted and report.messages == 0
        assert report.outputs == ["done"]
