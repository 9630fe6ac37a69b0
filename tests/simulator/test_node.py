"""Unit tests for the node Context (the per-node world view)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError, SimulationError
from repro.simulator.message import Message
from repro.simulator.node import Context


def make_ctx(node_id=0, neighbors=(1, 2)):
    return Context(node_id=node_id, neighbors=tuple(neighbors),
                   rng=np.random.default_rng(0))


class TestSend:
    def test_send_queues_message(self):
        ctx = make_ctx()
        ctx.send(1, "hello", bits=5, tag="t")
        out = ctx._drain_outbox()
        assert len(out) == 1
        assert out[0].dst == 1 and out[0].payload == "hello" and out[0].bits == 5

    def test_drain_empties(self):
        ctx = make_ctx()
        ctx.send(1, "x", bits=1)
        ctx._drain_outbox()
        assert ctx._drain_outbox() == []

    def test_non_neighbor_rejected(self):
        ctx = make_ctx()
        with pytest.raises(SimulationError):
            ctx.send(9, "x", bits=1)

    def test_broadcast_hits_every_neighbor(self):
        ctx = make_ctx(neighbors=(1, 2, 3))
        ctx.broadcast("b", bits=2)
        out = ctx._drain_outbox()
        assert sorted(m.dst for m in out) == [1, 2, 3]

    def test_send_after_halt_rejected(self):
        ctx = make_ctx()
        ctx.halt()
        with pytest.raises(SimulationError):
            ctx.send(1, "x", bits=1)


class TestSendErrors:
    """``send`` and ``broadcast`` build messages without ``Message.__new__``
    but keep its checks: same exception types and texts, same order."""

    def test_messages_equal_the_public_constructor(self):
        ctx = make_ctx(neighbors=(3, 1, 2))
        ctx.send(1, "s", bits=4, tag="x")
        ctx.broadcast(("b", 1), bits=6)
        out = ctx._drain_outbox()
        assert all(type(m) is Message for m in out)
        assert out == [
            Message(src=0, dst=1, payload="s", bits=4, tag="x"),
            Message(src=0, dst=3, payload=("b", 1), bits=6),
            Message(src=0, dst=1, payload=("b", 1), bits=6),
            Message(src=0, dst=2, payload=("b", 1), bits=6),
        ]

    def test_non_neighbor_text(self):
        with pytest.raises(SimulationError) as err:
            make_ctx().send(9, "x", bits=1)
        assert str(err.value) == "node 0 tried to message non-neighbour 9"

    @pytest.mark.parametrize("how", ["send", "broadcast"])
    def test_after_halt_text(self, how):
        ctx = make_ctx()
        ctx.halt()
        with pytest.raises(SimulationError) as err:
            if how == "send":
                ctx.send(1, "x", bits=1)
            else:
                ctx.broadcast("x", bits=1)
        assert str(err.value) == "node 0 sent after halting"
        assert ctx._drain_outbox() == []

    @pytest.mark.parametrize("how", ["send", "broadcast"])
    def test_negative_bits_text_matches_message(self, how):
        with pytest.raises(ParameterError) as reference:
            Message(src=0, dst=1, payload="x", bits=-3)
        ctx = make_ctx()
        with pytest.raises(ParameterError) as err:
            if how == "send":
                ctx.send(1, "x", bits=-3)
            else:
                ctx.broadcast("x", bits=-3)
        assert str(err.value) == str(reference.value)
        assert ctx._drain_outbox() == []

    def test_check_order(self):
        """Halted before neighbour before bits, as when send built a
        ``Message`` after its own two checks."""
        ctx = make_ctx()
        with pytest.raises(SimulationError, match="non-neighbour"):
            ctx.send(9, "x", bits=-1)
        ctx.halt()
        with pytest.raises(SimulationError, match="halting"):
            ctx.send(9, "x", bits=-1)
        with pytest.raises(SimulationError, match="halting"):
            ctx.broadcast("x", bits=-1)

    def test_isolated_broadcast_is_silent(self):
        """No neighbours, no messages, no checks: even halted or with
        negative bits."""
        ctx = make_ctx(neighbors=())
        ctx.broadcast("x", bits=-1)
        ctx.halt()
        ctx.broadcast("x", bits=1)
        ctx.broadcast("x", bits=-1)
        assert ctx._drain_outbox() == []


class TestHaltAndOutput:
    def test_halt_sets_output(self):
        ctx = make_ctx()
        ctx.halt("done")
        assert ctx.halted and ctx.output == "done"

    def test_halt_without_output_preserves_prior(self):
        ctx = make_ctx()
        ctx.set_output("partial")
        ctx.halt()
        assert ctx.output == "partial"

    def test_set_output_does_not_halt(self):
        ctx = make_ctx()
        ctx.set_output(3)
        assert not ctx.halted


class TestWakeups:
    def test_earliest_wakeup_wins(self):
        ctx = make_ctx()
        ctx.request_wakeup(10)
        ctx.request_wakeup(5)
        ctx.request_wakeup(8)
        assert ctx._wake_at == 5

    def test_later_request_ignored(self):
        ctx = make_ctx()
        ctx.request_wakeup(3)
        ctx.request_wakeup(7)
        assert ctx._wake_at == 3


class TestRngIsolation:
    def test_private_generator(self):
        a = Context(0, (1,), np.random.default_rng(1))
        b = Context(1, (0,), np.random.default_rng(2))
        assert a.rng.integers(1 << 30) != b.rng.integers(1 << 30)
