"""Golden fingerprints of whole engine runs.

The other engine tests compare two runs of the same code, so they cannot
see a change that moves every run the same way.  These pin the measured
quantities of fixed runs — round, message and bit counts, fault counters,
per-node outputs and the per-round :class:`RoundStats` trace — to values
recorded from the reference engine, so any change to the message path
(construction, CONGEST checks, fault draws, delivery order) that alters
a single observable fails here.

Outputs and traces are pinned as SHA-256 digests of a canonical JSON
form (dataclasses and tuples flattened, numpy scalars as Python numbers),
so the digests do not depend on the Python or numpy version.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

import repro.congest.hardened as hardened_module
import repro.congest.tester as tester_module
from repro.congest import CongestUniformityTester, HardenedCongestTester
from repro.distributions import far_family, uniform
from repro.experiments import make_topology
from repro.localmodel.mis import LubyMISProgram, luby_mis
from repro.simulator import DelayDistribution, FaultPlan, SynchronousEngine, Topology
from repro.simulator.node import NodeProgram


def _canon(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [type(value).__name__] + [
            _canon(getattr(value, f.name)) for f in dataclasses.fields(value)
        ]
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


def _digest(value) -> str:
    text = json.dumps(_canon(value), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fingerprint(report) -> dict:
    return {
        "rounds": report.rounds,
        "messages": report.messages,
        "total_bits": report.total_bits,
        "max_edge_bits_per_round": report.max_edge_bits_per_round,
        "drops": report.drops,
        "delays": report.delays,
        "crashes": report.crashes,
        "halted": report.halted,
        "trace_rounds": len(report.trace),
        "trace": _digest(report.trace),
        "outputs": _digest(report.outputs),
    }


class _TracingEngine(SynchronousEngine):
    """The engine with ``record_trace`` forced on (tracing is passive)."""

    def __init__(self, *args, **kwargs):
        kwargs["record_trace"] = True
        super().__init__(*args, **kwargs)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(tester_module, "SynchronousEngine", _TracingEngine)
    monkeypatch.setattr(hardened_module, "SynchronousEngine", _TracingEngine)


class _Chatter(NodeProgram):
    """LOCAL program sending several messages per edge per round.

    Every node sends ``2 + (v + round) % 2`` distinct messages to each
    neighbour for the first few rounds and logs what it receives, so the
    fault plan's per-edge occurrence index decides which copies drop or
    lag, and the log shows the delivery order.
    """

    def __init__(self, node_id):
        self.node_id = node_id
        self.log = []

    def _speak(self, ctx):
        copies = 2 + (self.node_id + ctx.round) % 2
        for u in ctx.neighbors:
            for j in range(copies):
                ctx.send(u, (self.node_id, ctx.round, j), bits=3 + j, tag="c")
        ctx.request_wakeup(ctx.round + 1)

    def on_start(self, ctx):
        self._speak(ctx)

    def on_round(self, ctx, inbox):
        self.log.extend((ctx.round, m.src, m.payload, m.bits) for m in inbox)
        if ctx.round >= 9:
            ctx.halt(tuple(self.log))
        elif ctx.round < 5:
            self._speak(ctx)
        else:
            ctx.request_wakeup(ctx.round + 1)


GOLDEN_CONGEST = {
    1: (
        True,
        {
            "rounds": 90,
            "messages": 5512,
            "total_bits": 71325,
            "max_edge_bits_per_round": 14,
            "drops": 0,
            "delays": 0,
            "crashes": 0,
            "halted": True,
            "trace_rounds": 90,
            "trace": "15f81c528d1d62c3",
            "outputs": "119dafbc0051c108",
        },
    ),
    2: (
        False,
        {
            "rounds": 90,
            "messages": 5512,
            "total_bits": 71325,
            "max_edge_bits_per_round": 14,
            "drops": 0,
            "delays": 0,
            "crashes": 0,
            "halted": True,
            "trace_rounds": 90,
            "trace": "15f81c528d1d62c3",
            "outputs": "451266d08bfdc8cb",
        },
    ),
}
GOLDEN_HARDENED = (
    False,
    {
        "rounds": 348,
        "messages": 13652,
        "total_bits": 158930,
        "max_edge_bits_per_round": 15,
        "drops": 1054,
        "delays": 1985,
        "crashes": 2,
        "halted": True,
        "trace_rounds": 348,
        "trace": "1e16aa9c8b63b604",
        "outputs": "5d9143d1d1ac9296",
    },
)
GOLDEN_LUBY = {
    "rounds": 6,
    "messages": 3783,
    "total_bits": 135471,
    "max_edge_bits_per_round": 63,
    "drops": 0,
    "delays": 0,
    "crashes": 0,
    "halted": True,
    "trace_rounds": 6,
    "trace": "4e0b0ddb56004cca",
    "outputs": "bb4ae5bfd85389ba",
}
GOLDEN_CHATTER = {
    "rounds": 9,
    "messages": 427,
    "total_bits": 1622,
    "max_edge_bits_per_round": 5,
    "drops": 147,
    "delays": 120,
    "crashes": 1,
    "halted": True,
    "trace_rounds": 9,
    "trace": "f71e5182a8145af0",
    "outputs": "d280887e2513d3d4",
}


@pytest.mark.usefixtures("tracing")
class TestCongestTesterGolden:
    @pytest.mark.parametrize("seed", sorted(GOLDEN_CONGEST))
    def test_cold_grid_run(self, seed):
        tester = CongestUniformityTester.solve(200, 120, 0.9, 1.0 / 3.0, 32)
        accepted, report = tester.run(Topology.grid(10, 12), uniform(200), rng=seed)
        assert report.trace, "tracing engine not in use"
        assert (accepted, _fingerprint(report)) == GOLDEN_CONGEST[seed]


@pytest.mark.usefixtures("tracing")
class TestHardenedGolden:
    def test_drop_delay_crash_plan(self):
        tester = HardenedCongestTester.solve(200, 60, 0.9, 1.0 / 3.0, 64)
        plan = FaultPlan(
            seed=3,
            drop_prob=0.05,
            edge_drop={(1, 0): 0.5},
            delay=DelayDistribution(((1, 0.1), (2, 0.05))),
            crashes={7: 20, 33: 40},
        )
        result = tester.run(
            make_topology("grid", 60),
            far_family("paninski", 200, 0.9, rng=0),
            rng=4,
            faults=plan,
        )
        report = result.report
        assert report.trace, "tracing engine not in use"
        assert (result.verdict, _fingerprint(report)) == GOLDEN_HARDENED


class TestLubyGolden:
    def test_power_graph_ring(self):
        topo = Topology.ring(256).power_graph(4)
        report = SynchronousEngine(
            topo, bandwidth_bits=None, max_rounds=100_000, record_trace=True
        ).run(lambda v: LubyMISProgram(v), 7)
        membership, rounds = luby_mis(topo, rng=7)
        assert membership == [bool(o) for o in report.outputs]
        assert rounds == report.rounds
        assert _fingerprint(report) == GOLDEN_LUBY


class TestMultiMessageEdgeGolden:
    def test_drop_delay_plan_on_repeated_edges(self):
        topo = Topology.gnp(12, 0.35, rng=1)
        plan = FaultPlan(
            seed=5,
            drop_prob=0.2,
            edge_drop={(0, topo.neighbors(0)[0]): 0.9},
            delay=DelayDistribution(((1, 0.2), (3, 0.1))),
            crashes={2: 3},
        )
        report = SynchronousEngine(topo, record_trace=True, faults=plan).run(
            lambda v: _Chatter(v), 0
        )
        assert report.drops and report.delays
        assert _fingerprint(report) == GOLDEN_CHATTER
