"""The synchronous round engine.

Executes a :class:`~repro.simulator.node.NodeProgram` per node over a
:class:`~repro.simulator.graph.Topology` in lock-step rounds:

1. deliver the messages sent last round,
2. invoke every non-halted node's ``on_round``,
3. check the new outgoing messages against the CONGEST limits.

**CONGEST enforcement**: with a finite ``bandwidth_bits``, the engine
rejects (raises, not truncates) any message over budget, and also rejects
two messages from the same node along the same edge in one round — the
model allows one message per directed edge per round.  The check runs
once per round, after every ``on_round`` call, as C-level passes over
the round's messages; only a failing round is rescanned message by
message, so the error names the first offender in node order.

The engine's :class:`EngineReport` carries the measured quantities the
benchmarks compare with the theorems: total rounds, message count, total
bits, and the maximum bits ever sent over a single edge in a round.

The inner loop is written for throughput, since its cost is paid once per
message: :meth:`Context.send` builds each message tuple directly and
``broadcast`` validates once per call; every node of a run appends to one
shared outbox, so a round's messages arrive grouped by sender with no
per-node drain; per-node inboxes are preallocated once and recycled; the
live-node ordering is maintained incrementally instead of re-sorted every
round; and per-round message/bit totals are ``sum``/``max`` reductions
shared between the report totals and the optional trace.

**Fault injection**: an optional :class:`~repro.simulator.faults.FaultPlan`
is applied at delivery time — per-edge message drops, fixed delay
distributions, and crash-stop schedules — with drop/delay/crash counts
surfaced in the report.  The plan draws from its own stream keyed by
``(seed, edge, round, index)``; the engine draws a whole round's drops
and delays as arrays (:meth:`FaultPlan.drop_flags`,
:meth:`FaultPlan.delay_rounds_array`), element for element the scalar
:meth:`FaultPlan.should_drop` / :meth:`FaultPlan.delay_rounds` values.
A run with ``FaultPlan.none()`` (or no plan) is bit-identical to the
fault-free engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from operator import add, eq, itemgetter, mul
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import telemetry
from repro.exceptions import BandwidthExceededError, SimulationError
from repro.rng import SeedLike, ensure_rng, spawn_lazy
from repro.simulator.faults import FaultPlan
from repro.simulator.graph import Topology
from repro.simulator.message import Message
from repro.simulator.node import Context, NodeProgram

#: Default number of consecutive globally-silent rounds with live nodes
#: after which the engine declares the protocol deadlocked.  Phase-advancing
#: protocols act on the first or second quiet round; three in a row means
#: nobody ever will.  Protocols with longer intentional silences (e.g. the
#: token-forwarding phase, quiet for up to ``τ`` rounds) pass a larger
#: ``deadlock_quiet_rounds`` to the engine constructor.
DEFAULT_DEADLOCK_QUIET_ROUNDS = 3

# Message field getters (Message is a tuple: src, dst, payload, bits, tag),
# so per-round reductions run as C-level map/sum/max/sorted passes.
_SRC = itemgetter(0)
_DST = itemgetter(1)
_BITS = itemgetter(3)


@dataclass(frozen=True)
class RoundStats:
    """One round's activity, recorded when tracing is enabled.

    ``quiet`` marks globally silent rounds — the phase boundaries of the
    flooding-based protocols.  The fault counters are zero unless the
    engine ran with a :class:`~repro.simulator.faults.FaultPlan`.
    """

    round: int
    messages: int
    bits: int
    active_nodes: int
    quiet: bool
    drops: int = 0
    delays: int = 0
    crashes: int = 0


@dataclass
class EngineReport:
    """Measured execution statistics of one protocol run.

    Attributes
    ----------
    rounds:
        Number of synchronous rounds executed (including quiet ones).
    messages:
        Total messages delivered.
    total_bits:
        Sum of declared message sizes.
    max_edge_bits_per_round:
        The largest single-message size observed — in CONGEST mode this is
        certified ≤ the bandwidth.
    outputs:
        Final per-node outputs, indexed by node ID.
    halted:
        Whether every node terminated — halted voluntarily or (under a
        fault plan) crashed.  ``False`` means the run stopped at
        ``max_rounds``.
    trace:
        Per-round :class:`RoundStats` when the engine was constructed with
        ``record_trace=True``; empty otherwise.
    drops:
        Messages lost to the fault plan (including messages addressed to
        already-crashed nodes).
    delays:
        Messages the fault plan deferred past their natural delivery round.
    crashes:
        Nodes killed by the fault plan's crash-stop schedule.
    """

    rounds: int
    messages: int
    total_bits: int
    max_edge_bits_per_round: int
    outputs: List[Any]
    halted: bool
    trace: List[RoundStats] = field(default_factory=list)
    drops: int = 0
    delays: int = 0
    crashes: int = 0


class SynchronousEngine:
    """Runs node programs over a topology in synchronous rounds.

    Parameters
    ----------
    topology:
        The network graph.
    bandwidth_bits:
        Per-edge per-round bit budget (CONGEST).  ``None`` = LOCAL model
        (unbounded messages).
    max_rounds:
        Hard stop; exceeding it returns a report with ``halted=False``.
    record_trace:
        Record per-round :class:`RoundStats` in the report.
    deadlock_quiet_rounds:
        Consecutive globally-silent rounds (with live nodes) tolerated
        before raising :class:`~repro.exceptions.SimulationError`.
        Protocols with timer-driven silent stretches (token forwarding,
        bounded-radius gather) should pass their longest legal silence
        plus slack.  Quiet rounds during which some live node holds a
        scheduled wakeup — or a fault-delayed message is still in flight
        — are exempt: sleeping through idle waits is legal, not deadlock.
    faults:
        Optional :class:`~repro.simulator.faults.FaultPlan` applied at
        delivery time.  ``None`` or a null plan keeps the fault-free fast
        path, bit-identical to an engine without the parameter.
    phase_names:
        Names for the protocol's phases, used only when a telemetry
        tracer is active.  The flooding protocols separate phases with
        globally-quiet rounds; the engine segments its round log at
        those boundaries and emits one ``engine.phase.<name>`` span per
        segment.  When the segment count does not match (early halt,
        faults), generic ``phase1…phaseN`` names are used instead.
    """

    def __init__(
        self,
        topology: Topology,
        bandwidth_bits: Optional[int] = None,
        max_rounds: int = 1_000_000,
        record_trace: bool = False,
        deadlock_quiet_rounds: int = DEFAULT_DEADLOCK_QUIET_ROUNDS,
        faults: Optional[FaultPlan] = None,
        phase_names: Optional[Sequence[str]] = None,
    ) -> None:
        if bandwidth_bits is not None and bandwidth_bits < 1:
            raise SimulationError(
                f"bandwidth must be >= 1 bit, got {bandwidth_bits}"
            )
        if max_rounds < 1:
            raise SimulationError(f"max_rounds must be >= 1, got {max_rounds}")
        if deadlock_quiet_rounds < 1:
            raise SimulationError(
                f"deadlock_quiet_rounds must be >= 1, got {deadlock_quiet_rounds}"
            )
        self.topology = topology
        self.bandwidth_bits = bandwidth_bits
        self.max_rounds = max_rounds
        self.record_trace = record_trace
        self.deadlock_quiet_rounds = deadlock_quiet_rounds
        if faults is not None:
            for node in faults.crashes:
                if not 0 <= node < topology.k:
                    raise SimulationError(
                        f"crash schedule names node {node}, outside the "
                        f"topology's range [0, {topology.k})"
                    )
        # A null plan takes the fault-free fast path: delivery then runs
        # the exact pre-fault inner loop, bit-identical to no plan at all.
        self.faults = None if faults is None or faults.is_null else faults
        self.phase_names = tuple(phase_names) if phase_names else ()

    def run(
        self,
        program_factory: Callable[[int], NodeProgram],
        rng: SeedLike = None,
    ) -> EngineReport:
        """Execute until every node halts (or ``max_rounds``).

        Parameters
        ----------
        program_factory:
            Called once per node ID to create that node's program instance.
        rng:
            Seed or generator; each node receives an independent child
            generator (private coins), materialised lazily on first use.
        """
        if not telemetry.enabled():
            return self._run(program_factory, rng, None)
        with telemetry.span(
            "engine.run",
            nodes=self.topology.k,
            bandwidth_bits=self.bandwidth_bits,
        ) as sp:
            # Per-round (stats, elapsed) rows captured only under tracing;
            # the run itself is bit-identical either way — telemetry never
            # touches the RNG or the control flow.
            phase_rows: List[tuple] = []
            report = self._run(program_factory, rng, phase_rows)
            sp.set(halted=report.halted)
            sp.count("rounds", report.rounds)
            sp.count("messages", report.messages)
            sp.count("bits", report.total_bits)
            if report.drops:
                sp.count("drops", report.drops)
            if report.delays:
                sp.count("delays", report.delays)
            if report.crashes:
                sp.count("crashes", report.crashes)
            self._emit_phase_spans(phase_rows)
            return report

    def _emit_phase_spans(self, phase_rows: List[tuple]) -> None:
        """Segment the round log at quiet boundaries into phase spans.

        A phase ends with the globally-quiet round(s) that let every node
        observe the phase boundary, so quiet rounds are accounted to the
        phase they terminate and a new segment opens at the first busy
        round after silence.
        """
        if not phase_rows:
            return
        segments: List[List[tuple]] = [[]]
        prev_quiet = False
        for row in phase_rows:
            quiet = row[1]
            if prev_quiet and not quiet:
                segments.append([])
            segments[-1].append(row)
            prev_quiet = quiet
        names = self.phase_names
        if len(names) != len(segments):
            names = tuple(f"phase{i + 1}" for i in range(len(segments)))
        for name, rows in zip(names, segments):
            counters = {
                "rounds": len(rows),
                "messages": sum(r[2] for r in rows),
                "bits": sum(r[3] for r in rows),
            }
            drops = sum(r[4] for r in rows)
            delays = sum(r[5] for r in rows)
            crashes = sum(r[6] for r in rows)
            if drops:
                counters["drops"] = drops
            if delays:
                counters["delays"] = delays
            if crashes:
                counters["crashes"] = crashes
            telemetry.record_span(
                f"engine.phase.{name}",
                seconds=sum(r[7] for r in rows),
                attrs={"first_round": rows[0][0], "last_round": rows[-1][0]},
                counters=counters,
            )

    def _run(
        self,
        program_factory: Callable[[int], NodeProgram],
        rng: SeedLike,
        phase_rows: Optional[List[tuple]],
    ) -> EngineReport:
        topo = self.topology
        k = topo.k
        gen = ensure_rng(rng)
        rng_factories = spawn_lazy(gen, k)
        programs = [program_factory(v) for v in range(k)]
        contexts = [
            Context(
                node_id=v,
                neighbors=topo.neighbors(v),
                rng_factory=rng_factories[v],
            )
            for v in range(k)
        ]
        # One outbox shared by every node: nodes run in ascending order, so
        # a round's messages land here grouped by sender, in send order.
        outbox: List[Message] = []
        for ctx in contexts:
            ctx._outbox = outbox

        alive = [True] * k
        live_count = k
        # Sorted snapshot of the live nodes; compacted lazily when nodes
        # have halted since the last quiet-round sweep.
        live_order = list(range(k))
        live_stale = False
        pending_wakes: Dict[int, List[int]] = {}
        # Wake accounting.  ``wake_round[v]`` is the authoritative round v
        # is scheduled to wake at (None = no pending wake): it is cleared
        # whenever v runs — a wake must be re-requested by the run it woke
        # (clear-and-rearm) — so a node woken early by mail does not keep a
        # stale timer.  ``appended_for[v]`` tracks the round list v
        # physically sits in, so re-arming to the same round never appends
        # a duplicate entry; entries whose owner re-armed elsewhere are
        # skipped when their round's list is popped.
        wake_round: List[Optional[int]] = [None] * k
        appended_for: List[Optional[int]] = [None] * k

        faults = self.faults
        crash_schedule: Dict[int, tuple] = (
            faults.crash_schedule() if faults is not None else {}
        )
        crashed = [False] * k
        # Array mirror of `crashed`, read by the per-round fault draws.
        crashed_mask = np.zeros(k, dtype=bool)
        delayed: Dict[int, List[Message]] = {}
        drops = 0
        delays = 0
        crashes = 0
        for v in crash_schedule.pop(0, ()):
            # Crash-stop at round 0: the node never even starts.
            alive[v] = False
            crashed[v] = True
            crashed_mask[v] = True
            live_count -= 1
            live_stale = True
            crashes += 1

        for v, prog in enumerate(programs):
            if crashed[v]:
                continue
            ctx = contexts[v]
            prog.on_start(ctx)
            if ctx._halted:
                alive[v] = False
                live_count -= 1
                live_stale = True
            elif ctx._wake_at is not None:
                wake_round[v] = ctx._wake_at
                appended_for[v] = ctx._wake_at
                pending_wakes.setdefault(ctx._wake_at, []).append(v)
        self._check_congest(outbox)

        # Recycled per-node inboxes: `touched` is the set of nodes whose
        # inbox is non-empty this round.
        inboxes: List[List[Message]] = [[] for _ in range(k)]
        touched: Set[int] = set()
        alive_at = alive.__getitem__

        rounds = 0
        messages = 0
        total_bits = 0
        max_edge_bits = 0
        quiet_streak = 0
        trace: List[RoundStats] = []
        record_trace = self.record_trace
        deadlock_limit = self.deadlock_quiet_rounds
        max_rounds = self.max_rounds
        phase_clock = time.perf_counter() if phase_rows is not None else 0.0

        while rounds < max_rounds:
            if live_count == 0 and not outbox and not delayed:
                return EngineReport(
                    rounds=rounds,
                    messages=messages,
                    total_bits=total_bits,
                    max_edge_bits_per_round=max_edge_bits,
                    outputs=[ctx.output for ctx in contexts],
                    halted=True,
                    trace=trace,
                    drops=drops,
                    delays=delays,
                    crashes=crashes,
                )
            rounds += 1
            round_drops = 0
            round_delays = 0
            round_crashes = 0
            if faults is None:
                deliver = outbox
            else:
                # Crash-stop before delivery: a node dying at round r
                # neither receives nor acts at r, but its own messages
                # already in flight still arrive.
                for v in crash_schedule.pop(rounds, ()):
                    if alive[v]:
                        alive[v] = False
                        crashed[v] = True
                        crashed_mask[v] = True
                        live_count -= 1
                        live_stale = True
                        wake_round[v] = None
                        round_crashes += 1
                crashes += round_crashes
                deliver = delayed.pop(rounds, [])
                if outbox:
                    round_drops, round_delays = _apply_faults(
                        faults, outbox, rounds, k, crashed_mask, deliver, delayed
                    )
                    drops += round_drops
                    delays += round_delays
            round_messages = len(deliver)
            round_bits = 0
            if round_messages:
                round_bits = sum(map(_BITS, deliver))
                peak = max(map(_BITS, deliver))
                if peak > max_edge_bits:
                    max_edge_bits = peak
                touched = set(map(_DST, deliver))
                for msg in deliver:
                    inboxes[msg[1]].append(msg)
                messages += round_messages
                total_bits += round_bits
                quiet_streak = 0
            else:
                touched = set()
                quiet_streak += 1
                if quiet_streak >= deadlock_limit and not delayed:
                    # Sleeping toward a scheduled wakeup is legal silence,
                    # not deadlock: only raise when no live node has a
                    # pending wake (this round's wakes have not fired yet
                    # at this point) and no delayed mail is due.
                    has_wake = any(
                        r >= rounds
                        and any(alive[v] and wake_round[v] == r for v in vs)
                        for r, vs in pending_wakes.items()
                    )
                    if not has_wake:
                        live_nodes = [v for v in range(k) if alive[v]]
                        sample = live_nodes[:8]
                        raise SimulationError(
                            f"deadlock: {quiet_streak} silent rounds with live "
                            f"nodes {sample}{'...' if len(live_nodes) > 8 else ''} "
                            f"at round {rounds}"
                        )
            # Last round's mail is routed (or dropped/deferred); the shared
            # outbox now collects this round's sends.
            outbox.clear()
            # Scheduling contract: a node runs when it has mail, after a
            # globally quiet round (phase transitions), or at a wakeup it
            # requested.  Anything else would be a spurious no-op call.
            due = pending_wakes.pop(rounds, None)
            if due is not None:
                # The physical entries are consumed; entries whose owner
                # re-armed to a different round (or halted) are stale.
                fired = []
                for v in due:
                    appended_for[v] = None
                    if wake_round[v] == rounds:
                        fired.append(v)
                due = fired
            if quiet_streak > 0:
                if live_stale:
                    live_order = [v for v in live_order if alive[v]]
                    live_stale = False
                active = live_order
            elif due:
                active = sorted(filter(alive_at, touched.union(due)))
            else:
                active = sorted(filter(alive_at, touched))
            for v in active:
                ctx = contexts[v]
                # Clear-and-rearm: any run consumes the node's pending
                # wake; on_round must re-request to keep a future timer.
                ctx._wake_at = None
                wake_round[v] = None
                ctx.round = rounds
                ctx.quiet_rounds = quiet_streak
                programs[v].on_round(ctx, inboxes[v])
                if ctx._halted:
                    alive[v] = False
                    live_count -= 1
                    live_stale = True
                else:
                    target = ctx._wake_at
                    if target is not None and target > rounds:
                        wake_round[v] = target
                        if appended_for[v] != target:
                            appended_for[v] = target
                            pending_wakes.setdefault(target, []).append(v)
            if record_trace:
                trace.append(
                    RoundStats(
                        round=rounds,
                        messages=round_messages,
                        bits=round_bits,
                        active_nodes=len(active),
                        quiet=quiet_streak > 0,
                        drops=round_drops,
                        delays=round_delays,
                        crashes=round_crashes,
                    )
                )
            if phase_rows is not None:
                now = time.perf_counter()
                phase_rows.append((
                    rounds, quiet_streak > 0, round_messages, round_bits,
                    round_drops, round_delays, round_crashes,
                    now - phase_clock,
                ))
                phase_clock = now
            self._check_congest(outbox)
            for v in touched:
                inboxes[v].clear()

        return EngineReport(
            rounds=rounds,
            messages=messages,
            total_bits=total_bits,
            max_edge_bits_per_round=max_edge_bits,
            outputs=[ctx.output for ctx in contexts],
            halted=all(
                ctx.halted or crashed[v] for v, ctx in enumerate(contexts)
            ),
            trace=trace,
            drops=drops,
            delays=delays,
            crashes=crashes,
        )

    def _check_congest(self, sent: List[Message]) -> None:
        """Enforce the CONGEST limits on one round's messages.

        C-level passes over the whole round decide the common case: the
        largest declared size against the budget, then the sorted edge
        keys for an adjacent repeat.  An edge is keyed by the int
        ``src·k + dst`` rather than a ``(src, dst)`` tuple: a round's
        worth of live tuples would each count toward the garbage
        collector's allocation threshold and trigger extra collections.
        A sorted list rather than a set: a set of a large round's keys
        is a table big enough for glibc to ``mmap``, and freeing one
        every round raises the allocator's trim threshold and so the
        process's peak RSS; the list is no larger than the round's
        message list.  Only a failing round is rescanned message by
        message in send order, so the error names the same first
        offender as a per-sender check would.
        """
        bandwidth = self.bandwidth_bits
        if bandwidth is None or not sent:
            return
        if max(map(_BITS, sent)) <= bandwidth:
            edges = sorted(map(
                add, map(mul, map(_SRC, sent), repeat(self.topology.k)), map(_DST, sent)
            ))
            if not any(map(eq, edges, islice(edges, 1, None))):
                return
        seen_edges = set()
        for msg in sent:
            if msg.bits > bandwidth:
                raise BandwidthExceededError(
                    f"node {msg.src} sent {msg.bits} bits to "
                    f"{msg.dst} (budget {bandwidth}) "
                    f"[tag={msg.tag!r}]"
                )
            edge = (msg.src, msg.dst)
            if edge in seen_edges:
                raise BandwidthExceededError(
                    f"node {msg.src} sent two messages to {msg.dst} "
                    f"in one round [tag={msg.tag!r}]"
                )
            seen_edges.add(edge)


def _apply_faults(
    faults: FaultPlan,
    sent: List[Message],
    round_: int,
    k: int,
    crashed_mask: np.ndarray,
    deliver: List[Message],
    delayed: Dict[int, List[Message]],
) -> Tuple[int, int]:
    """Apply the fault plan to one round's mail; returns (drops, delays).

    Every message's drop and delay draw comes from one array call each,
    keyed by ``(seed, edge, round, index)`` exactly like the scalar
    :meth:`FaultPlan.should_drop` / :meth:`FaultPlan.delay_rounds`.
    ``index`` is the message's occurrence number on its directed edge
    this round (a LOCAL node may send several): its rank within its run
    after a stable sort by edge.  On-time messages are appended to
    *deliver* and late ones to *delayed*, both in send order.
    """
    m = len(sent)
    src = np.fromiter(map(_SRC, sent), dtype=np.int64, count=m)
    dst = np.fromiter(map(_DST, sent), dtype=np.int64, count=m)
    edge = src * k + dst
    order = np.argsort(edge, kind="stable")
    run_head = np.ones(m, dtype=bool)
    np.not_equal(edge[order[1:]], edge[order[:-1]], out=run_head[1:])
    pos = np.arange(m)
    index = np.empty(m, dtype=np.int64)
    index[order] = pos - np.maximum.accumulate(np.where(run_head, pos, 0))
    # A message to a crashed node is lost without consulting its draw.
    dropped = crashed_mask[dst] | faults.drop_flags(src, dst, round_, index)
    extra = faults.delay_rounds_array(src, dst, round_, index)
    extra[dropped] = 0
    late = np.flatnonzero(extra)
    deliver.extend(compress(sent, (~dropped & (extra == 0)).tolist()))
    for i, wait in zip(late.tolist(), extra[late].tolist()):
        delayed.setdefault(round_ + wait, []).append(sent[i])
    return int(np.count_nonzero(dropped)), len(late)
