"""Fault-tolerant variants of the CONGEST protocols.

The protocols in :mod:`repro.congest.token_packaging` and
:mod:`repro.congest.tester` assume the synchronous model's perfect
delivery: every phase transition keys off *globally quiet rounds*, and a
single lost message deadlocks the network (a parent waits forever for a
count that will never arrive).  This module hardens them against the
engine's :class:`~repro.simulator.faults.FaultPlan` — message drops,
delivery delays, and crash-stop failures — with three standard devices:

1. **Timer-driven phases.**  Quiet rounds are meaningless under loss, so
   every node derives a fixed :class:`PhaseSchedule` of absolute round
   windows from shared constants (``d_hint`` — an upper bound on the
   diameter — ``τ``, and the :class:`RetryPolicy`).  Nodes act on the
   clock, never on global silence.
2. **Ack/retransmit with bounded retries.**  Every point-to-point payload
   (child claims, count and vote convergecasts, token transfers, verdict
   broadcast) is acknowledged; the sender retransmits every
   ``policy.timeout`` rounds up to ``policy.max_retries`` retries, then
   *gives up and records it* instead of blocking.  Token transfers are
   stop-and-wait with per-token sequence numbers, so drops can lose a
   token (bounded, reported) but never duplicate one.
3. **Graceful degradation.**  A parent whose child never reports by the
   phase's last-call deadline proceeds without that subtree and reports
   it (``missing_count_children`` / ``missing_vote_children``); the root
   places the Theorem 1.2 threshold for the *realised* package count, so
   losing a subtree shrinks the evidence rather than corrupting it; a
   node that never hears the verdict defaults to **reject** (the
   conservative verdict) and is flagged ``unheard``.

Model note: messages between a node pair are merged into one *frame* per
directed edge per round (the CONGEST "one message per edge" rule,
engine-enforced); a frame carries a bounded number of ``O(log n + log
k)``-bit subframes, so the protocol stays within a constant-factor
CONGEST budget.  The hardened protocols use no node randomness, so under
a fixed :class:`FaultPlan` a run is bit-for-bit reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.congest.tester import CongestParameters, congest_parameters
from repro.distributions.base import DiscreteDistribution
from repro.exceptions import (
    InfeasibleParametersError,
    ParameterError,
)
from repro.rng import SeedLike, ensure_rng
from repro.simulator.engine import EngineReport, SynchronousEngine
from repro.simulator.faults import FaultPlan
from repro.simulator.graph import Topology
from repro.simulator.message import Message, bits_for_domain, bits_for_int
from repro.simulator.node import Context, NodeProgram

_FRAME = "frame"

# Subframe kinds (short strings keep traces readable).
_FL = "flood"
_CL = "claim"
_CLA = "claim-ack"
_CT = "count"
_CTA = "count-ack"
_TK = "token"
_TKA = "token-ack"
_VT = "vote"
_VTA = "vote-ack"
_DC = "decide"
_DCA = "decide-ack"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry contract for every acknowledged transfer.

    A payload is (re)sent up to ``max_retries + 1`` times total, waiting
    ``timeout`` rounds for an ack between attempts (the engine's
    round-trip is 2 rounds, so the default timeout of 2 retransmits
    exactly when an ack is overdue).  After the final attempt's timeout
    the sender gives up and records the failure; it never blocks.
    """

    timeout: int = 2
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.timeout < 1:
            raise ParameterError(f"timeout must be >= 1, got {self.timeout}")
        if self.max_retries < 0:
            raise ParameterError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    @property
    def attempts(self) -> int:
        """Total transmissions per payload (first send + retries)."""
        return self.max_retries + 1

    @property
    def window(self) -> int:
        """Rounds one acknowledged transfer may take before give-up."""
        return self.timeout * self.attempts + 2


@dataclass(frozen=True)
class PhaseSchedule:
    """Absolute round windows shared by every node.

    Built from constants all nodes know (``d_hint``, ``τ``, the policy),
    so the phase transitions are synchronised *by the clock* instead of
    by global quiet rounds — the device that loss breaks.
    """

    flood_end: int
    child_end: int
    count_last_call: int
    count_end: int
    tokens_end: int
    vote_last_call: int
    vote_end: int
    decide_end: int

    @staticmethod
    def build(d_hint: int, tau: int, policy: RetryPolicy) -> "PhaseSchedule":
        if d_hint < 1:
            raise ParameterError(f"d_hint must be >= 1, got {d_hint}")
        if tau < 1:
            raise ParameterError(f"tau must be >= 1, got {tau}")
        w = policy.window
        # Flooding re-announces every round, so a hop's latency under drop
        # probability p is geometric; doubling the hop budget plus one full
        # retry window absorbs the tail at the rates we harden for.
        flood_end = 2 * (d_hint + 2) + policy.timeout * policy.attempts
        child_end = flood_end + w
        count_end = child_end + 2 * (d_hint + 1) + 2 * w
        count_last_call = count_end - w
        # Stop-and-wait moves one token per 2 rounds; c(v) <= tau - 1.
        tokens_end = count_end + 2 * (tau + 2) + 2 * w
        vote_end = tokens_end + 2 * (d_hint + 1) + 2 * w
        vote_last_call = vote_end - w
        decide_end = vote_end + 2 * (d_hint + 1) + 2 * w
        return PhaseSchedule(
            flood_end=flood_end,
            child_end=child_end,
            count_last_call=count_last_call,
            count_end=count_end,
            tokens_end=tokens_end,
            vote_last_call=vote_last_call,
            vote_end=vote_end,
            decide_end=decide_end,
        )


def hardened_bandwidth(n_bits: int, k: int, tau: int) -> int:
    """Per-edge per-round frame budget (constant-factor CONGEST).

    A frame merges at most one subframe of each kind in flight between a
    pair, each ``O(log n + log k)`` bits; the budget sums their worst
    cases plus slack for the one-bit acks.
    """
    id_bits = 2 * bits_for_int(k)
    seq_bits = bits_for_int(tau) + 1
    return 2 * id_bits + 2 * (n_bits + seq_bits) + bits_for_int(tau) + 16


@dataclass(frozen=True)
class HardenedPackagingOutcome:
    """One node's output from the hardened packaging protocol.

    ``shortfall`` counts tokens the node owed its parent but could not
    confirm delivered — retries exhausted or supply never arrived.  A
    given-up token is *discarded locally* (the parent may have received
    it even though every ack was lost), so faults can lose tokens but
    never duplicate them into two packages.
    """

    packages: Tuple[Tuple[int, ...], ...]
    leftover: Tuple[int, ...]
    is_root: bool
    shortfall: int
    missing_count_children: Tuple[int, ...]
    late_children: int
    claim_acked: bool


class HardenedTokenPackagingProgram(NodeProgram):
    """τ-token packaging rebuilt on timers, acks, and give-up deadlines.

    Phase windows (see :class:`PhaseSchedule`):

    - ``[0, flood_end)`` — every node re-broadcasts its best known
      ``(leader, dist)`` *every round*; repetition replaces reliability.
      The tree is frozen at ``flood_end``.
    - ``[flood_end, child_end)`` — acknowledged child claims (retried per
      the policy).  Parents also learn children *implicitly* from any
      later count/token/vote subframe, so a lost claim degrades instead
      of orphaning a subtree.
    - ``[child_end, count_end)`` — acknowledged count convergecast; at
      ``count_last_call`` a node still missing children gives up on them
      (recorded) and reports what it has.
    - ``[., tokens_end)`` — stop-and-wait token transfer to the parent
      with per-token sequence numbers; at ``tokens_end`` every node cuts
      whatever it holds into ⌊·/τ⌋ packages and reports the shortfall.
    """

    def __init__(
        self,
        node_id: int,
        k: int,
        tau: int,
        token: "int | Sequence[int]",
        token_bits: int,
        schedule: PhaseSchedule,
        policy: RetryPolicy,
    ) -> None:
        if tau < 1:
            raise ParameterError(f"tau must be >= 1, got {tau}")
        self.node_id = node_id
        self.k = k
        self.tau = tau
        self.token_bits = token_bits
        self.schedule = schedule
        self.policy = policy
        # Constant message sizes, computed once per node.
        self._id_bits = 2 * bits_for_int(k)
        self._count_bits = bits_for_int(tau)
        self._seq_bits = bits_for_int(tau) + 1
        initial = (
            [int(token)] if isinstance(token, int) else [int(t) for t in token]
        )
        if not initial:
            raise ParameterError("every node needs at least one token")
        self._initial_count = len(initial)
        # Flooding / tree state.
        self.best = node_id
        self.dist = 0
        self.parent: Optional[int] = None
        self.children: Set[int] = set()
        # Child-claim state.
        self.claim_acked = False
        self._claim_attempts = 0
        self._claim_last = -(1 << 30)
        # Count state.
        self.counts_received: Dict[int, int] = {}
        self.c_value: Optional[int] = None
        self.count_sent = False
        self.count_acked = False
        self.count_giveup = False
        self.missing_count_children: Tuple[int, ...] = ()
        self.late_children = 0
        self._count_attempts = 0
        self._count_last = -(1 << 30)
        # Token state.
        self.buffer: Deque[int] = deque(initial)
        self.transferred = 0  # ack-confirmed deliveries (or root discards)
        self._given_up = 0
        self.out_seq = 0
        self.outstanding: Optional[Tuple[int, int]] = None  # (seq, token)
        self._tok_attempts = 0
        self._tok_last = -(1 << 30)
        self._seen_token_seqs: Dict[int, Set[int]] = {}
        self.discarded: List[int] = []
        self.packaged = False
        # Frame assembly: dst -> list of (kind, payload, bits).
        self._out: Dict[int, List[Tuple[str, Any, int]]] = {}
        self._result: Any = None
        self._done = False

    # -- frame plumbing ----------------------------------------------------

    def _queue(self, dst: int, kind: str, payload: Any, bits: int) -> None:
        self._out.setdefault(dst, []).append((kind, payload, bits))

    def _flush(self, ctx: Context) -> None:
        if not self._out:
            return
        for dst in sorted(self._out):
            subs = self._out[dst]
            ctx.send(
                dst,
                tuple((kind, payload) for kind, payload, _ in subs),
                bits=sum(b for _, _, b in subs),
                tag=_FRAME,
            )
        self._out.clear()

    @property
    def is_root(self) -> bool:
        """Root of this node's tree fragment (the global BFS root unless
        crashes disconnected the graph)."""
        return self.parent is None

    # -- engine hooks ------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        self._announce(ctx)
        self._flush(ctx)
        ctx.request_wakeup(1)

    def on_round(self, ctx: Context, inbox: List[Message]) -> None:
        r = ctx.round
        for msg in inbox:
            if msg.tag != _FRAME:
                continue
            for kind, payload in msg.payload:
                self._handle(ctx, msg.src, kind, payload, r)
        self._tick(ctx, r)
        self._flush(ctx)
        if self._done:
            ctx.halt(self._result)
        else:
            ctx.request_wakeup(r + 1)

    # -- subframe handlers -------------------------------------------------

    def _register_child(self, src: int) -> None:
        """Any upward subframe proves *src* is a tree child of ours."""
        self.children.add(src)

    def _handle(
        self, ctx: Context, src: int, kind: str, payload: Any, r: int
    ) -> None:
        if kind == _FL:
            # Frames sent at flood_end - 1 arrive at flood_end; later
            # stragglers are ignored — the tree is frozen.
            if r <= self.schedule.flood_end:
                self._adopt(src, payload)
        elif kind == _CL:
            self._register_child(src)
            self._queue(src, _CLA, None, 1)
        elif kind == _CLA:
            self.claim_acked = True
        elif kind == _CT:
            self._register_child(src)
            if src not in self.counts_received:
                self.counts_received[src] = int(payload)
                if self.count_sent:
                    # Too late to fold into our own count: the subtree's
                    # tokens still flow, only the mod-τ bookkeeping is off.
                    self.late_children += 1
            self._queue(src, _CTA, None, 1)
        elif kind == _CTA:
            self.count_acked = True
        elif kind == _TK:
            seq, token = payload
            self._register_child(src)
            seen = self._seen_token_seqs.setdefault(src, set())
            if seq not in seen:
                seen.add(seq)
                self.buffer.append(int(token))
            self._queue(src, _TKA, seq, self._seq_bits)
        elif kind == _TKA:
            if self.outstanding is not None and payload == self.outstanding[0]:
                self.outstanding = None
                self.transferred += 1
                self.out_seq += 1

    def _adopt(self, src: int, label: Tuple[int, int]) -> None:
        cand_best, cand_dist = label
        nd = cand_dist + 1
        if cand_best > self.best:
            self.best, self.dist, self.parent = cand_best, nd, src
        elif cand_best == self.best and self.parent is not None:
            if nd < self.dist or (nd == self.dist and src < self.parent):
                self.dist, self.parent = nd, src

    def _announce(self, ctx: Context) -> None:
        for u in ctx.neighbors:
            self._queue(u, _FL, (self.best, self.dist), self._id_bits)

    # -- per-round timers --------------------------------------------------

    def _tick(self, ctx: Context, r: int) -> None:
        s = self.schedule
        p = self.policy
        if r < s.flood_end:
            self._announce(ctx)
            return
        # Child claim: first send at flood_end, then retry on timeout.
        if (
            self.parent is not None
            and not self.claim_acked
            and self._claim_attempts < p.attempts
            and r - self._claim_last >= (p.timeout if self._claim_attempts else 0)
        ):
            self._queue(self.parent, _CL, None, 1)
            self._claim_attempts += 1
            self._claim_last = r
        # Count convergecast.
        if r >= s.child_end and not self.count_sent:
            waiting = self.children - set(self.counts_received)
            if not waiting or r >= s.count_last_call:
                self.missing_count_children = tuple(sorted(waiting))
                self.c_value = (
                    self._initial_count + sum(self.counts_received.values())
                ) % self.tau
                self.count_sent = True
                if self.parent is None:
                    self.count_acked = True
                else:
                    self._queue(
                        self.parent, _CT, self.c_value, self._count_bits
                    )
                    self._count_attempts = 1
                    self._count_last = r
        elif (
            self.count_sent
            and self.parent is not None
            and not self.count_acked
            and not self.count_giveup
            and r - self._count_last >= p.timeout
        ):
            if self._count_attempts < p.attempts:
                self._queue(
                    self.parent, _CT, self.c_value, self._count_bits
                )
                self._count_attempts += 1
                self._count_last = r
            else:
                self.count_giveup = True
        # Token forwarding (stop-and-wait; may overlap the count window).
        if self.count_sent and not self.packaged:
            if r >= s.tokens_end:
                self._finish_packaging(ctx)
            else:
                self._token_step(r)

    def _token_step(self, r: int) -> None:
        p = self.policy
        assert self.c_value is not None
        if self.outstanding is not None and r - self._tok_last >= p.timeout:
            if self._tok_attempts < p.attempts:
                seq, token = self.outstanding
                self._queue(
                    self.parent,
                    _TK,
                    (seq, token),
                    self.token_bits + self._seq_bits,
                )
                self._tok_attempts += 1
                self._tok_last = r
            else:
                # Ack never came.  The parent may still have the token, so
                # keeping it would risk packaging it twice; discard and
                # count it against the shortfall instead.
                self._given_up += 1
                self.outstanding = None
                self.out_seq += 1
        owed = self.c_value - self.transferred - self._given_up
        if self.parent is None:
            # The root "forwards" into its discard bin, one per round is
            # unnecessary — drain what is owed as supply arrives.
            while owed > 0 and self.buffer:
                self.discarded.append(self.buffer.popleft())
                self.transferred += 1
                owed -= 1
        elif self.outstanding is None and owed > 0 and self.buffer:
            token = self.buffer.popleft()
            self.outstanding = (self.out_seq, token)
            self._queue(
                self.parent,
                _TK,
                (self.out_seq, token),
                self.token_bits + self._seq_bits,
            )
            self._tok_attempts = 1
            self._tok_last = r

    def _finish_packaging(self, ctx: Context) -> None:
        assert self.c_value is not None
        if self.outstanding is not None:
            self._given_up += 1
            self.outstanding = None
        shortfall = max(0, self.c_value - self.transferred)
        held = list(self.buffer)
        n_pkg = len(held) // self.tau
        packages = tuple(
            tuple(held[i * self.tau: (i + 1) * self.tau])
            for i in range(n_pkg)
        )
        leftover = tuple(held[n_pkg * self.tau:]) + tuple(self.discarded)
        self.packaged = True
        self._on_packaged(ctx, packages, leftover, shortfall)

    def _on_packaged(
        self,
        ctx: Context,
        packages: Tuple[Tuple[int, ...], ...],
        leftover: Tuple[int, ...],
        shortfall: int,
    ) -> None:
        """Packaging finished; the standalone protocol reports and halts.
        The tester subclass overrides this to continue with the vote."""
        self._result = HardenedPackagingOutcome(
            packages=packages,
            leftover=leftover,
            is_root=self.is_root,
            shortfall=shortfall,
            missing_count_children=self.missing_count_children,
            late_children=self.late_children,
            claim_acked=self.claim_acked or self.parent is None,
        )
        self._done = True


def run_hardened_packaging(
    topology: Topology,
    tokens: Sequence[int],
    tau: int,
    token_bits: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
    d_hint: Optional[int] = None,
    rng: SeedLike = None,
) -> Tuple[List[Optional[HardenedPackagingOutcome]], EngineReport]:
    """Run hardened τ-token packaging; returns per-node outcomes + report.

    Crashed nodes never halt, so their outcome slot is ``None``.  On a
    fault-free network the realised packaging satisfies Definition 2
    exactly (the give-up paths never trigger); under faults the outcomes
    report shortfalls and missing subtrees instead of raising.
    """
    if len(tokens) != topology.k:
        raise ParameterError(
            f"need one token per node: {len(tokens)} tokens, k={topology.k}"
        )
    policy = policy or RetryPolicy()
    if token_bits is None:
        token_bits = bits_for_int(max(int(t) for t in tokens))
    if d_hint is None:
        d_hint = topology.diameter_upper_bound()
    schedule = PhaseSchedule.build(d_hint, tau, policy)
    engine = SynchronousEngine(
        topology,
        bandwidth_bits=hardened_bandwidth(token_bits, topology.k, tau),
        max_rounds=schedule.tokens_end + 4,
        deadlock_quiet_rounds=max(8, tau + 6),
        faults=faults,
        phase_names=("flood", "claim_count", "tokens"),
    )
    report = engine.run(
        lambda v: HardenedTokenPackagingProgram(
            node_id=v,
            k=topology.k,
            tau=tau,
            token=int(tokens[v]),
            token_bits=token_bits,
            schedule=schedule,
            policy=policy,
        ),
        rng,
    )
    return list(report.outputs), report


@dataclass(frozen=True)
class HardenedTesterOutcome:
    """One node's output from the hardened CONGEST tester."""

    decision: Optional[bool]
    is_root: bool
    packages: int
    alarms: int
    shortfall: int
    missing_count_children: Tuple[int, ...]
    missing_vote_children: Tuple[int, ...]
    unheard: bool
    threshold_infeasible: bool = False


class HardenedCongestTesterProgram(HardenedTokenPackagingProgram):
    """Hardened packaging extended with the vote and verdict phases.

    The reject-vote convergecast degrades gracefully: at the vote
    deadline a parent counts a silent subtree as ``(0 alarms, 0
    packages)`` and reports it; the root thresholds the alarm count
    against the *realised* package total, so lost evidence widens the
    confidence interval instead of biasing the verdict.  A node that
    never hears the broadcast verdict rejects by default (``unheard``).
    """

    def __init__(
        self,
        node_id: int,
        k: int,
        params: CongestParameters,
        token: "int | Sequence[int]",
        token_bits: int,
        schedule: PhaseSchedule,
        policy: RetryPolicy,
    ) -> None:
        super().__init__(
            node_id=node_id,
            k=k,
            tau=params.tau,
            token=token,
            token_bits=token_bits,
            schedule=schedule,
            policy=policy,
        )
        self.params = params
        self._vote_bits = 2 * bits_for_int(k)
        self.my_alarms = 0
        self.my_packages = 0
        # Realised-layout instrumentation, read by the trial plane's
        # pack-then-replay extraction (which captures the program objects,
        # so these survive even for nodes that crash before halting):
        # the literal token tuples packaged here, and the children whose
        # votes were folded into ours at vote time (entries arriving
        # after the fold are acked but never counted — reconstructing
        # this from the final ``votes_received`` would over-count).
        self.package_contents: Tuple[Tuple[int, ...], ...] = ()
        self.vote_included: Tuple[int, ...] = ()
        self.shortfall = 0
        self.votes_received: Dict[int, Tuple[int, int]] = {}
        self.vote_sent = False
        self.vote_acked = False
        self.vote_giveup = False
        self.missing_vote_children: Tuple[int, ...] = ()
        self._vote_attempts = 0
        self._vote_last = -(1 << 30)
        self.vote_alarms = 0
        self.vote_packages = 0
        self.decision: Optional[bool] = None
        self.unheard = False
        self.threshold_infeasible = False
        self._decide_pending: Optional[Set[int]] = None
        self._decide_acks: Set[int] = set()
        self._decide_attempts = 0
        self._decide_last = -(1 << 30)
        self._decide_done = False

    # -- subframes ---------------------------------------------------------

    def _handle(
        self, ctx: Context, src: int, kind: str, payload: Any, r: int
    ) -> None:
        if kind == _VT:
            self._register_child(src)
            if src not in self.votes_received:
                self.votes_received[src] = (int(payload[0]), int(payload[1]))
            self._queue(src, _VTA, None, 1)
        elif kind == _VTA:
            self.vote_acked = True
        elif kind == _DC:
            if self.decision is None:
                self.decision = bool(payload)
            self._queue(src, _DCA, None, 1)
        elif kind == _DCA:
            self._decide_acks.add(src)
        else:
            super()._handle(ctx, src, kind, payload, r)

    # -- phases ------------------------------------------------------------

    def _on_packaged(self, ctx, packages, leftover, shortfall) -> None:
        self.my_packages = len(packages)
        self.package_contents = packages
        self.shortfall = shortfall
        for package in packages:
            if len(set(package)) < len(package):
                self.my_alarms += 1
        # Vote phase proceeds from _tick; nothing to send yet this round.

    def _decide_root(self) -> None:
        """Root verdict from the realised evidence (missing subtrees have
        already been excluded from both totals)."""
        if self.vote_packages == 0:
            # No packages survived: no evidence either way.  Reject — the
            # conservative verdict for a tester whose job is to catch
            # deviation — and flag that the threshold was unplaceable.
            self.decision = False
            self.threshold_infeasible = True
            return
        try:
            threshold = self.params.threshold_for(self.vote_packages)
        except InfeasibleParametersError:
            self.decision = False
            self.threshold_infeasible = True
            return
        self.decision = self.vote_alarms < threshold

    def _tick(self, ctx: Context, r: int) -> None:
        super()._tick(ctx, r)
        s = self.schedule
        p = self.policy
        if not self.packaged:
            return
        # Vote convergecast (same ack/retransmit scheme as counts).
        if not self.vote_sent:
            waiting = self.children - set(self.votes_received)
            if not waiting or r >= s.vote_last_call:
                self.missing_vote_children = tuple(sorted(waiting))
                self.vote_included = tuple(sorted(self.votes_received))
                self.vote_alarms = self.my_alarms + sum(
                    a for a, _ in self.votes_received.values()
                )
                self.vote_packages = self.my_packages + sum(
                    q for _, q in self.votes_received.values()
                )
                self.vote_sent = True
                if self.parent is None:
                    self.vote_acked = True
                    self._decide_root()
                else:
                    self._queue(
                        self.parent,
                        _VT,
                        (self.vote_alarms, self.vote_packages),
                        self._vote_bits,
                    )
                    self._vote_attempts = 1
                    self._vote_last = r
        elif (
            self.parent is not None
            and not self.vote_acked
            and not self.vote_giveup
            and r - self._vote_last >= p.timeout
        ):
            if self._vote_attempts < p.attempts:
                self._queue(
                    self.parent,
                    _VT,
                    (self.vote_alarms, self.vote_packages),
                    self._vote_bits,
                )
                self._vote_attempts += 1
                self._vote_last = r
            else:
                self.vote_giveup = True
        # Verdict broadcast down the tree, child-acked.
        if self.decision is not None and not self._decide_done:
            if self._decide_pending is None:
                self._decide_pending = set(self.children)
                self._decide_attempts = 0
                self._decide_last = -(1 << 30)
            pending = self._decide_pending - self._decide_acks
            if not pending:
                self._decide_done = True
            elif r - self._decide_last >= p.timeout:
                if self._decide_attempts < p.attempts:
                    for child in sorted(pending):
                        self._queue(child, _DC, self.decision, 1)
                    self._decide_attempts += 1
                    self._decide_last = r
                else:
                    # Unreached children will default-reject at decide_end.
                    self._decide_done = True
        # Halting: verdict known and relayed, or the hard deadline.
        if self.decision is not None and self._decide_done:
            self._finish(ctx)
        elif r >= s.decide_end:
            if self.decision is None:
                self.decision = False
                self.unheard = True
            self._decide_done = True
            self._finish(ctx)

    def _finish(self, ctx: Context) -> None:
        self._result = HardenedTesterOutcome(
            decision=self.decision,
            is_root=self.is_root,
            packages=self.my_packages,
            alarms=self.my_alarms,
            shortfall=self.shortfall,
            missing_count_children=self.missing_count_children,
            missing_vote_children=self.missing_vote_children,
            unheard=self.unheard,
            threshold_infeasible=self.threshold_infeasible,
        )
        self._done = True


@dataclass(frozen=True)
class HardenedRunResult:
    """Network-level summary of one hardened tester execution.

    ``verdict`` is the global root's decision (node ``k-1`` wins the
    election whenever it is alive) or ``None`` if it crashed.
    ``agreement`` is the fraction of surviving nodes whose decision
    matches the verdict — 1.0 on any run where the broadcast got
    through.  The counters aggregate the per-node degradation reports.
    """

    verdict: Optional[bool]
    agreement: float
    report: EngineReport
    outcomes: Tuple[Optional[HardenedTesterOutcome], ...]
    missing_subtrees: int
    shortfall: int
    unheard: int

    @property
    def total_packages(self) -> int:
        return sum(o.packages for o in self.outcomes if o is not None)


@dataclass(frozen=True)
class HardenedCongestTester:
    """Fault-tolerant runner for the Theorem 1.4 protocol.

    Same parameter solve as :class:`~repro.congest.tester.\
CongestUniformityTester`; the execution swaps the quiet-round protocol
    for the hardened one and accepts a :class:`FaultPlan`.
    """

    params: CongestParameters
    policy: RetryPolicy = field(default_factory=RetryPolicy)

    @staticmethod
    def solve(
        n: int,
        k: int,
        eps: float,
        p: float = 1.0 / 3.0,
        samples_per_node: int = 1,
        policy: Optional[RetryPolicy] = None,
    ) -> "HardenedCongestTester":
        return HardenedCongestTester(
            params=congest_parameters(n, k, eps, p, samples_per_node),
            policy=policy or RetryPolicy(),
        )

    def run(
        self,
        topology: Topology,
        distribution: DiscreteDistribution,
        rng: SeedLike = None,
        faults: Optional[FaultPlan] = None,
        d_hint: Optional[int] = None,
    ) -> HardenedRunResult:
        """One full hardened execution; bit-reproducible per (rng, plan)."""
        if topology.k != self.params.k:
            raise ParameterError(
                f"tester solved for k={self.params.k}, topology has "
                f"{topology.k}"
            )
        if distribution.n != self.params.n:
            raise ParameterError(
                f"tester solved for n={self.params.n}, distribution has "
                f"{distribution.n}"
            )
        gen = ensure_rng(rng)
        s = self.params.samples_per_node
        samples = distribution.sample_matrix(topology.k, s, gen)
        return self.run_from_samples(
            topology, samples, faults=faults, d_hint=d_hint, rng=gen
        )

    def run_from_samples(
        self,
        topology: Topology,
        samples: Any,
        faults: Optional[FaultPlan] = None,
        d_hint: Optional[int] = None,
        rng: SeedLike = None,
        _capture_programs: Optional[List[Any]] = None,
    ) -> HardenedRunResult:
        """Execute the hardened protocol on a fixed ``(k, s)`` sample matrix.

        The deterministic tail of :meth:`run`: the protocol uses no node
        randomness and the :class:`FaultPlan` makes its drop/delay/crash
        decisions from pure hashes of ``(seed, edge, round, index)``, so
        for fixed samples and plan the run — including the realised
        message schedule and packaging layout — is bit-reproducible.
        ``_capture_programs`` (internal; used by the trial plane's
        pack-then-replay extraction) collects the per-node program
        objects so instrumented layout state is readable even for nodes
        that crashed before producing an outcome.
        """
        samples = np.asarray(samples)
        s = self.params.samples_per_node
        if samples.shape != (topology.k, s):
            raise ParameterError(
                f"expected a ({topology.k}, {s}) sample matrix, got "
                f"{samples.shape}"
            )
        tokens = samples.tolist()
        token_bits = bits_for_domain(self.params.n)
        if d_hint is None:
            d_hint = topology.diameter_upper_bound()
        schedule = PhaseSchedule.build(d_hint, self.params.tau, self.policy)
        engine = SynchronousEngine(
            topology,
            bandwidth_bits=hardened_bandwidth(
                token_bits, topology.k, self.params.tau
            ),
            max_rounds=schedule.decide_end + 4,
            deadlock_quiet_rounds=max(8, self.params.tau + 6),
            faults=faults,
            phase_names=("flood", "claim_count", "tokens", "vote_decide"),
        )

        def factory(v: int) -> HardenedCongestTesterProgram:
            program = HardenedCongestTesterProgram(
                node_id=v,
                k=topology.k,
                params=self.params,
                token=tokens[v],
                token_bits=token_bits,
                schedule=schedule,
                policy=self.policy,
            )
            if _capture_programs is not None:
                _capture_programs.append(program)
            return program

        report = engine.run(factory, rng)
        outcomes: Tuple[Optional[HardenedTesterOutcome], ...] = tuple(
            report.outputs
        )
        root_out = outcomes[topology.k - 1]
        verdict = None if root_out is None else root_out.decision
        alive = [o for o in outcomes if o is not None]
        agreeing = sum(1 for o in alive if o.decision == verdict)
        return HardenedRunResult(
            verdict=verdict,
            agreement=agreeing / len(alive) if alive else 0.0,
            report=report,
            outcomes=outcomes,
            missing_subtrees=sum(
                len(o.missing_vote_children) for o in alive
            ),
            shortfall=sum(o.shortfall for o in alive),
            unheard=sum(1 for o in alive if o.unheard),
        )

    def estimate_error(
        self,
        topology: Topology,
        distribution: DiscreteDistribution,
        is_uniform: bool,
        trials: int,
        rng: SeedLike = None,
        faults: Optional[FaultPlan] = None,
        workers: int = 1,
        fast_path: bool = True,
        engine_check: float = 0.0,
        d_hint: Optional[int] = None,
    ) -> float:
        """Monte-Carlo error rate under one **fixed** :class:`FaultPlan`.

        A trial errs when the network verdict disagrees with
        ``is_uniform`` (a ``None`` verdict — the root crashed — counts as
        an error on either side).  The seed-like ``rng`` (``None`` or an
        int) keys the trial engine's chunk streams.

        ``fast_path`` (default on) uses pack-then-replay: because the
        plan's fault decisions are pure functions of ``(seed, edge,
        round, index)`` — never of message payloads — the realised
        packaging layout and the set of subtree votes the root counts
        are identical across sample redraws.  One instrumented engine
        run under the plan extracts that layout
        (:class:`~repro.congest.trial_plane.RealisedLayout`); every trial
        then reduces to a numpy collision pass over its sample matrix,
        bit-identical per trial to the engine route, which
        ``engine_check`` audits
        (:class:`~repro.experiments.runner.AuditedPlane`).

        This replay is only sound for a plan that is fixed across
        trials.  Sweeps that re-key the plan per trial (e.g. E14's
        ``robustness_sweep``) go through the vectorized fault plane
        instead (:class:`~repro.congest.fault_plane.HardenedFaultPlane`),
        which replays one trial per plan — hardened control flow and
        all — without instantiating nodes.
        """
        from repro.experiments.runner import TrialRunner, seed_of

        base_seed = seed_of(rng, trials)
        if fast_path:
            from repro.congest.trial_plane import HardenedTrialRunner

            runner = HardenedTrialRunner.build(
                self, topology, faults=faults, d_hint=d_hint
            )
            return runner.error_rate(
                distribution,
                is_uniform,
                trials,
                base_seed=base_seed,
                workers=workers,
                engine_check=engine_check,
            )
        experiment = _HardenedTrialExperiment(
            tester=self,
            topology=topology,
            distribution=distribution,
            is_uniform=is_uniform,
            faults=faults,
            d_hint=d_hint,
        )
        return TrialRunner(base_seed=base_seed).error_rate(
            experiment, trials, "hardened", topology.k, workers=workers
        ).rate


@dataclass(frozen=True)
class _HardenedTrialExperiment:
    """Picklable scalar experiment: one hardened run under a fixed plan;
    ``True`` = the verdict disagrees with ``is_uniform`` (``None`` errs)."""

    tester: HardenedCongestTester
    topology: Topology
    distribution: DiscreteDistribution
    is_uniform: bool
    faults: Optional[FaultPlan] = None
    d_hint: Optional[int] = None

    def __call__(self, rng: np.random.Generator) -> bool:
        result = self.tester.run(
            self.topology,
            self.distribution,
            rng,
            faults=self.faults,
            d_hint=self.d_hint,
        )
        expected = True if self.is_uniform else False
        return result.verdict is not expected
