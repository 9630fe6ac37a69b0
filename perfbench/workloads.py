"""The four benchmark operations, each one whole user call sequence.

Every operation builds fresh objects, runs its phases in the order a user
would, and checks its outputs against references computed here:

- ``setup``: everything before the first trial (solvers, topology, tree
  schedule, layouts, encoding).
- ``trials``: fast-path ``estimate_error`` calls with the audit off.
- ``audit``: one audited call on a fixed short prefix with
  ``engine_check=1.0`` (or, for the zero-round testers, which have no
  audit flag, the scalar object-model replay of the same prefix).
- the rest (cold full-protocol run, robustness sweep, further radii) only
  counts towards the operation's whole wall time.

Monte-Carlo counts are compared with :mod:`oracle` by an exact binomial
test; structural outputs (CONGEST layout, LOCAL MIS and catchments, SMP
codewords) are checked against properties recomputed from scratch.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

import oracle
from layers import Clock


@dataclass
class Record:
    """Timings, tallies and check failures of one operation."""

    setup_end: float = 0.0
    sweep_s: float = 0.0
    setup_s: float = 0.0
    trial_s: float = 0.0
    trials: int = 0
    audit_s: float = 0.0
    #: Program calls that are neither set-up, trials nor the audit.
    other_s: float = 0.0
    messages: int = 0
    message_s: float = 0.0
    #: Time spent in the benchmark's own reference computations, taken
    #: out of ``sweep_s`` so that only the program's work is timed.
    check_s: float = 0.0
    #: (key, failures, trials, exact error) per Monte-Carlo call.
    tallies: List[Tuple[str, int, int, float]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: Wall time of each named step of the program's work, keyed by
    #: (phase, step); every operation of a workload has the same steps.
    steps: Dict[Tuple[str, str], float] = field(default_factory=dict)

    @contextmanager
    def timed(self, phase: str, step: str = ""):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            setattr(self, phase, getattr(self, phase) + elapsed)
            if phase != "check_s":
                key = (phase, step or phase)
                self.steps[key] = self.steps.get(key, 0.0) + elapsed
            if phase == "setup_s":
                self.setup_end = time.perf_counter()

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def tally(self, key: str, rate: float, trials: int, exact: float) -> None:
        """Record a Monte-Carlo error rate and test it against *exact*."""
        with self.timed("check_s"):
            failures = int(round(rate * trials))
            self.tallies.append((key, failures, trials, exact))
            self.check(
                oracle.agrees(failures, trials, exact),
                f"{key}: {failures}/{trials} errors vs exact {exact:.5f}",
            )


class DrawCounter:
    """Checks a trial call's sample draws against its solved parameters.

    Reads the traced run's clock; a no-op in the untraced run, whose
    clock only taps the engine.
    """

    def __init__(self, clock: Clock, traced: bool, record: Record, counter: str) -> None:
        self.clock = clock if traced else None
        self.record, self.counter = record, counter

    @contextmanager
    def expect(self, label: str, draws: int):
        before = self.clock.counts[self.counter] if self.clock else 0
        yield
        if self.clock is not None:
            got = self.clock.counts[self.counter] - before
            self.record.check(
                got == draws, f"{label}: {got} {self.counter}, expected {draws}"
            )


def _l1_to_uniform(probs: np.ndarray) -> float:
    return float(np.abs(probs - 1.0 / probs.size).sum())


def _far(family: str, n: int, eps: float, seed: int, record: Record):
    from repro import far_family

    dist = far_family(family, n, eps, rng=seed)
    record.check(
        abs(_l1_to_uniform(dist.probs) - eps) < 1e-9,
        f"{family} input is not {eps}-far from uniform",
    )
    return dist


# ---------------------------------------------------------------------------
# zero_round: Theorems 1.1 (E2) and 1.2 (E3)
# ---------------------------------------------------------------------------

ZR_N = 50_000
AND_K, AND_EPS, AND_P = 1024, 1.0, 0.45
THR_K, THR_EPS, THR_P = 10_000, 0.9, 1.0 / 3.0
AND_TRIALS, THR_TRIALS = 192, 4


def zero_round(seed: int, clock: Clock, traced: bool) -> Record:
    from repro import AndRuleNetworkTester, ThresholdNetworkTester, uniform
    from repro.experiments.runner import TrialRunner
    from repro.zeroround import AndNetworkErrorKernel

    rec = Record()
    draws = DrawCounter(clock, traced, rec, "distributions.samples")
    with rec.timed("setup_s"):
        and_tester = AndRuleNetworkTester.solve(ZR_N, AND_K, AND_EPS, AND_P)
        thr_tester = ThresholdNetworkTester.solve(ZR_N, THR_K, THR_EPS, THR_P)
        dists = {
            "uniform": (uniform(ZR_N), True),
            # A 1-far input is also 0.9-far, so both theorems cover it.
            "paninski": (_far("paninski", ZR_N, AND_EPS, seed, rec), False),
            "support": (_far("support", ZR_N, AND_EPS, seed, rec), False),
        }
    a, t = and_tester.params, thr_tester.params
    runs = [
        ("and", and_tester, AND_TRIALS, a.k * a.m * a.s_per_repetition, AND_P,
         lambda cf: oracle.and_rule_reject(cf, a.k, a.m), a.s_per_repetition),
        ("threshold", thr_tester, THR_TRIALS, t.k * t.s, THR_P,
         lambda cf: oracle.threshold_reject(cf, t.k, t.threshold), t.s),
    ]
    for offset, (name, (dist, is_uniform)) in enumerate(dists.items()):
        for rule, tester, trials, per_trial, p, reject, s in runs:
            with rec.timed("trial_s", f"{rule}/{name}"), draws.expect(
                f"{rule}/{name}", trials * per_trial
            ):
                rate = tester.estimate_error(dist, is_uniform, trials, rng=seed + offset)
            rec.trials += trials
            with rec.timed("check_s"):
                exact = oracle.network_error(
                    reject(oracle.collision_free(dist.probs, s)), is_uniform
                )
            rec.check(exact <= p, f"{rule}/{name}: exact error {exact:.4f} > p={p}")
            rec.tally(f"{rule}/{name}", rate, trials, exact)

    # Audit: the Theorem 1.1 object model (one tester object per node) on
    # the first trial of the uniform sweep's stream, flag for flag.
    u = dists["uniform"][0]
    network = and_tester.as_network()
    with rec.timed("audit_s"):
        scalar = TrialRunner(base_seed=seed).run_flags(
            lambda rng: not network.run(u, rng).accepted, 1, "and_rule", a.k
        )
    with rec.timed("check_s"):
        batched = TrialRunner(base_seed=seed).run_flags_batched(
            AndNetworkErrorKernel(u, a.k, a.m, a.s_per_repetition, True), 1, "and_rule", a.k
        )
    rec.check(
        np.array_equal(scalar, batched), "and/uniform: scalar network disagrees with kernel"
    )
    # The object model sends one verdict bit per node to the referee.
    rec.messages, rec.message_s = a.k, rec.audit_s
    return rec


# ---------------------------------------------------------------------------
# congest: Theorem 1.4 on grid(50, 60) (E6) + the E14 robustness sweep
# ---------------------------------------------------------------------------

CG_N, CG_EPS, CG_P = 500, 0.9, 1.0 / 3.0
CG_ROWS, CG_COLS = 50, 60
CG_TRIALS, CG_AUDIT_TRIALS = 512, 2
#: Cold rounds must stay within ROUND_CONSTANT · (D + τ); the protocol's
#: phases are flooding, two convergecasts, the τ-round token pipeline and
#: a vote convergecast plus decision broadcast, each O(D) or O(τ).
ROUND_CONSTANT = 5
E14 = dict(n=200, k=60, eps=0.9, samples_per_node=64, topology="grid",
           drop_probs=(0.0, 0.05), crash_fractions=(0.0, 0.1), trials=16)


def _check_packaging(rec: Record, layout, k: int, s: int, tau: int) -> None:
    slots = np.concatenate([layout.members.reshape(-1), np.asarray(layout.dropped, dtype=np.int64)])
    rec.check(
        layout.virtual_nodes * tau + len(layout.dropped) == k * s,
        f"packaging loses tokens: {layout.virtual_nodes}·{tau} + "
        f"{len(layout.dropped)} != {k * s}",
    )
    rec.check(
        np.array_equal(np.sort(slots), np.arange(k * s)),
        "packaging does not place every token slot exactly once",
    )
    rec.check(len(layout.dropped) < tau, "root dropped tau or more tokens")


def congest(seed: int, clock: Clock, traced: bool) -> Record:
    from repro import uniform
    from repro.congest import CongestTrialRunner, CongestUniformityTester, congest_parameters
    from repro.experiments import robustness_sweep
    from repro.simulator import Topology

    rec = Record()
    draws = DrawCounter(clock, traced, rec, "distributions.samples")
    k = CG_ROWS * CG_COLS
    with rec.timed("setup_s"):
        topo = Topology.grid(CG_ROWS, CG_COLS)
        tester = CongestUniformityTester.solve(CG_N, k, CG_EPS, CG_P)
        runner = CongestTrialRunner.build(tester, topo)
        u = uniform(CG_N)
        far = _far("paninski", CG_N, CG_EPS, seed, rec)
    params, layout = tester.params, runner.layout
    with rec.timed("check_s"):
        _check_packaging(rec, layout, k, params.samples_per_node, params.tau)
    ell = layout.virtual_nodes
    for offset, (name, dist, is_uniform) in enumerate(
        (("uniform", u, True), ("paninski", far, False)), start=1
    ):
        per_trial = k * params.samples_per_node
        with rec.timed("trial_s", name), draws.expect(f"congest/{name}", CG_TRIALS * per_trial):
            rate = tester.estimate_error(
                topo, dist, is_uniform, CG_TRIALS, rng=seed + offset, fast_path=True
            )
        rec.trials += CG_TRIALS
        with rec.timed("check_s"):
            exact = oracle.network_error(
                oracle.threshold_reject(
                    oracle.collision_free(dist.probs, params.tau), ell, runner.threshold
                ),
                is_uniform,
            )
        rec.check(exact <= CG_P, f"congest/{name}: exact error {exact:.4f} > p")
        rec.tally(f"congest/{name}", rate, CG_TRIALS, exact)

    with rec.timed("audit_s"):
        tester.estimate_error(
            topo, u, True, CG_AUDIT_TRIALS, rng=seed + 1, fast_path=True, engine_check=1.0
        )

    # The measurement of record: one cold run of the whole protocol.
    with rec.timed("other_s", "cold_run"):
        accepted, report = tester.run(topo, u, rng=seed + 3)
    rec.message_s = rec.steps[("other_s", "cold_run")]
    rec.messages = report.messages
    diameter = CG_ROWS + CG_COLS - 2
    rec.check(
        report.rounds <= ROUND_CONSTANT * (diameter + params.tau),
        f"cold run took {report.rounds} rounds > {ROUND_CONSTANT}·(D+tau)",
    )
    with rec.timed("check_s"):
        plane_verdict = runner.verdicts_for_seeds(u, [seed + 3])[0]
    rec.check(accepted == plane_verdict, "cold engine verdict disagrees with the trial plane")

    with rec.timed("other_s", "robustness"):
        points = robustness_sweep(
            **E14, base_seed=seed, fast_path=True, engine_check=1.0 / E14["trials"]
        )
    # Fault-free, the hardened root thresholds on all floor(k·s/τ) packages.
    with rec.timed("check_s"):
        e14 = congest_parameters(
            E14["n"], E14["k"], E14["eps"], CG_P, E14["samples_per_node"]
        )
        packages = E14["k"] * E14["samples_per_node"] // e14.tau
        threshold = e14.threshold_for(packages)
        e14_dists = {
            "uniform": (np.full(E14["n"], 1.0 / E14["n"]), True),
            "paninski": (_far("paninski", E14["n"], E14["eps"], seed, rec).probs, False),
        }
        exact = {
            name: oracle.network_error(
                oracle.threshold_reject(
                    oracle.collision_free(probs, e14.tau), packages, threshold
                ),
                is_uniform,
            )
            for name, (probs, is_uniform) in e14_dists.items()
        }
    for point in points:
        rec.check(point.no_verdict == 0, "robustness sweep lost a verdict")
        if point.drop_prob == 0.0 and point.crash_fraction == 0.0:
            rec.tally("e14/uniform", point.error_uniform, point.trials, exact["uniform"])
            rec.tally("e14/paninski", point.error_far, point.trials, exact["paninski"])
    return rec


# ---------------------------------------------------------------------------
# local: the Section 6 LOCAL tester on ring(4096) (E7)
# ---------------------------------------------------------------------------

LC_N, LC_EPS, LC_P, LC_K = 20_000, 1.0, 0.45, 4096
LC_TRIALS, LC_AUDIT_TRIALS = 256, 2
LC_E7_RADIUS = 64
#: The doubling search starts here.  From the default start of 2 it
#: certifies r = 8 on about one seed in twelve and r = 16 otherwise, which
#: would make the operation's cost depend on the seed; r = 16 is feasible
#: on every seed tried (80 of 80).
LC_START_RADIUS = 16


def _ring_distance(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    gap = np.abs(a - b) % k
    return np.minimum(gap, k - gap)


def _check_local_layout(rec: Record, layout, k: int, r: int) -> None:
    """MIS of the ring's power graph G^r and its catchments, from distances."""
    mis = np.flatnonzero(layout.membership)
    rec.check(mis.size > 0, f"r={r}: empty MIS")
    gaps = np.diff(np.concatenate([mis, [mis[0] + k]]))
    rec.check(bool((gaps > r).all()) or mis.size == 1, f"r={r}: MIS not independent in G^r")
    rec.check(bool((gaps <= 2 * r + 1).all()), f"r={r}: MIS not maximal in G^r")
    owner = np.asarray(layout.gather.owner, dtype=np.int64)
    nodes = np.arange(k)
    nearest = _ring_distance(nodes[:, None], mis[None, :], k).min(axis=1)
    rec.check(bool(layout.membership[owner].all()), f"r={r}: catchment owner outside MIS")
    rec.check(
        bool((_ring_distance(nodes, owner, k) == nearest).all() and (nearest <= r).all()),
        f"r={r}: a node is not routed to its nearest MIS node within r hops",
    )
    piles = np.concatenate([np.asarray(p) for p in layout.gather.samples_at.values()])
    rec.check(
        np.array_equal(np.sort(piles), nodes), f"r={r}: catchments do not partition the nodes"
    )
    rec.check(layout.min_catchment >= r / 2, f"r={r}: catchment below r/2 samples")


def local(seed: int, clock: Clock, traced: bool) -> Record:
    from repro import uniform
    from repro.localmodel import LocalTrialRunner, LocalUniformityTester
    from repro.simulator import Topology

    rec = Record()
    draws = DrawCounter(clock, traced, rec, "distributions.driver_draws")
    # `repro local --fast-path` sweeps at seed + 1 and seed + 2, whose MIS
    # differ from the one choose_radius certified at seed, and fails on
    # the seeds where one of them is infeasible at that radius.  Every
    # call here uses the one seed, so each sweep runs on the certified plan.
    with rec.timed("setup_s"):
        ring = Topology.ring(LC_K)
        tester = LocalUniformityTester(n=LC_N, eps=LC_EPS, p=LC_P)
        radius = tester.choose_radius(
            ring, rng=seed, start=LC_START_RADIUS, fast_path=True
        )
        # The plan `repro local` prints before its sweeps.
        LocalTrialRunner.build(tester, ring, radius, base_seed=seed)
        u = uniform(LC_N)
        far = _far("paninski", LC_N, LC_EPS, seed, rec)

    def sweep(r: int, label: str) -> None:
        for name, dist, is_uniform in (("uniform", u, True), ("paninski", far, False)):
            with rec.timed("trial_s", f"{label}/{name}"), draws.expect(
                f"local/{name}", LC_TRIALS * LC_K
            ):
                rate = tester.estimate_error(
                    ring, dist, is_uniform, r, LC_TRIALS, rng=seed, fast_path=True
                )
            rec.trials += LC_TRIALS
            with rec.timed("check_s"):
                runner = LocalTrialRunner.build(tester, ring, r, base_seed=seed)
                _check_local_layout(rec, runner.layout, LC_K, runner.layout.radius)
                params = runner.params
                exact = oracle.network_error(
                    oracle.and_rule_reject(
                        oracle.collision_free(dist.probs, params.s_per_repetition),
                        runner.layout.mis_size,
                        params.m,
                    ),
                    is_uniform,
                )
            rec.check(exact <= LC_P, f"local/{name} r={r}: exact error {exact:.4f} > p")
            rec.tally(f"local/{name}", rate, LC_TRIALS, exact)

    sweep(radius, "chosen")
    messages, engine_s = clock.counts["simulator.messages"], clock.times["simulator.engine_s"]
    with rec.timed("audit_s"):
        tester.estimate_error(
            ring, u, True, radius, LC_AUDIT_TRIALS, rng=seed,
            fast_path=True, engine_check=1.0,
        )
    # The audit's engine run of Luby's MIS on G^r.
    rec.messages = clock.counts["simulator.messages"] - messages
    rec.message_s = clock.times["simulator.engine_s"] - engine_s
    with rec.timed("other_s", "e7_plan"):
        LocalTrialRunner.build(tester, ring, LC_E7_RADIUS, base_seed=seed)
    sweep(LC_E7_RADIUS, "e7")
    return rec


# ---------------------------------------------------------------------------
# smp: the Lemma 7.3 torus protocol and the Theorem 7.1 BCG reduction (E17)
# ---------------------------------------------------------------------------

SMP_BITS, SMP_DELTA, SMP_TAU = 256, 0.05, 2.0
SMP_PAIRS, SMP_TRIALS, SMP_AUDIT_TRIALS = 8, 4096, 64


def smp(seed: int, clock: Clock, traced: bool) -> Record:
    from repro.core.collision import CollisionGapTester
    from repro.smp import BCGMapping, EqualityProtocol, TesterBasedEqualityProtocol

    rec = Record()
    draws = DrawCounter(clock, traced, rec, "distributions.driver_draws")
    gen = np.random.default_rng(seed)
    with rec.timed("setup_s"):
        torus = EqualityProtocol.build(SMP_BITS, delta=SMP_DELTA, tau=SMP_TAU)
        mapping = BCGMapping(code=torus.code)
        tester = CollisionGapTester.from_delta(mapping.domain_size, SMP_DELTA)
        bcg = TesterBasedEqualityProtocol(mapping=mapping, tester=tester)
    code, side, t = torus.code, torus.side, torus.chunk_length
    q, domain = tester.samples_required, mapping.domain_size
    stated_distance = math.ceil(code.relative_distance * code.codeword_bits - 1e-9)
    bcg_equal_error = 1.0 - oracle.collision_free_uniform(domain, q)
    rec.check(bcg_equal_error <= SMP_DELTA, "BCG completeness error exceeds delta")
    pairs = []
    for pair in range(SMP_PAIRS):
        x = gen.integers(0, 2, size=SMP_BITS)
        y = x.copy()
        y[int(gen.integers(SMP_BITS))] ^= 1
        pairs.append((x, y))
        with rec.timed("check_s"):
            cx, cy, cxy = (np.asarray(code.encode(v)) for v in (x, y, x ^ y))
            d = int((cx != cy).sum())
            torus_reject = (t / side) ** 2 * d / side**2
            # μ_X sits on (i, C(x)_i) and μ_Y on (i, 1 − C(y)_i), as 2i + bit.
            positions = 2 * np.arange(cx.size)
            mixture = np.zeros(domain)
            np.add.at(mixture, positions + cx, 0.5 / cx.size)
            np.add.at(mixture, positions + 1 - cy, 0.5 / cx.size)
            bcg_far_error = oracle.collision_free(mixture, q)
        rec.check(np.array_equal(cx ^ cy, cxy), "code is not linear: C(x)^C(y) != C(x^y)")
        rec.check(d >= stated_distance, f"codeword distance {d} < stated {stated_distance}")
        rec.check(torus_reject >= SMP_TAU * SMP_DELTA, "torus rejection below tau*delta")
        cases = (
            ("torus/equal", torus, x, x, 0.0, 0),
            ("torus/unequal", torus, x, y, 1.0 - torus_reject, 0),
            ("bcg/equal", bcg, x, x, bcg_equal_error, 3 * q),
            ("bcg/unequal", bcg, x, y, bcg_far_error, 3 * q),
        )
        for offset, (key, protocol, a, b, exact, per_trial) in enumerate(cases):
            with rec.timed("trial_s", f"{key}/{pair}"), draws.expect(key, SMP_TRIALS * per_trial):
                rate = protocol.estimate_error(
                    a, b, SMP_TRIALS, rng=seed + 4 * pair + offset, fast_path=True
                )
            rec.trials += SMP_TRIALS
            rec.tally(key, rate, SMP_TRIALS, exact)

    x, y = pairs[0]
    with rec.timed("audit_s"):
        for offset, protocol in enumerate((torus, bcg)):
            protocol.estimate_error(
                x, y, SMP_AUDIT_TRIALS, rng=seed + offset, fast_path=True, engine_check=1.0
            )
    # Each scalar execution carries one message from each player.
    rec.messages, rec.message_s = 2 * 2 * SMP_AUDIT_TRIALS, rec.audit_s
    return rec


WORKLOADS = {"zero_round": zero_round, "congest": congest, "local": local, "smp": smp}
