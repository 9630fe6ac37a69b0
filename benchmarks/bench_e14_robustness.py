"""E14 — Extension: robustness of the hardened CONGEST tester.

Reproduces: under seeded message loss and crash-stop failures the
hardened Theorem 1.4 protocol degrades gracefully.  At drop probability
≤ 0.05 with no crashes every run ends with a verdict and unanimous
agreement on star, ring and grid; the far side is rejected at every
swept fault rate; the fault-free point sees no drops and no missing
subtrees.

Every grid point replays through the vectorised fault plane
(``repro.congest.fault_plane``); a fifth of each point's trials re-runs
through the engine, which supplies the rounds/drops columns and
cross-checks verdicts, agreement and give-up counters bit for bit
(``robustness_sweep`` raises ``SimulationError`` on any divergence).
"""

from __future__ import annotations

import pytest

from repro.experiments import Table, robustness_sweep

from _common import save_table

BASE_SEED = 2018  # PODC year; any fixed value works

# The smallest Theorem 1.4 instance feasible at p = 1/3 with a
# benchmark-sized network (the solver yields tau = 6).
N = 200
K = 60
EPS = 0.9
P = 1.0 / 3.0
SAMPLES_PER_NODE = 64
TRIALS = 25
ENGINE_CHECK = 1 / 5


def _sweep(topology, drop_probs=(0.0, 0.02, 0.05, 0.1),
           crash_fractions=(0.0, 0.1), engine_check=ENGINE_CHECK):
    return robustness_sweep(
        N,
        K,
        EPS,
        p=P,
        samples_per_node=SAMPLES_PER_NODE,
        topology=topology,
        drop_probs=drop_probs,
        crash_fractions=crash_fractions,
        trials=TRIALS,
        base_seed=BASE_SEED,
        fast_path=True,
        engine_check=engine_check,
    )


@pytest.mark.benchmark(group="e14")
def test_e14_graceful_degradation(benchmark):
    sweeps = {topology: _sweep(topology) for topology in ("star", "ring", "grid")}
    for topology, points in sweeps.items():
        for pt in points:
            assert pt.error_far == 0.0, (topology, pt)
            if pt.crash_fraction == 0.0 and pt.drop_prob <= 0.05:
                assert pt.no_verdict == 0, (topology, pt)
                assert pt.mean_agreement == 1.0, (topology, pt)
            if pt.crash_fraction == 0.0 and pt.drop_prob == 0.0:
                assert pt.mean_drops == 0.0, (topology, pt)
                assert pt.mean_missing_subtrees == 0.0, (topology, pt)

    table = Table(
        ["drop", "crash", "err(unif)", "err(far)", "rounds", "drops",
         "missing", "shortfall", "unheard", "agree"],
        title=f"E14 - hardened tester under faults, grid(6x10), "
              f"{TRIALS} trials/point",
    )
    for pt in sorted(sweeps["grid"], key=lambda p: (p.crash_fraction, p.drop_prob)):
        table.add_row([
            f"{pt.drop_prob:.2f}",
            f"{pt.crash_fraction:.2f}",
            f"{pt.error_uniform:.2f}",
            f"{pt.error_far:.2f}",
            f"{pt.mean_rounds:.0f}",
            f"{pt.mean_drops:.0f}",
            f"{pt.mean_missing_subtrees:.1f}",
            f"{pt.mean_shortfall:.1f}",
            f"{pt.mean_unheard:.1f}",
            f"{pt.mean_agreement:.2f}",
        ])
    print("\n" + save_table("e14_robustness", table))

    benchmark(lambda: _sweep("grid", drop_probs=(0.05,),
                             crash_fractions=(0.0,), engine_check=0.0))
