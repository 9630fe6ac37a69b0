"""Reference figures for the README: break-even trial counts and tracing cost.

Usage, from the root of a checkout (takes about three minutes)::

    python3 perfbench/figures.py

For each fast path ("plane") it times, on fresh objects, the plane's
set-up ``S_p`` and per-trial cost ``t_p`` and the scalar route's set-up
``S_s`` and per-trial cost ``t_s``, then prints the break-even trial count
``(S_p − S_s) / (t_s − t_p)`` (0 when the plane is ahead from the first
trial) and the whole-call speedup ``(S_s + T·t_s) / (S_p + T·t_p)`` at the
trial count ``T`` one benchmark operation uses.  It then times benchmark
operations with no tracing, with the benchmark's layer wrappers, and with
the program's own tracer, interleaving the three and keeping each mode's
fastest operation.
"""

import gc
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from layers import ENGINE_TAP, LAYER_FUNCTIONS, Clock  # noqa: E402


def timed(fn, *args, **kwargs):
    gc.collect()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def plane_rows():
    from repro import AndRuleNetworkTester, ThresholdNetworkTester, uniform
    from repro.congest import CongestTrialRunner, CongestUniformityTester
    from repro.core.collision import CollisionGapTester
    from repro.experiments.runner import TrialRunner
    from repro.localmodel import LocalTrialRunner, LocalUniformityTester
    from repro.localmodel.local_plane import mis_generator
    from repro.simulator import Topology
    from repro.smp import BCGMapping, EqualityProtocol, TesterBasedEqualityProtocol
    from repro.smp.smp_plane import EqualityTrialRunner

    rows = []

    # Zero-round: no layout on either route; the scalar route is the
    # object model, one tester object per node.
    u = uniform(workloads.ZR_N)
    for name, tester, trials, scalar_trials in (
        ("and (E2)", AndRuleNetworkTester.solve(
            workloads.ZR_N, workloads.AND_K, workloads.AND_EPS, workloads.AND_P),
         workloads.AND_TRIALS, 2),
        ("threshold (E3)", ThresholdNetworkTester.solve(
            workloads.ZR_N, workloads.THR_K, workloads.THR_EPS, workloads.THR_P),
         workloads.THR_TRIALS, 1),
    ):
        plane, _ = timed(tester.estimate_error, u, True, trials, rng=1)
        network = tester.as_network()
        scalar, _ = timed(
            TrialRunner(base_seed=1).run_flags,
            lambda rng: not network.run(u, rng).accepted, scalar_trials, "scalar",
        )
        rows.append((name, 0.0, plane / trials, 0.0, scalar / scalar_trials, trials))

    # CONGEST: layout extraction vs warm engine runs from the cached schedule.
    k = workloads.CG_ROWS * workloads.CG_COLS
    tester = CongestUniformityTester.solve(workloads.CG_N, k, workloads.CG_EPS, workloads.CG_P)
    u = uniform(workloads.CG_N)
    topo = Topology.grid(workloads.CG_ROWS, workloads.CG_COLS)
    s_p, _ = timed(CongestTrialRunner.build, tester, topo)
    t_p, _ = timed(tester.estimate_error, topo, u, True, workloads.CG_TRIALS, rng=1, fast_path=True)
    topo = Topology.grid(workloads.CG_ROWS, workloads.CG_COLS)
    s_s, _ = timed(topo.tree_schedule)
    t_s, _ = timed(tester.estimate_error, topo, u, True, 4, rng=1, fast_path=False)
    rows.append(("congest (E6)", s_p, t_p / workloads.CG_TRIALS, s_s, t_s / 4, workloads.CG_TRIALS))

    # LOCAL: MIS replay vs an engine MIS on G^r, per radius.
    local = LocalUniformityTester(n=workloads.LC_N, eps=workloads.LC_EPS, p=workloads.LC_P)
    u = uniform(workloads.LC_N)
    for r in (16, workloads.LC_E7_RADIUS):
        ring = Topology.ring(workloads.LC_K)
        s_p, runner = timed(LocalTrialRunner.build, local, ring, r, base_seed=1)
        t_p, _ = timed(
            local.estimate_error, ring, u, True, r, workloads.LC_TRIALS, rng=1, fast_path=True
        )
        ring = Topology.ring(workloads.LC_K)
        s_s, plan = timed(local.plan, ring, r, mis_generator(1, r))
        gen = np.random.default_rng(1)
        t_s, _ = timed(lambda: [local.test_with_plan(plan, u, gen) for _ in range(8)])
        rows.append((f"local r={r} (E7)", s_p, t_p / workloads.LC_TRIALS, s_s, t_s / 8,
                     workloads.LC_TRIALS))

    # SMP: one batched encode vs re-encoding inside every scalar run.
    torus = EqualityProtocol.build(workloads.SMP_BITS, delta=workloads.SMP_DELTA, tau=workloads.SMP_TAU)
    mapping = BCGMapping(code=torus.code)
    bcg = TesterBasedEqualityProtocol(
        mapping=mapping, tester=CollisionGapTester.from_delta(mapping.domain_size, workloads.SMP_DELTA)
    )
    x = np.random.default_rng(1).integers(0, 2, size=workloads.SMP_BITS)
    y = x.copy()
    y[0] ^= 1
    for name, build, protocol in (
        ("torus (E17)", EqualityTrialRunner.for_torus, torus),
        ("bcg (E17)", EqualityTrialRunner.for_reduction, bcg),
    ):
        s_p, runner = timed(build, protocol, x, y, base_seed=1)
        t_p, _ = timed(runner.run_flags, workloads.SMP_TRIALS)
        t_s, _ = timed(runner.scalar_flags, workloads.SMP_AUDIT_TRIALS)
        rows.append((name, s_p, t_p / workloads.SMP_TRIALS, 0.0,
                     t_s / workloads.SMP_AUDIT_TRIALS, workloads.SMP_TRIALS))
    return rows


def overhead_rows(repeats: int = 6):
    """Fastest operation time per tracing mode, the modes interleaved and
    each repeat on the next CPU in turn, as in ``run.py``."""
    from repro import telemetry

    cpus = sorted(os.sched_getaffinity(0))
    rows = []
    for name, operation in workloads.WORKLOADS.items():
        times = {"untraced": [], "layer wrappers": [], "program tracer": []}
        seeds = iter(range(64, 64 * 100, 64))
        for repeat in range(repeats):
            os.sched_setaffinity(0, {cpus[repeat % len(cpus)]})
            for mode in times:
                clock = Clock().install(LAYER_FUNCTIONS if mode == "layer wrappers" else [ENGINE_TAP])
                if mode == "program tracer":
                    telemetry.activate(telemetry.Tracer(None))
                try:
                    gc.collect()
                    start = time.perf_counter()
                    rec = operation(next(seeds), clock, mode == "layer wrappers")
                    times[mode].append(time.perf_counter() - start - rec.check_s)
                finally:
                    telemetry.deactivate()
                    clock.uninstall()
        base = min(times["untraced"])
        rows.append((name, base, *(min(times[m]) - base for m in list(times)[1:])))
    os.sched_setaffinity(0, set(cpus))
    return rows


def main() -> int:
    print("plane              S_p(s)   t_p(ms)   S_s(s)   t_s(ms)  break-even  T   whole-call speedup at T")
    for name, s_p, t_p, s_s, t_s, trials in plane_rows():
        even = max(0.0, (s_p - s_s) / (t_s - t_p))
        speedup = (s_s + trials * t_s) / (s_p + trials * t_p)
        print(f"{name:17s} {s_p:7.3f} {1e3 * t_p:9.3f} {s_s:8.3f} {1e3 * t_s:9.2f} "
              f"{even:11.1f} {trials:5d} {speedup:8.1f}x")
    print("\nworkload     untraced op (s)  +layer wrappers (s)  +program tracer (s)")
    for name, base, wrappers, tracer in overhead_rows():
        print(f"{name:12s} {base:15.3f} {wrappers:+20.3f} {tracer:+20.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
