"""Benchmark of the four tester routes: set-up, trials and audit, end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload congest --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop: a single client starts the
next operation only when the previous one has finished.  Before timing, the
process runs one operation whose set-up, measured from the process's start
(imports included), is ``setup_s``; it then runs operations for at most
``--seconds`` seconds, each on fresh objects after ``gc.collect()`` and
with the program's ``lru_cache``s cleared.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` installs wrappers on each layer's public
functions (see ``layers.py``) and reports the per-layer metrics instead.
The last line of standard output is the JSON result.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_program():
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    sys.path.insert(0, SRC)
    try:
        import repro
        import repro.congest  # noqa: F401
        import repro.experiments  # noqa: F401
        import repro.localmodel  # noqa: F401
        import repro.smp  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _clear_program_caches() -> None:
    """Empty every ``functools.lru_cache`` in the program's modules."""
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and module is not None:
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _pooled_agreement(records) -> bool:
    """Binomial test on each Monte-Carlo configuration pooled over the run.

    Only configurations whose exact error is the same in every operation
    are pooled; the others were tested call by call.
    """
    import oracle

    pooled = defaultdict(lambda: [0, 0, set()])
    for rec in records:
        for key, failures, trials, exact in rec.tallies:
            entry = pooled[key]
            entry[0] += failures
            entry[1] += trials
            entry[2].add(round(exact, 12))
    ok = True
    for key, (failures, trials, exacts) in sorted(pooled.items()):
        if len(exacts) == 1 and not oracle.agrees(failures, trials, exacts.pop()):
            print(f"perfbench: pooled {key}: {failures}/{trials} disagrees", file=sys.stderr)
            ok = False
    return ok


def _fastest_steps(records, phase=None) -> float:
    """Sum over an operation's steps of each step's fastest time in the run.

    The host's CPU speed drops by up to half in bursts that last from a
    second to over a minute.  A step's fastest time over the run is the one
    a burst touched least, and short steps find a quiet moment far more
    often than whole operations do; so this lower envelope repeats from
    run to run where a median does not.
    """
    if not records:
        return 0.0
    keys = [key for key in records[0].steps if phase is None or key[0] == phase]
    return sum(min(r.steps[key] for r in records) for key in keys)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    _import_program()
    import numpy as np

    from layers import ENGINE_TAP, LAYER_FUNCTIONS, PER_LAYER_METRICS, Clock
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    operation = WORKLOADS[args.workload]
    traced = bool(args.trace)
    clock = Clock().install(LAYER_FUNCTIONS if traced else [ENGINE_TAP])
    # Operation seeds are spaced 64 apart: an operation uses seed + offset
    # for its calls, with offsets below 64.
    seeds = np.random.default_rng([args.seed, 0x5EED])

    # Each vCPU of a shared host slows down on its own, for seconds at a
    # time; rotating the operations over the CPUs this process may use lets
    # every step meet a quiet CPU within the run.
    cpus = sorted(os.sched_getaffinity(0))
    turns = itertools.count()

    def run_one():
        try:
            os.sched_setaffinity(0, {cpus[next(turns) % len(cpus)]})
        except OSError:  # pinning not permitted here: run unpinned
            pass
        gc.collect()
        _clear_program_caches()
        clock.reset()
        seed = 64 * int(seeds.integers(1, 2**24))
        start = time.perf_counter()
        try:
            rec = operation(seed, clock, traced)
        except Exception:
            traceback.print_exc()
            return None, time.perf_counter() - start
        wall = time.perf_counter() - start
        rec.sweep_s = wall - rec.check_s
        print(
            f"perfbench: op seed {seed}: sweep {rec.sweep_s:.4f} s, setup {rec.setup_s:.4f} s, "
            f"trials {rec.trial_s:.4f} s, audit {rec.audit_s:.4f} s, messages {rec.message_s:.4f} s",
            file=sys.stderr,
        )
        for failure in rec.failures:
            print(f"perfbench: {args.workload} seed {seed}: {failure}", file=sys.stderr)
        return rec, wall

    # Warm-up operation: its set-up is the cold set-up of record.
    first, wall = run_one()
    attempted, failed = 1, int(first is None or bool(first.failures))
    setup_s = (first.setup_end - _START) if first is not None else None
    durations = [wall]
    records, snapshots = [], []
    if first is not None and not first.failures:
        records.append(first)
    timed = []
    loop_start = time.perf_counter()
    while attempted == 1 or (
        time.perf_counter() - loop_start + statistics.median(durations) <= args.seconds
    ):
        rec, wall = run_one()
        attempted += 1
        durations.append(wall)
        if rec is None or rec.failures:
            failed += 1
            continue
        records.append(rec)
        timed.append(rec)
        snapshots.append(clock.snapshot())

    correct = bool(records) and _pooled_agreement(records)
    if traced:
        calls = ", ".join(f"{name} {count}" for name, count in sorted(clock.calls.items()))
        print(f"perfbench: calls in the last operation: {calls}", file=sys.stderr)
        metrics = {
            name: {
                "value": statistics.median(s[name] for s in snapshots) if snapshots else 0.0,
                "unit": unit,
            }
            for name, unit in PER_LAYER_METRICS.items()
        }
    else:
        trial_s = _fastest_steps(timed, "trial_s")
        metrics = {
            "setup_s": {"value": setup_s or 0.0, "unit": "s"},
            "sweep_s": {"value": _fastest_steps(timed), "unit": "s"},
            "trials_per_s": {
                "value": timed[0].trials / trial_s if trial_s else 0.0,
                "unit": "1/s",
            },
            "audit_s": {"value": _fastest_steps(timed, "audit_s"), "unit": "s"},
            "engine_messages_per_s": {
                "value": max((r.messages / r.message_s for r in timed), default=0.0),
                "unit": "1/s",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    clock.uninstall()
    print(
        f"perfbench: {args.workload} seed {args.seed}: {len(timed)} timed operations, "
        f"{failed} of {attempted} failed",
        file=sys.stderr,
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
