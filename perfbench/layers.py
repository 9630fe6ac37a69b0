"""Per-layer accounting by wrapping public functions from outside.

The traced run installs a wrapper on each public function listed in
:data:`LAYER_FUNCTIONS`, at every name a caller looks it up by: the class
attribute for methods, and every ``repro.*`` module global bound to the
function object for plain functions (``from x import f`` copies the
binding, so patching only the defining module would miss callers).

Each wrapper adds its call's *self* time — wall time minus the time spent
in nested wrapped calls — to its metric, so a layer's figure is the time
spent in that layer's own code, not in the layers it calls.  Counts are
taken from arguments and return values, never from the program's own
telemetry.  The untraced run installs only :data:`ENGINE_TAP`, which reads
the message count off each engine report (one wrapper call per engine run).
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Distribution families whose choice-path sampling is reported separately.
FAMILIES = ("uniform", "paninski", "support")


def _family(distribution) -> str:
    return distribution.name.split("(", 1)[0]


def _count_samples(clock: "Clock", args, kwargs, result) -> None:
    size = int(args[1] if len(args) > 1 else kwargs["size"])
    family = _family(args[0])
    clock.counts["distributions.samples"] += size
    if family in FAMILIES:
        clock.counts[f"distributions.samples.{family}"] += size
        clock.times[f"distributions.choice_s.{family}"] += clock.last_self


def _count_driver_draws(clock: "Clock", args, kwargs, result) -> None:
    clock.counts["distributions.driver_draws"] += int(
        args[1] if len(args) > 1 else kwargs["size"]
    )


def _count_chunks(clock: "Clock", args, kwargs, result) -> None:
    from repro.experiments.runner import TRIAL_CHUNK

    trials = int(args[2] if len(args) > 2 else kwargs["trials"])
    clock.counts["experiments.chunks"] += math.ceil(trials / TRIAL_CHUNK)


def _count_engine(clock: "Clock", args, kwargs, result) -> None:
    clock.counts["simulator.rounds"] += int(result.rounds)
    clock.counts["simulator.messages"] += int(result.messages)


def _count_layout_build(clock: "Clock", args, kwargs, result) -> None:
    clock.counts["localmodel.layouts_built"] += 1


#: (module, qualified name, time metric, optional count hook).  A hook
#: receives ``(clock, args, kwargs, result)`` after the call.
ENGINE_TAP = ("repro.simulator.engine", "SynchronousEngine.run", "simulator.engine_s", _count_engine)

LAYER_FUNCTIONS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.core.params", "and_rule_parameters", "core.solve_s", None),
    ("repro.core.params", "threshold_parameters", "core.solve_s", None),
    ("repro.congest.tester", "congest_parameters", "core.solve_s", None),
    ("repro.core.collision", "CollisionGapTester.from_delta", "core.solve_s", None),
    ("repro.distributions.base", "DiscreteDistribution.sample", "distributions.choice_s", _count_samples),
    ("repro.distributions.base", "DiscreteDistribution.sample_uniform", "distributions.quantile_s", _count_driver_draws),
    ("repro.distributions.base", "DiscreteDistribution.index_quantiles", "distributions.quantile_s", None),
    ("repro.zeroround.network", "threshold_verdicts", "zeroround.collision_s", None),
    ("repro.zeroround.network", "and_rule_verdicts", "zeroround.collision_s", None),
    ("repro.zeroround.network", "grouped_collision_flags", "zeroround.collision_s", None),
    ("repro.experiments.runner", "TrialRunner.run_flags", "experiments.runner_self_s", _count_chunks),
    ("repro.experiments.runner", "TrialRunner.run_flags_batched", "experiments.runner_self_s", _count_chunks),
    ("repro.simulator.graph", "Topology.tree_schedule", "simulator.tree_schedule_s", None),
    ENGINE_TAP,
    ("repro.simulator.graph", "Topology.power_graph", "simulator.power_graph_s", None),
    ("repro.congest.trial_plane", "PackagingLayout.from_schedule", "congest.layout_s", None),
    ("repro.congest.trial_plane", "CongestVerdictKernel.__call__", "congest.verdict_s", None),
    ("repro.congest.trial_plane", "HardenedVerdictKernel.__call__", "congest.verdict_s", None),
    ("repro.congest.fault_plane", "HardenedFaultPlane.build", "congest.fault_plane_s", None),
    ("repro.congest.fault_plane", "HardenedFaultPlane.score_seeds", "congest.fault_plane_s", None),
    ("repro.congest.fault_plane", "ReplayedTrials.check_against_engine", "congest.fault_plane_s", None),
    ("repro.localmodel.local_plane", "LocalLayout.build", "localmodel.layout_s", None),
    ("repro.localmodel.local_plane", "replay_luby_mis", "localmodel.layout_s", _count_layout_build),
    ("repro.localmodel.local_plane", "LocalLayout.verify_layout", "localmodel.verify_s", None),
    ("repro.localmodel.local_plane", "LocalVerdictKernel.__call__", "localmodel.verdict_s", None),
    ("repro.smp.codes", "ConcatenatedCode.encode_many", "smp.encode_s", None),
    ("repro.smp.smp_plane", "TorusVerdictKernel.__call__", "smp.verdict_s", None),
    ("repro.smp.smp_plane", "ReductionVerdictKernel.__call__", "smp.verdict_s", None),
    ("repro.smp.equality", "EqualityProtocol.run", "smp.scalar_s", None),
    ("repro.smp.reduction", "TesterBasedEqualityProtocol.run", "smp.scalar_s", None),
)

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_METRICS: Dict[str, str] = {
    "core.solve_s": "s",
    "distributions.choice_s": "s",
    **{f"distributions.choice_s.{f}": "s" for f in FAMILIES},
    "distributions.samples": "count",
    **{f"distributions.samples.{f}": "count" for f in FAMILIES},
    "distributions.quantile_s": "s",
    "zeroround.collision_s": "s",
    "experiments.chunks": "count",
    "experiments.runner_self_s": "s",
    "simulator.tree_schedule_s": "s",
    "simulator.engine_s": "s",
    "simulator.rounds": "count",
    "simulator.messages": "count",
    "simulator.power_graph_s": "s",
    "congest.layout_s": "s",
    "congest.verdict_s": "s",
    "congest.fault_plane_s": "s",
    "localmodel.layout_s": "s",
    "localmodel.layouts_built": "count",
    "localmodel.verify_s": "s",
    "localmodel.verdict_s": "s",
    "smp.encode_s": "s",
    "smp.verdict_s": "s",
    "smp.scalar_s": "s",
}


class Clock:
    """Self-time and count accumulators fed by the installed wrappers."""

    def __init__(self) -> None:
        self.times: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.last_self = 0.0
        self._stack: List[List[float]] = []
        self._undo: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        self.times.clear()
        self.counts.clear()
        self.calls.clear()

    def _wrap(self, fn, metric: str, hook: Optional[Callable], label: str):
        clock = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = [0.0]
            clock._stack.append(nested)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                clock._stack.pop()
                if clock._stack:
                    clock._stack[-1][0] += elapsed
            clock.last_self = elapsed - nested[0]
            clock.times[metric] += clock.last_self
            clock.calls[label] += 1
            if hook is not None:
                hook(clock, args, kwargs, result)
            return result

        return wrapper

    def install(self, entries) -> "Clock":
        """Wrap every ``(module, name, metric, hook)`` entry in place."""
        for module_name, qualname, metric, hook in entries:
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(raw.__func__, metric, hook, qualname))
                else:
                    wrapped = self._wrap(raw, metric, hook, qualname)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            fn = getattr(module, qualname)
            wrapped = self._wrap(fn, metric, hook, qualname)
            for name, mod in list(sys.modules.items()):
                if not name.startswith("repro") or mod is None:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, attr, fn))
                        setattr(mod, attr, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def snapshot(self) -> Dict[str, float]:
        """This clock's per-layer metrics, zero for layers not called."""
        out: Dict[str, float] = {}
        for name, unit in PER_LAYER_METRICS.items():
            out[name] = self.counts.get(name, 0) if unit == "count" else self.times.get(name, 0.0)
        return out
