"""The batched, parallel Monte-Carlo trial engine.

Every benchmark measurement reduces to "run this boolean experiment T
times and count failures".  :class:`TrialRunner` executes those trials
serially, in vectorised batches, or across a process pool — all three
paths producing **bit-identical** results for a fixed ``base_seed``.

Reproducibility model
---------------------
Trials are partitioned into fixed *chunks* of :data:`TRIAL_CHUNK` trials.
Chunk ``c`` of a configuration draws all of its randomness from one
generator keyed by ``(base_seed, *labels, c)`` via :func:`repro.rng.derive`;
trials inside a chunk consume that stream sequentially.  Because the chunk
quantum is an engine constant — *not* the user-facing ``batch`` or
``workers`` knobs — the stream each trial sees is independent of how the
work is batched or scheduled:

- ``batch`` only caps how many trials a vectorised experiment handles per
  call, and calls never straddle a chunk boundary.  numpy ``Generator``
  streams are consumed strictly sequentially, so splitting a chunk into
  smaller calls yields the same draws (a property the test suite pins).
- ``workers`` only decides *where* a chunk executes; every worker re-derives
  its chunk generator from ``(base_seed, labels, chunk_index)``, so results
  are invariant to worker count and scheduling order.
- any single chunk (and hence any sweep point) can be re-run in isolation
  and reproduce exactly, independent of sweep order.

A *scalar* experiment maps ``rng -> bool`` (True = failure); a *batched*
experiment maps ``(rng, count) -> bool[count]``.  A scalar/batched pair
that consumes the generator identically (e.g. one network trial vs. the
matrix kernel over many — see :mod:`repro.zeroround.network`) produces
bit-identical failure flags through either API.

For multi-process execution the experiment callable must be picklable:
use a module-level function or a frozen dataclass with ``__call__`` (the
kernels in :mod:`repro.zeroround.network` are), not a local closure.

Every vectorised fast path ("plane") of this package is an
:class:`AuditedPlane`, and every Monte-Carlo front-end resolves its
seed-like ``rng`` with :func:`seed_of`.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.exceptions import ParameterError, SimulationError
from repro.experiments.stats import ErrorEstimate, estimate
from repro.rng import SeedLike, derive

#: Trials per randomness chunk.  This is the engine's reproducibility
#: quantum: changing it re-keys every stream, so it is a constant, not a
#: parameter.  ``batch``/``workers`` never affect results; this would.
TRIAL_CHUNK = 1024

Label = Union[str, int]
ScalarExperiment = Callable[[np.random.Generator], bool]
BatchedExperiment = Callable[[np.random.Generator, int], np.ndarray]


def _chunk_lengths(trials: int) -> List[int]:
    """Lengths of the fixed-quantum chunks covering ``trials`` trials."""
    full, rest = divmod(trials, TRIAL_CHUNK)
    return [TRIAL_CHUNK] * full + ([rest] if rest else [])


def _run_scalar_chunk(
    experiment: ScalarExperiment,
    base_seed: int,
    labels: Tuple[Label, ...],
    chunk_index: int,
    length: int,
) -> np.ndarray:
    """Failure flags for one chunk, scalar experiment, shared chunk stream."""
    rng = derive(base_seed, *labels, chunk_index)
    flags = np.empty(length, dtype=bool)
    for t in range(length):
        flags[t] = bool(experiment(rng))
    return flags


def _run_batched_chunk(
    experiment: BatchedExperiment,
    base_seed: int,
    labels: Tuple[Label, ...],
    chunk_index: int,
    length: int,
    batch: int,
) -> np.ndarray:
    """Failure flags for one chunk, vectorised experiment, batch-capped calls."""
    rng = derive(base_seed, *labels, chunk_index)
    flags = np.empty(length, dtype=bool)
    pos = 0
    while pos < length:
        m = min(batch, length - pos)
        out = np.asarray(experiment(rng, m), dtype=bool)
        if out.shape != (m,):
            raise ParameterError(
                f"batched experiment returned shape {out.shape} for count={m}"
            )
        flags[pos : pos + m] = out
        pos += m
    return flags


def _scalar_task(args) -> Tuple[int, np.ndarray]:
    experiment, base_seed, labels, chunk_index, length = args
    return chunk_index, _run_scalar_chunk(experiment, base_seed, labels, chunk_index, length)


def _batched_task(args) -> Tuple[int, np.ndarray]:
    experiment, base_seed, labels, chunk_index, length, batch = args
    return chunk_index, _run_batched_chunk(
        experiment, base_seed, labels, chunk_index, length, batch
    )


def _gather(
    task: Callable[[tuple], Tuple[int, np.ndarray]],
    arglist: Sequence[tuple],
    workers: int,
) -> np.ndarray:
    """Run chunk tasks in-process or on a pool; reassemble in chunk order."""
    if workers <= 1 or len(arglist) <= 1:
        if telemetry.enabled():
            # One span per chunk (args[3] = chunk index, args[4] = length).
            # Pool chunks are not traced — workers carry no tracer — but
            # the caller's enclosing span still accounts their wall time.
            parts = []
            for args in arglist:
                with telemetry.span(
                    "trials.chunk", chunk=args[3], trials=args[4]
                ) as sp:
                    part = task(args)
                    sp.count("failures", int(part[1].sum()))
                parts.append(part)
        else:
            parts = [task(args) for args in arglist]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(arglist))) as pool:
            parts = list(pool.map(task, arglist))
    parts.sort(key=lambda item: item[0])
    return np.concatenate([flags for _, flags in parts])


@dataclass(frozen=True)
class TrialRunner:
    """Runs seeded boolean trials for one experiment.

    Parameters
    ----------
    base_seed:
        Root seed of the whole experiment.  Together with the configuration
        labels it fully determines every trial's randomness (see the module
        docstring for the chunk keying scheme).
    """

    base_seed: int

    # -- flag-level API (bit-for-bit comparable) -----------------------

    def run_flags(
        self,
        experiment: ScalarExperiment,
        trials: int,
        *labels: Label,
        workers: int = 1,
    ) -> np.ndarray:
        """Per-trial failure flags for a scalar experiment.

        Trial ``t`` draws from the stream of its chunk ``t // TRIAL_CHUNK``,
        keyed by ``(base_seed, *labels, chunk)``.  ``workers > 1`` fans the
        chunks out over a process pool with identical results.
        """
        if trials < 1:
            raise ParameterError(f"trials must be >= 1, got {trials}")
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        arglist = [
            (experiment, self.base_seed, labels, c, length)
            for c, length in enumerate(_chunk_lengths(trials))
        ]
        with telemetry.span(
            "trials.run",
            mode="scalar",
            labels=list(labels),
            workers=workers,
        ) as sp:
            flags = _gather(_scalar_task, arglist, workers)
            sp.count("trials", trials)
            sp.count("failures", int(flags.sum()))
        return flags

    def run_flags_batched(
        self,
        experiment: BatchedExperiment,
        trials: int,
        *labels: Label,
        batch: int = TRIAL_CHUNK,
        workers: int = 1,
    ) -> np.ndarray:
        """Per-trial failure flags for a vectorised ``(rng, count)`` experiment.

        Bit-identical to :meth:`run_flags` of the matching scalar experiment,
        and invariant to ``batch`` and ``workers`` (see module docstring).
        """
        if trials < 1:
            raise ParameterError(f"trials must be >= 1, got {trials}")
        if batch < 1:
            raise ParameterError(f"batch must be >= 1, got {batch}")
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        arglist = [
            (experiment, self.base_seed, labels, c, length, batch)
            for c, length in enumerate(_chunk_lengths(trials))
        ]
        with telemetry.span(
            "trials.run",
            mode="batched",
            labels=list(labels),
            batch=batch,
            workers=workers,
        ) as sp:
            flags = _gather(_batched_task, arglist, workers)
            sp.count("trials", trials)
            sp.count("failures", int(flags.sum()))
        return flags

    # -- rate-level API ------------------------------------------------

    def error_rate(
        self,
        experiment: ScalarExperiment,
        trials: int,
        *labels: Label,
        workers: int = 1,
    ) -> ErrorEstimate:
        """Fraction of trials where *experiment* returns ``True`` (= error)."""
        flags = self.run_flags(experiment, trials, *labels, workers=workers)
        return estimate(int(flags.sum()), trials)

    def error_rate_batched(
        self,
        experiment: BatchedExperiment,
        trials: int,
        *labels: Label,
        batch: int = TRIAL_CHUNK,
        workers: int = 1,
    ) -> ErrorEstimate:
        """Error rate via the vectorised experiment API.

        1–2 orders of magnitude faster than :meth:`error_rate` for kernels
        that sample whole trial batches in one numpy call.
        """
        flags = self.run_flags_batched(
            experiment, trials, *labels, batch=batch, workers=workers
        )
        return estimate(int(flags.sum()), trials)


def seed_of(rng: SeedLike, trials: Optional[int] = None) -> int:
    """The base seed a Monte-Carlo front-end keys its trials by.

    ``None`` is seed 0 and an int is itself.  Anything else — a
    ``Generator`` in particular — raises :class:`ParameterError`: trials
    are keyed by ``(base_seed, *labels, chunk)``, and a live generator
    carries no seed to key them by.  ``trials``, when given, must be
    ``>= 1``; it is checked first.
    """
    if trials is not None and trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if rng is None:
        return 0
    if isinstance(rng, (int, np.integer)):
        return int(rng)
    raise ParameterError(
        f"Monte-Carlo trials need a seed-like rng (None or int) to key "
        f"their chunk streams, got {type(rng).__name__}"
    )


@dataclass(frozen=True, eq=False)
class AuditedPlane:
    """A batched kernel, audited against its scalar twin.

    ``kernel`` is a batched experiment and ``scalar`` a zero-argument
    factory of its scalar twin, the per-trial experiment that runs the
    real protocol.  Both are keyed by ``labels`` under ``base_seed`` and
    must consume each trial's chunk stream identically, so their flags
    are bit-identical.  The factory is called only when a
    flag set is actually replayed through the twin, so a plane can
    attach a structural check to the audit (the LOCAL plane re-verifies
    its MIS layout there).  ``elements_per_trial`` sizes the kernel's
    batches (:func:`~repro.zeroround.network.auto_batch`); ``span`` is
    the telemetry prefix of the audit span ``<span>.engine_check``,
    which carries ``span_attrs``.
    """

    kernel: BatchedExperiment
    scalar: Callable[[], ScalarExperiment]
    labels: Tuple[Label, ...]
    elements_per_trial: int
    span: str
    base_seed: int = 0
    span_attrs: Mapping[str, object] = field(default_factory=dict)

    def run_flags(
        self, trials: int, workers: int = 1, engine_check: float = 0.0
    ) -> np.ndarray:
        """Per-trial error flags from the kernel, audited.

        ``engine_check`` ∈ [0, 1] replays that fraction of the trials (at
        least one; a prefix of the same streams) through the scalar twin
        and raises :class:`SimulationError`, naming the first diverging
        trials, if any flag differs.
        """
        from repro.zeroround.network import auto_batch

        if not 0.0 <= engine_check <= 1.0:
            raise ParameterError(
                f"engine_check must be in [0, 1], got {engine_check}"
            )
        flags = TrialRunner(base_seed=self.base_seed).run_flags_batched(
            self.kernel,
            trials,
            *self.labels,
            batch=auto_batch(self.elements_per_trial),
            workers=workers,
        )
        if engine_check > 0.0:
            checked = min(trials, max(1, int(round(engine_check * trials))))
            with telemetry.span(
                f"{self.span}.engine_check", trials=checked, **self.span_attrs
            ) as sp:
                scalar = self.scalar_flags(checked)
                sp.count("checked", checked)
            bad = np.flatnonzero(scalar != flags[:checked])
            if bad.size:
                raise SimulationError(
                    f"{self.span} verdicts diverge from the scalar route on "
                    f"trials {bad[:8].tolist()} of {checked} checked — "
                    f"bit-identity contract broken"
                )
        return flags

    def scalar_flags(self, trials: int, workers: int = 1) -> np.ndarray:
        """The scalar twin's flags on the same chunk-keyed streams."""
        return TrialRunner(base_seed=self.base_seed).run_flags(
            self.scalar(), trials, *self.labels, workers=workers
        )

    def error_rate(
        self, trials: int, workers: int = 1, engine_check: float = 0.0
    ) -> float:
        """Monte-Carlo error rate over :meth:`run_flags`."""
        flags = self.run_flags(
            trials, workers=workers, engine_check=engine_check
        )
        return float(flags.sum()) / trials

    def scalar_error_rate(self, trials: int, workers: int = 1) -> float:
        """Monte-Carlo error rate over :meth:`scalar_flags`."""
        return float(self.scalar_flags(trials, workers=workers).sum()) / trials
