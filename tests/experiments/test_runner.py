"""Tests for the seeded trial runner and its batched/parallel engine."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.distributions import uniform
from repro.exceptions import ParameterError, SimulationError
from repro.experiments import TRIAL_CHUNK, AuditedPlane, TrialRunner, seed_of
from repro.telemetry import Tracer, tracing
from repro.zeroround import CollisionTrialKernel, ScalarCollisionTrial


class TestTrialRunner:
    def test_reproducible_across_instances(self):
        def coin(rng: np.random.Generator) -> bool:
            return bool(rng.random() < 0.3)

        a = TrialRunner(base_seed=5).error_rate(coin, 200, "cfg", 1)
        b = TrialRunner(base_seed=5).error_rate(coin, 200, "cfg", 1)
        assert a.failures == b.failures

    def test_labels_isolate_configurations(self):
        def coin(rng):
            return bool(rng.random() < 0.5)

        a = TrialRunner(base_seed=5).error_rate(coin, 100, "cfg", 1)
        b = TrialRunner(base_seed=5).error_rate(coin, 100, "cfg", 2)
        assert a.failures != b.failures  # overwhelming probability

    def test_rate_converges(self):
        def coin(rng):
            return bool(rng.random() < 0.25)

        est = TrialRunner(base_seed=0).error_rate(coin, 3000, "p25")
        assert est.rate == pytest.approx(0.25, abs=0.03)

    def test_trial_count_validated(self):
        with pytest.raises(ParameterError):
            TrialRunner(base_seed=0).error_rate(lambda rng: True, 0)


# Module-level so the process-pool path can pickle them.
_DIST = uniform(400)
_SCALAR = ScalarCollisionTrial(_DIST, 9)
_KERNEL = CollisionTrialKernel(_DIST, 9)


def _batched_coin(rng, count):
    return rng.random(count) < 0.3


def _scalar_coin(rng):
    return bool(rng.random() < 0.3)


class TestBatchedEngine:
    """The reproducibility contract: serial, batched, and parallel paths
    must agree bit for bit, for any batch size and worker count, because
    every TRIAL_CHUNK-sized chunk re-derives its generator from
    ``(base_seed, *labels, chunk_index)``."""

    TRIALS = 2 * TRIAL_CHUNK + 257  # exercises a partial final chunk

    def test_scalar_vs_batched_bit_identical(self):
        runner = TrialRunner(base_seed=5)
        serial = runner.run_flags(_SCALAR, self.TRIALS, "cfg", 1)
        batched = runner.run_flags_batched(_KERNEL, self.TRIALS, "cfg", 1)
        assert np.array_equal(serial, batched)

    def test_batch_size_invariance(self):
        runner = TrialRunner(base_seed=5)
        reference = runner.run_flags_batched(_KERNEL, self.TRIALS, "cfg", 1)
        for batch in (1, 7, 64, TRIAL_CHUNK, 5 * TRIAL_CHUNK):
            flags = runner.run_flags_batched(
                _KERNEL, self.TRIALS, "cfg", 1, batch=batch
            )
            assert np.array_equal(reference, flags), f"batch={batch}"

    def test_worker_count_invariance(self):
        runner = TrialRunner(base_seed=5)
        reference = runner.run_flags_batched(_KERNEL, self.TRIALS, "cfg", 1)
        parallel = runner.run_flags_batched(
            _KERNEL, self.TRIALS, "cfg", 1, workers=2
        )
        assert np.array_equal(reference, parallel)

    def test_scalar_parallel_matches_serial(self):
        runner = TrialRunner(base_seed=8)
        serial = runner.run_flags(_SCALAR, self.TRIALS, "w")
        parallel = runner.run_flags(_SCALAR, self.TRIALS, "w", workers=2)
        assert np.array_equal(serial, parallel)

    def test_error_rate_batched_matches_scalar_rate(self):
        runner = TrialRunner(base_seed=3)
        scalar = runner.error_rate(_scalar_coin, 600, "coin")
        batched = runner.error_rate_batched(_batched_coin, 600, "coin")
        assert scalar.failures == batched.failures
        assert scalar.rate == batched.rate

    def test_flags_dtype_and_shape(self):
        flags = TrialRunner(base_seed=0).run_flags_batched(
            _batched_coin, 130, "shape", batch=32
        )
        assert flags.shape == (130,) and flags.dtype == bool

    def test_bad_experiment_output_rejected(self):
        def wrong_shape(rng, count):
            return rng.random(count + 1) < 0.5

        with pytest.raises(ParameterError):
            TrialRunner(base_seed=0).run_flags_batched(wrong_shape, 10, "bad")

    def test_validation(self):
        runner = TrialRunner(base_seed=0)
        with pytest.raises(ParameterError):
            runner.run_flags_batched(_batched_coin, 0, "x")
        with pytest.raises(ParameterError):
            runner.run_flags_batched(_batched_coin, 10, "x", batch=0)
        with pytest.raises(ParameterError):
            runner.run_flags_batched(_batched_coin, 10, "x", workers=0)


def _flipped_coin(rng, count):
    """The batched coin with trials 2 and 5 of every call inverted."""
    flags = _batched_coin(rng, count)
    flags[[i for i in (2, 5) if i < count]] ^= True
    return flags


class TestAuditedPlane:
    """The audited-plane contract every vectorised fast path shares."""

    def _plane(self, kernel=_batched_coin):
        return AuditedPlane(
            kernel=kernel,
            scalar=lambda: _scalar_coin,
            labels=("coin",),
            elements_per_trial=1,
            base_seed=3,
            span="coin_plane",
            span_attrs={"variant": "test"},
        )

    def test_flags_equal_scalar_twin(self):
        plane = self._plane()
        flags = plane.run_flags(300, engine_check=1.0)
        np.testing.assert_array_equal(flags, plane.scalar_flags(300))
        assert plane.error_rate(300) == plane.scalar_error_rate(300)

    @pytest.mark.parametrize("check", [-0.1, 1.5])
    def test_engine_check_range(self, check):
        with pytest.raises(ParameterError, match="engine_check"):
            self._plane().run_flags(10, engine_check=check)

    @pytest.mark.parametrize(
        "trials,check,expected", [(40, 0.25, 10), (40, 0.001, 1), (3, 1.0, 3)]
    )
    def test_audit_span_counts_prefix(self, trials, check, expected):
        with tracing(Tracer()) as tracer:
            self._plane().run_flags(trials, engine_check=check)
        audits = [
            e for e in tracer.events
            if e["event"] == "span" and e["name"] == "coin_plane.engine_check"
        ]
        assert len(audits) == 1
        assert audits[0]["attrs"] == {"trials": expected, "variant": "test"}
        assert audits[0]["counters"] == {"checked": expected}

    def test_twin_built_only_under_audit(self):
        built = []

        def factory():
            built.append(True)
            return _scalar_coin

        plane = dataclasses.replace(self._plane(), scalar=factory)
        plane.run_flags(20)
        assert not built
        plane.run_flags(20, engine_check=0.5)
        assert built == [True]

    def test_divergence_names_diverging_trials(self):
        plane = self._plane(kernel=_flipped_coin)
        with pytest.raises(SimulationError, match=r"diverge.*\[2, 5\] of 10"):
            plane.run_flags(10, engine_check=1.0)


def _and_rule(gen):
    from repro.zeroround import AndRuleNetworkTester

    tester = AndRuleNetworkTester.solve(50_000, 1024, 1.0, 0.45)
    return tester.estimate_error(uniform(50_000), True, 4, rng=gen)


def _threshold(gen):
    from repro.zeroround import ThresholdNetworkTester

    tester = ThresholdNetworkTester.solve(50_000, 20_000, 0.9)
    return tester.estimate_error(uniform(50_000), True, 4, rng=gen)


def _rejection(gen):
    from repro.zeroround import estimate_rejection_probability

    return estimate_rejection_probability(uniform(200), 5, 4, rng=gen)


def _congest(gen, hardened=False):
    from repro.congest import CongestUniformityTester, HardenedCongestTester
    from repro.simulator import Topology

    cls = HardenedCongestTester if hardened else CongestUniformityTester
    tester = cls.solve(200, 60, 0.9, 1 / 3, 64)
    return tester.estimate_error(
        Topology.star(60), uniform(200), True, 4, rng=gen
    )


def _local(gen, search=False):
    from repro.localmodel import LocalUniformityTester
    from repro.simulator import Topology

    tester = LocalUniformityTester(n=2000, eps=1.5, p=0.45)
    if search:
        return tester.choose_radius(Topology.ring(64), rng=gen)
    return tester.estimate_error(
        Topology.ring(64), uniform(2000), True, 8, 4, rng=gen
    )


def _smp(gen, reduction=False):
    from repro.core.collision import CollisionGapTester
    from repro.smp import (
        BCGMapping,
        EqualityProtocol,
        TesterBasedEqualityProtocol,
    )

    protocol = EqualityProtocol.build(16, delta=0.05, tau=2.0)
    if reduction:
        mapping = BCGMapping(code=protocol.code)
        protocol = TesterBasedEqualityProtocol(
            mapping=mapping,
            tester=CollisionGapTester.from_delta(mapping.domain_size, 0.05),
        )
    x = np.zeros(16, dtype=int)
    return protocol.estimate_error(x, x, 4, rng=gen, fast_path=False)


_SEEDED_FRONT_ENDS = {
    "and_rule": _and_rule,
    "threshold": _threshold,
    "rejection": _rejection,
    "congest": _congest,
    "hardened": lambda gen: _congest(gen, hardened=True),
    "local": _local,
    "local_radius": lambda gen: _local(gen, search=True),
    "torus": _smp,
    "bcg": lambda gen: _smp(gen, reduction=True),
}


class TestSeedRouting:
    """Every Monte-Carlo front-end keys its trials by a seed, so each one
    refuses a live Generator with the same ``seed-like`` error."""

    def test_seed_of(self):
        assert seed_of(None) == 0
        assert seed_of(7) == 7 and seed_of(np.int64(7)) == 7
        with pytest.raises(ParameterError, match="trials must be >= 1"):
            seed_of(np.random.default_rng(0), trials=0)

    @pytest.mark.parametrize("route", sorted(_SEEDED_FRONT_ENDS))
    def test_generator_rejected(self, route):
        with pytest.raises(ParameterError, match="seed-like"):
            _SEEDED_FRONT_ENDS[route](np.random.default_rng(0))
