"""Tests for the Lemma 7.3 torus-chunk Equality protocol."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.smp import EqualityProtocol

N_BITS, DELTA, TAU = 256, 0.05, 2.0


@pytest.fixture(scope="module")
def proto() -> EqualityProtocol:
    return EqualityProtocol.build(n_bits=N_BITS, delta=DELTA, tau=TAU)


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2, N_BITS)
    y = x.copy()
    y[17] ^= 1
    return x, y


class TestConstruction:
    def test_rejection_bound_meets_target(self, proto):
        assert proto.rejection_probability_bound >= TAU * DELTA - 1e-12

    def test_chunk_within_side(self, proto):
        assert 1 <= proto.chunk_length <= proto.side

    def test_infeasible_target_raises(self):
        with pytest.raises(ParameterError):
            EqualityProtocol.build(n_bits=256, delta=0.5, tau=1.5)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            EqualityProtocol.build(n_bits=256, delta=0.0, tau=2.0)
        with pytest.raises(ParameterError):
            EqualityProtocol.build(n_bits=256, delta=0.1, tau=1.0)


class TestCommunication:
    def test_worst_case_bits_formula(self, proto):
        coord = math.ceil(math.log2(proto.side))
        assert proto.communication_bits == 2 * coord + proto.chunk_length

    def test_actual_messages_match_declared_cost(self, proto, inputs):
        x, _ = inputs
        msg = proto.alice_message(x, rng=1)
        assert msg.size_in_bits(proto.side) == proto.communication_bits

    def test_scales_as_sqrt_delta_n(self):
        """Lemma 7.3: cost = O(sqrt(tau delta n)); quadrupling delta ~ doubles t."""
        small = EqualityProtocol.build(n_bits=512, delta=0.01, tau=2.0)
        large = EqualityProtocol.build(n_bits=512, delta=0.04, tau=2.0)
        assert large.chunk_length == pytest.approx(2 * small.chunk_length, rel=0.2)


class TestCorrectness:
    def test_perfect_completeness(self, proto, inputs):
        x, _ = inputs
        for seed in range(50):
            accepted, _ = proto.run(x, x.copy(), rng=seed)
            assert accepted

    def test_rejection_rate_meets_bound(self, proto, inputs):
        x, y = inputs
        rate = proto.estimate_rejection(x, y, trials=40_000, rng=2)
        assert rate >= proto.rejection_probability_bound - 0.01

    def test_estimate_matches_run(self, proto, inputs):
        x, y = inputs
        fast = proto.estimate_rejection(x, y, trials=4000, rng=3)
        slow = sum(not proto.run(x, y, rng=100 + i)[0] for i in range(4000)) / 4000
        assert fast == pytest.approx(slow, abs=0.03)

    def test_many_bit_differences_reject_more(self, proto):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2, N_BITS)
        y_near = x.copy()
        y_near[0] ^= 1
        y_far = 1 - x
        near = proto.estimate_rejection(x, y_near, trials=20_000, rng=5)
        far = proto.estimate_rejection(x, y_far, trials=20_000, rng=6)
        assert far >= near

    def test_referee_crossing_geometry(self, proto, inputs):
        """When the chunks provably do not cross, the referee accepts."""
        from repro.smp.equality import TorusChunkMessage

        t = proto.chunk_length
        if t >= proto.side:
            pytest.skip("chunks cover the torus at these parameters")
        alice = TorusChunkMessage(row=0, col=0, bits=tuple([0] * t))
        bob = TorusChunkMessage(row=t, col=1, bits=tuple([1] * t))
        # Bob's row (t) is outside Alice's [0, t); no crossing.
        assert proto.referee(alice, bob)


class TestValidation:
    @pytest.mark.parametrize("trials", [0, -1, 2.5, True])
    def test_estimate_rejection_trials_validated(self, proto, inputs, trials):
        x, y = inputs
        with pytest.raises(ParameterError, match="trials"):
            proto.estimate_rejection(x, y, trials=trials)

    @pytest.mark.parametrize("trials", [0, -1, 2.5, True])
    def test_estimate_error_trials_validated(self, proto, inputs, trials):
        x, y = inputs
        with pytest.raises(ParameterError, match="trials"):
            proto.estimate_error(x, y, trials=trials)

    @pytest.mark.parametrize("n_bits", [0, -4, 3.5, True])
    def test_build_n_bits_validated(self, n_bits):
        with pytest.raises(ParameterError, match="n_bits"):
            EqualityProtocol.build(n_bits=n_bits, delta=DELTA, tau=TAU)


class TestEstimateError:
    def test_fast_path_matches_scalar(self, proto, inputs):
        x, y = inputs
        fast = proto.estimate_error(x, y, trials=200, rng=9, fast_path=True)
        slow = proto.estimate_error(x, y, trials=200, rng=9, fast_path=False)
        assert fast == slow

    def test_engine_check_passes_on_honest_plane(self, proto, inputs):
        x, y = inputs
        err = proto.estimate_error(
            x, y, trials=50, rng=1, fast_path=True, engine_check=1.0
        )
        assert 0.0 <= err <= 1.0

    def test_generator_rng_rejects_fast_path(self, proto, inputs):
        x, y = inputs
        gen = np.random.default_rng(0)
        with pytest.raises(ParameterError, match="seed-like"):
            proto.estimate_error(x, y, trials=10, rng=gen, fast_path=True)

    def test_generator_rng_takes_legacy_loop(self, proto, inputs):
        """The scalar route refuses a shared Generator too."""
        x, _ = inputs
        gen = np.random.default_rng(0)
        with pytest.raises(ParameterError, match="seed-like"):
            proto.estimate_error(
                x, x.copy(), trials=20, rng=gen, fast_path=False
            )
