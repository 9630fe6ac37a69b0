"""Tests for DiscreteDistribution (construction, functionals, sampling)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import (
    DiscreteDistribution,
    heavy_element,
    paninski_pair,
    restricted_support,
    uniform,
    zipf,
)
from repro.distributions.base import _LOOKUP_BLOCK
from repro.exceptions import InvalidDistributionError


class TestConstruction:
    def test_normalises_within_tolerance(self):
        d = DiscreteDistribution([0.25, 0.25, 0.25, 0.25 + 1e-9])
        assert abs(d.probs.sum() - 1.0) < 1e-12

    def test_rejects_negative_mass(self):
        with pytest.raises(InvalidDistributionError):
            DiscreteDistribution([0.5, -0.1, 0.6])

    def test_rejects_wrong_total(self):
        with pytest.raises(InvalidDistributionError):
            DiscreteDistribution([0.5, 0.2])

    def test_rejects_empty(self):
        with pytest.raises(InvalidDistributionError):
            DiscreteDistribution([])

    def test_rejects_nan(self):
        with pytest.raises(InvalidDistributionError):
            DiscreteDistribution([0.5, float("nan"), 0.5])

    def test_rejects_matrix(self):
        with pytest.raises(InvalidDistributionError):
            DiscreteDistribution([[0.5, 0.5]])

    def test_probs_are_read_only(self):
        d = uniform(4)
        with pytest.raises(ValueError):
            d.probs[0] = 0.9


class TestAccessors:
    def test_domain_size(self):
        assert uniform(17).n == 17

    def test_prob_lookup(self):
        d = DiscreteDistribution([0.5, 0.3, 0.2])
        assert d.prob(1) == pytest.approx(0.3)

    def test_support(self):
        d = DiscreteDistribution([0.5, 0.0, 0.5])
        assert list(d.support()) == [0, 2]
        assert d.support_size() == 2

    def test_is_uniform(self):
        assert uniform(10).is_uniform()
        assert not DiscreteDistribution([0.6, 0.4]).is_uniform()


class TestFunctionals:
    def test_collision_probability_uniform(self):
        assert uniform(100).collision_probability() == pytest.approx(0.01)

    def test_collision_probability_point_mass(self):
        d = DiscreteDistribution([1.0, 0.0, 0.0])
        assert d.collision_probability() == pytest.approx(1.0)

    def test_entropy_uniform(self):
        assert uniform(8).entropy() == pytest.approx(np.log(8))

    def test_renyi2_matches_collision(self):
        d = DiscreteDistribution([0.5, 0.25, 0.25])
        assert d.renyi2_entropy() == pytest.approx(-np.log(d.collision_probability()))


class TestSampling:
    def test_sample_shape_and_range(self):
        d = uniform(50)
        s = d.sample(1000, rng=0)
        assert s.shape == (1000,)
        assert s.min() >= 0 and s.max() < 50

    def test_sample_deterministic_with_seed(self):
        d = uniform(50)
        assert np.array_equal(d.sample(100, rng=5), d.sample(100, rng=5))

    def test_sample_zero(self):
        assert uniform(10).sample(0, rng=0).size == 0

    def test_sample_negative_raises(self):
        with pytest.raises(ValueError):
            uniform(10).sample(-1)

    def test_sample_respects_support(self):
        d = DiscreteDistribution([0.0, 1.0, 0.0])
        assert set(d.sample(200, rng=1)) == {1}

    def test_sample_matrix_shape(self):
        m = uniform(20).sample_matrix(4, 6, rng=2)
        assert m.shape == (4, 6)

    def test_sample_uniform_matrix_pinned_to_sample_matrix(self):
        d = DiscreteDistribution([0.5, 0.25, 0.25])
        u = d.sample_uniform_matrix(4, 6, rng=2)
        assert u.shape == (4, 6)
        assert np.array_equal(d.index_quantiles(u), d.sample_matrix(4, 6, rng=2))

    def test_sample_uniform_matrix_negative_raises(self):
        with pytest.raises(ValueError):
            uniform(10).sample_uniform_matrix(-1, 3)

    def test_sample_frequencies_converge(self):
        d = DiscreteDistribution([0.7, 0.3])
        s = d.sample(20_000, rng=3)
        assert (s == 0).mean() == pytest.approx(0.7, abs=0.02)


class TestQuantileSplit:
    """``sample`` must equal ``index_quantiles ∘ sample_uniform`` exactly.

    The LOCAL trial plane leans on this split (draw every slot's driver
    value, quantile-map only the slots it reads), so the equality is a
    bit-identity contract, not an approximation.
    """

    _CASES = [
        uniform(200),
        DiscreteDistribution([0.7, 0.3]),
        # Zero-mass runs exercise the guide table's tie handling.
        DiscreteDistribution(
            np.concatenate([np.full(50, 0.02), np.zeros(100)])
        ),
        DiscreteDistribution(np.linspace(1, 40, 40) / np.linspace(1, 40, 40).sum()),
    ]

    @pytest.mark.parametrize("seed", [0, 1, 2018])
    @pytest.mark.parametrize("case", range(len(_CASES)))
    def test_split_matches_sample_bit_for_bit(self, case, seed):
        d = self._CASES[case]
        want = d.sample(5_000, rng=seed)
        got = d.index_quantiles(d.sample_uniform(5_000, rng=seed))
        np.testing.assert_array_equal(got, want)

    def test_sample_uniform_consumes_generator_like_sample(self):
        d = uniform(64)
        g1, g2 = np.random.default_rng(9), np.random.default_rng(9)
        d.sample(257, rng=g1)
        d.sample_uniform(257, rng=g2)
        assert g1.bit_generator.state == g2.bit_generator.state

    def test_index_quantiles_matches_searchsorted(self):
        d = DiscreteDistribution([0.5, 0.0, 0.25, 0.25])
        u = np.linspace(0.0, 1.0, 101, endpoint=False)
        cdf = d.probs.cumsum()
        cdf /= cdf[-1]
        np.testing.assert_array_equal(
            d.index_quantiles(u), cdf.searchsorted(u, side="right")
        )

    def test_index_quantiles_rejects_out_of_range(self):
        d = uniform(4)
        for bad in ([-0.1], [1.0]):
            with pytest.raises(ValueError, match=r"\[0, 1\)"):
                d.index_quantiles(np.asarray(bad))

    def test_sample_uniform_validation_and_zero(self):
        assert uniform(5).sample_uniform(0, rng=0).size == 0
        with pytest.raises(ValueError):
            uniform(5).sample_uniform(-1)

    def test_max_bin_width_bounds_same_outcome_pairs(self):
        d = DiscreteDistribution([0.5, 0.1, 0.4])
        assert d.max_bin_width() == pytest.approx(0.5)
        # Any two driver draws mapping to one outcome differ by < width.
        u = np.sort(d.sample_uniform(4_000, rng=7))
        idx = d.index_quantiles(u)
        gaps = np.diff(u)
        assert (gaps[np.diff(idx) == 0] < d.max_bin_width()).all()


def _assert_sample_is_choice(d: DiscreteDistribution, size: int, seed: int) -> None:
    """``d.sample`` equals numpy's ``Generator.choice`` on one seed: values,
    dtype, shape and the bit-generator state left behind."""
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = d.sample(size, rng=ours)
    want = ref.choice(d.n, size, p=d.probs)
    assert got.dtype == np.int64
    assert got.shape == (size,)
    np.testing.assert_array_equal(got, want)
    assert ours.bit_generator.state == ref.bit_generator.state


class TestSamplePinnedToChoice:
    """``sample`` is the cached inverse-CDF lookup; numpy's
    ``Generator.choice`` is its reference, compared directly."""

    _CASES = {
        "uniform": uniform(1_000),
        "paninski": paninski_pair(1_000, 0.6, rng=4),
        "support": restricted_support(1_000, 0.8),
        "heavy": heavy_element(1_000, 0.9),
        "zipf": zipf(5_000, 1.2),
        "zero_ends": DiscreteDistribution(
            np.concatenate([np.zeros(7), np.full(20, 0.05), np.zeros(11)])
        ),
        # 1e-20 and 5e-324 sit below the CDF's ulp: no step, never drawn.
        "sub_ulp": DiscreteDistribution([0.5, 1e-20, 0.25, 5e-324, 0.25]),
        "single": DiscreteDistribution([1.0]),
        # Mass 1 - 1e-9 on outcome 0, the rest spread over 49 999 outcomes:
        # their steps cluster in a handful of guide buckets.
        "clustered": DiscreteDistribution(
            np.concatenate([[1.0 - 1e-9], np.full(49_999, 1e-9 / 49_999)])
        ),
    }

    _SIZES = [
        0, 1, 24,
        _LOOKUP_BLOCK - 1, _LOOKUP_BLOCK, _LOOKUP_BLOCK + 1,
        3 * _LOOKUP_BLOCK + 17,
    ]

    @pytest.mark.parametrize("size", _SIZES)
    @pytest.mark.parametrize("name", sorted(_CASES))
    def test_sample_equals_choice(self, name, size):
        _assert_sample_is_choice(self._CASES[name], size, seed=size + 1)

    @pytest.mark.parametrize("name", sorted(_CASES))
    def test_lookup_at_cdf_edges_equals_searchsorted(self, name):
        """Draws landing exactly on, or one ulp either side of, a CDF
        value: the rare inputs a seeded stream almost never produces."""
        d = self._CASES[name]
        cdf = d.probs.cumsum()
        cdf /= cdf[-1]
        u = np.concatenate([
            cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
            [0.0, np.nextafter(1.0, 0.0)],
        ])
        u = u[(u >= 0.0) & (u < 1.0)]
        np.testing.assert_array_equal(
            d.index_quantiles(u), cdf.searchsorted(u, side="right")
        )

    def test_clustered_steps_are_bisected(self):
        """Draws inside the cluster of tiny steps (which a seeded stream
        almost never reaches) bisect their bucket to the same answer."""
        d = self._CASES["clustered"]
        assert d._quantile_table().wide is not None
        cdf = d.probs.cumsum()
        cdf /= cdf[-1]
        u = np.sort(1.0 - np.random.default_rng(3).random(20_000) * 2e-9)
        np.testing.assert_array_equal(
            d.index_quantiles(u), cdf.searchsorted(u, side="right")
        )

    @settings(max_examples=150, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
            min_size=1,
            max_size=60,
        ).filter(lambda w: sum(w) > 1e-6),
        size=st.integers(0, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_random_vectors_with_zeros(self, weights, size, seed):
        arr = np.asarray(weights, dtype=np.float64)
        _assert_sample_is_choice(DiscreteDistribution(arr / arr.sum()), size, seed)


class TestDerivations:
    def test_mix_halfway(self):
        a = DiscreteDistribution([1.0, 0.0])
        b = DiscreteDistribution([0.0, 1.0])
        assert np.allclose(a.mix(b, 0.5).probs, [0.5, 0.5])

    def test_mix_domain_mismatch(self):
        with pytest.raises(InvalidDistributionError):
            uniform(3).mix(uniform(4), 0.5)

    def test_permuted_preserves_multiset(self):
        d = DiscreteDistribution([0.5, 0.3, 0.2])
        p = d.permuted([2, 0, 1])
        assert sorted(p.probs) == sorted(d.probs)
        assert p.prob(2) == pytest.approx(0.5)

    def test_permuted_invalid(self):
        with pytest.raises(ValueError):
            uniform(3).permuted([0, 0, 1])

    def test_conditioned_on(self):
        d = DiscreteDistribution([0.5, 0.3, 0.2])
        c = d.conditioned_on([0, 1])
        assert c.prob(2) == 0.0
        assert c.prob(0) == pytest.approx(0.625)

    def test_conditioned_on_null_event(self):
        d = DiscreteDistribution([0.5, 0.5, 0.0])
        with pytest.raises(InvalidDistributionError):
            d.conditioned_on([2])


class TestValueSemantics:
    def test_equality(self):
        assert uniform(5) == uniform(5)
        assert uniform(5) != uniform(6)

    def test_hash_consistency(self):
        assert hash(uniform(5)) == hash(uniform(5))

    def test_repr_mentions_name(self):
        assert "uniform" in repr(uniform(5))
