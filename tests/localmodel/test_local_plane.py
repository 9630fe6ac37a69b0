"""Tests for the LOCAL trial plane: MIS layout replay + batched verdicts.

The load-bearing property throughout: the fast path must be
**bit-identical per seed** to the scalar Section 6 tester — same MIS,
same catchments, same samples, same AND-rule verdict — because the
protocol's control flow never reads a sample's value.  Every test here
pins some face of that contract against real engine runs.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.distributions import DiscreteDistribution, far_family, uniform
from repro.exceptions import (
    InfeasibleParametersError,
    ParameterError,
    SimulationError,
)
from repro.experiments.runner import TrialRunner
from repro.localmodel import LocalLayout, LocalTrialRunner, LocalUniformityTester
from repro.localmodel.gather import assign_catchments
from repro.localmodel.local_plane import (
    LocalVerdictKernel,
    effective_radius,
    mis_generator,
    power_adjacency,
    replay_luby_mis,
)
from repro.localmodel.mis import luby_mis
from repro.localmodel.tester import _LocalTrialExperiment
from repro.simulator import Topology

# Feasible small instance (see DESIGN.md E7 economics): weak p, eps near
# the top of its range so Theorem 1.1 fits the realised catchments.
N, EPS, P = 2_000, 1.5, 0.45
SEEDS = [11, 22, 33, 44]

#: Structural (layout) coverage: feasibility not required.
TOPOLOGIES = {
    "ring": Topology.ring(512),
    "grid": Topology.grid(16, 16),
    "star": Topology.star(65),
}

#: Verdict coverage needs a feasible AND rule: the star collapses to one
#: virtual node at r >= 2 (never feasible), so it is structural-only.
VERDICT_CONFIGS = [
    ("ring", Topology.ring(512), 16),
    ("grid", Topology.grid(32, 32), 8),
]


@pytest.fixture(scope="module")
def tester():
    return LocalUniformityTester(n=N, eps=EPS, p=P)


@pytest.fixture(scope="module")
def far():
    return far_family("support", N, EPS)


class TestPowerAdjacency:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_matches_power_graph(self, name, r):
        """Property: the bitset BFS reproduces Topology.power_graph."""
        topo = TOPOLOGIES[name]
        src, dst = power_adjacency(topo, r)
        power = topo.power_graph(r)
        want = sorted((v, u) for v in range(topo.k) for u in power.neighbors(v))
        assert want == sorted(zip(src.tolist(), dst.tolist()))

    def test_rejects_bad_radius(self):
        with pytest.raises(ParameterError, match="power"):
            power_adjacency(TOPOLOGIES["ring"], 0)


class TestReplayLubyMis:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_engine_run(self, name, seed):
        """Property: membership AND round count equal the engine's,
        drawing the same per-node keyed priorities."""
        topo = TOPOLOGIES[name]
        radius = effective_radius(topo, 4)
        power = topo.power_graph(radius)
        membership, rounds = replay_luby_mis(
            topo.k, power_adjacency(topo, radius), mis_generator(seed, radius)
        )
        engine_mis, engine_rounds = luby_mis(power, mis_generator(seed, radius))
        assert [bool(b) for b in membership] == engine_mis
        assert rounds == engine_rounds

    def test_edgeless_graph_joins_everyone_without_drawing(self):
        """No drawers -> all-MIS at zero rounds, and crucially the parent
        generator is never spawned (matching the engine's lazy spawn)."""
        gen = mis_generator(7, 1)
        before = gen.bit_generator.state
        membership, rounds = replay_luby_mis(
            4, (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)), gen
        )
        assert membership.all() and rounds == 0
        assert gen.bit_generator.state == before


class TestLocalLayout:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_engine_structures(self, name, seed):
        """Property: MIS membership, round count, and every node's
        catchment owner equal a real engine run on the same seed."""
        topo = TOPOLOGIES[name]
        layout = LocalLayout.build(topo, 4, base_seed=seed)
        check = layout.verify_layout(topo)
        assert check.equivalent, check.mismatched_nodes
        # Catchments also reachable directly from the engine membership.
        engine_mis, _ = luby_mis(
            topo.power_graph(layout.radius), mis_generator(seed, layout.radius)
        )
        gather = assign_catchments(topo, engine_mis, layout.radius)
        assert layout.gather == gather

    def test_cached_on_schedule(self):
        topo = Topology.ring(64)
        first = LocalLayout.build(topo, 4, base_seed=1)
        assert LocalLayout.build(topo, 4, base_seed=1) is first
        # Raw radii sharing the effective radius share the cache entry...
        assert LocalLayout.build(topo, 4, base_seed=2) is not first
        big = LocalLayout.build(topo, 100, base_seed=1)
        assert LocalLayout.build(topo, 200, base_seed=1) is big

    def test_rejects_bad_parameters(self):
        topo = Topology.ring(64)
        with pytest.raises(ParameterError, match="radius"):
            LocalLayout.build(topo, 0)
        layout = LocalLayout.build(topo, 4, base_seed=0)
        with pytest.raises(ParameterError, match="built for k"):
            layout.verify_layout(Topology.ring(65))


class TestLocalTrialRunner:
    @pytest.mark.parametrize("name,topo,r", VERDICT_CONFIGS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fast_flags_match_scalar(self, tester, far, name, topo, r, seed):
        """Property: per-trial error flags are bit-identical to the
        scalar test_with_plan experiment on the same chunk streams."""
        runner = LocalTrialRunner.build(tester, topo, r, base_seed=seed)
        plan = tester.plan(
            topo, r, mis_generator(seed, effective_radius(topo, r))
        )
        for dist, is_uniform in ((uniform(N), True), (far, False)):
            fast = runner.run_flags(dist, is_uniform, 40)
            experiment = _LocalTrialExperiment(
                tester=tester, plan=plan,
                distribution=dist, is_uniform=is_uniform,
            )
            scalar = TrialRunner(base_seed=seed).run_flags(
                experiment, 40, "local", topo.k
            )
            np.testing.assert_array_equal(fast, scalar)

    def test_per_seed_verdicts_match_test_with_plan(self, tester):
        topo = Topology.ring(512)
        runner = LocalTrialRunner.build(tester, topo, 16, base_seed=5)
        plan = tester.plan(topo, 16, mis_generator(5, 16))
        dist = uniform(N)
        fast = runner.verdicts_for_seeds(dist, SEEDS)
        scalar = [tester.test_with_plan(plan, dist, rng=s) for s in SEEDS]
        assert fast == scalar

    def test_estimate_error_routes_agree(self, tester, far):
        """estimate_error(fast_path=True) == the scalar route, trial by
        trial — engine_check=1.0 re-runs every trial and would raise."""
        topo = Topology.ring(512)
        fast = tester.estimate_error(
            topo, far, False, 16, 30, rng=9,
            fast_path=True, engine_check=1.0,
        )
        scalar = tester.estimate_error(topo, far, False, 16, 30, rng=9)
        assert fast == scalar

    def test_generator_rng_keeps_legacy_route(self, tester):
        """Both routes refuse a shared Generator: trials are chunk-keyed
        by a seed, and a live generator has none."""
        topo = Topology.ring(512)
        for fast_path in (False, True):
            with pytest.raises(ParameterError, match="seed-like"):
                tester.estimate_error(
                    topo, uniform(N), True, 16, 5,
                    rng=np.random.default_rng(3), fast_path=fast_path,
                )

    def test_engine_check_detects_verdict_divergence(self, tester):
        """A runner with corrupted slot lists must fail the prefix check:
        duplicating a slot forces a collision in every repetition."""
        topo = Topology.ring(512)
        good = LocalTrialRunner.build(tester, topo, 16, base_seed=9)
        members = good.members.copy()
        members[:, 1:] = members[:, :1]  # all repetitions self-collide
        bad = dataclasses.replace(good, members=members)
        with pytest.raises(SimulationError, match="diverge"):
            bad.run_flags(uniform(N), True, 20, engine_check=1.0)

    def test_engine_check_detects_layout_divergence(self, tester):
        """A corrupted layout must fail the engine MIS cross-check."""
        topo = Topology.ring(512)
        good = LocalTrialRunner.build(tester, topo, 16, base_seed=9)
        flipped = dataclasses.replace(
            good.layout, membership=~good.layout.membership
        )
        bad = dataclasses.replace(good, layout=flipped)
        with pytest.raises(SimulationError, match="layout diverges"):
            bad.run_flags(uniform(N), True, 20, engine_check=0.5)

    def test_engine_check_validation(self, tester, far):
        runner = LocalTrialRunner.build(tester, Topology.ring(512), 16)
        with pytest.raises(ParameterError, match="engine_check"):
            runner.run_flags(far, False, 4, engine_check=1.5)

    def test_infeasible_radius_raises(self, tester):
        with pytest.raises(InfeasibleParametersError):
            LocalTrialRunner.build(tester, Topology.ring(512), 2)


class TestGapFilterBoundary:
    def test_collision_at_exactly_max_bin_width_is_kept(self):
        """Two draws in one outcome whose rounded gap equals the widest
        CDF step are a collision: the gap filter must keep ``<=``."""
        a = 3 * 2.0**-55
        dist = DiscreteDistribution([a, 0.5 - a, 0.25, 0.25])
        u = np.array([[a, np.nextafter(0.5, 0.0)]])
        assert u[0, 1] - u[0, 0] == dist.max_bin_width()
        assert dist.index_quantiles(u).tolist() == [[1, 1]]
        kernel = LocalVerdictKernel(
            distribution=dist, members=np.array([[0, 1]]), m=1,
            total_samples=2, is_uniform=False,
        )
        # One virtual node, one repetition, one collision: reject.
        assert kernel.accepts_uniform(u).tolist() == [False]


class TestChooseRadiusFastPath:
    def test_probe_feasible_at_own_seed_and_cached(self, tester):
        """The fast search's answer must be feasible under the same base
        seed, served from the layout cache the sweep will then hit."""
        topo = Topology.ring(512)
        r = tester.choose_radius(topo, rng=4, start=2, fast_path=True)
        runner = LocalTrialRunner.build(tester, topo, r, base_seed=4)
        assert runner.layout is LocalLayout.build(topo, r, base_seed=4)
        assert runner.params.samples_per_node <= runner.layout.min_catchment

    def test_scalar_and_fast_raise_on_infeasible_network(self):
        small = LocalUniformityTester(n=1_000_000, eps=0.5, p=1 / 3)
        for fast_path in (False, True):
            with pytest.raises(InfeasibleParametersError):
                small.choose_radius(
                    Topology.ring(8), rng=0, fast_path=fast_path
                )

    def test_fast_path_rejects_generator(self, tester):
        with pytest.raises(ParameterError, match="seed-like"):
            tester.choose_radius(
                Topology.ring(512), rng=np.random.default_rng(1),
                fast_path=True,
            )
