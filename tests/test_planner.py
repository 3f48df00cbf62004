import json
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from resilinet import gcn, swarm
from resilinet.damage import DamageScenario, apply_damage, remaining_adjacency
from resilinet.gcn import Hyperparams, ModelWeights, pretrain
from resilinet.planner import (METHOD_CENTERING, METHOD_FALLBACK, METHOD_LEARNED,
                               RecoveryPlan, load_plan, plan_centering,
                               plan_learned, plan_recovery, save_plan, verify_plan)
from resilinet.simulate import ExperimentSpec, run_experiment
from resilinet.swarm import SwarmTopology, count_subnets, generate_swarm

from _oracles import eigencount_components
from resilinet.swarm import build_adjacency

TINY = Hyperparams(hidden_dim=8, blocks=1, dropout=0.0, online_iters=25,
                   pretrain_iters=1)


def square_topology():
    positions = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]])
    return SwarmTopology(positions=positions, comm_range=120.0, side=100.0)


class TestPlanCentering:
    def test_square_with_one_corner_destroyed(self):
        topo = square_topology()
        scenario = DamageScenario(destroyed=np.array([3]),
                                  remaining=np.array([0, 1, 2]))
        plan = plan_centering(topo, scenario, max_speed=10.0)
        assert np.allclose(plan.targets, [[50.0, 50.0]] * 3)
        assert plan.planned_time == pytest.approx(np.sqrt(2) * 50.0 / 10.0)
        assert plan.method == METHOD_CENTERING

    def test_planned_time_equals_worst_case_bound(self):
        topo = generate_swarm(25, 200.0, 120.0, seed=2)
        scenario = apply_damage(topo, 12, seed=3)
        plan = plan_centering(topo, scenario, max_speed=10.0)
        center = topo.positions.mean(axis=0)
        start = topo.positions[scenario.remaining]
        bound = np.linalg.norm(start - center, axis=1).max() / 10.0
        assert plan.planned_time == pytest.approx(bound)

    def test_always_verifies(self):
        for seed in range(5):
            topo = generate_swarm(20, 200.0, 120.0, seed=seed)
            scenario = apply_damage(topo, 10, seed=seed + 50)
            plan = plan_centering(topo, scenario)
            assert verify_plan(plan, topo.comm_range)


class TestVerifyPlan:
    def test_identity_plan_fails_on_split_scenario(self):
        topo = generate_swarm(20, 200.0, 120.0, seed=4)
        scenario = apply_damage(topo, 10, seed=5)
        identity = RecoveryPlan(targets=topo.positions[scenario.remaining].copy(),
                                planned_time=0.0, method=METHOD_CENTERING)
        assert not verify_plan(identity, topo.comm_range)
        assert count_subnets(remaining_adjacency(topo, scenario)) >= 2

    def test_matches_eigencount_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            targets = rng.uniform(0, 400, size=(12, 2))
            plan = RecoveryPlan(targets=targets, planned_time=0.0,
                                method=METHOD_CENTERING)
            adjacency = build_adjacency(targets, 120.0)
            assert verify_plan(plan, 120.0) == (eigencount_components(adjacency) == 1)


class TestPlanLearned:
    def test_already_connected_scenario_is_zero_motion(self):
        topo = generate_swarm(14, 200.0, 120.0, seed=8)
        # find a draw that does not split the survivors
        for seed in range(100):
            scenario = apply_damage(topo, 3, seed=seed, require_split=False)
            if count_subnets(remaining_adjacency(topo, scenario)) == 1:
                break
        weights = ModelWeights.init_scaled_uniform(8, 1, seed=0)
        plan = plan_learned(topo, scenario, weights, TINY)
        assert plan.method == METHOD_LEARNED
        assert plan.k_star == 1 and plan.iterations == 0
        assert plan.planned_time == 0.0
        assert np.array_equal(plan.targets, topo.positions[scenario.remaining])

    def test_total_guarantee_on_split_cases(self):
        weights = ModelWeights.init_scaled_uniform(8, 1, seed=1)
        for seed in range(6):
            topo = generate_swarm(16, 200.0, 120.0, seed=seed + 20)
            scenario = apply_damage(topo, 7, seed=seed + 70)
            plan = plan_learned(topo, scenario, weights, TINY, seed=seed)
            assert plan.method in (METHOD_LEARNED, METHOD_FALLBACK)
            assert verify_plan(plan, topo.comm_range)
            center = topo.positions.mean(axis=0)
            start = topo.positions[scenario.remaining]
            bound = np.linalg.norm(start - center, axis=1).max() / TINY.max_speed
            assert plan.planned_time <= bound + 1e-9

    def test_planned_time_matches_target_distances(self):
        weights = ModelWeights.init_scaled_uniform(8, 1, seed=1)
        topo = generate_swarm(16, 200.0, 120.0, seed=26)
        scenario = apply_damage(topo, 7, seed=76)
        plan = plan_learned(topo, scenario, weights, TINY, seed=0)
        start = topo.positions[scenario.remaining]
        expected = np.linalg.norm(plan.targets - start, axis=1).max() / TINY.max_speed
        assert plan.planned_time == pytest.approx(expected)
        assert plan.iterations == TINY.online_iters


class TestPlanChoice:
    """The one rule: the fastest connected branch, the lowest on a tie, if it beats the centroid."""

    @staticmethod
    def plan_with_metrics(monkeypatch, edit):
        topo = generate_swarm(16, 200.0, 120.0, seed=26)
        scenario = apply_damage(topo, 7, seed=76)
        real = gcn.per_branch_metrics

        def edited(*args):
            metrics = real(*args)
            edit(metrics)
            return metrics

        monkeypatch.setattr(gcn, "per_branch_metrics", edited)
        weights = ModelWeights.init_scaled_uniform(8, 1, seed=1)
        plan = plan_learned(topo, scenario, weights, TINY, seed=0)
        return plan, plan_centering(topo, scenario, TINY.max_speed)

    def test_no_connected_branch_falls_back_to_the_centroid(self, monkeypatch):
        def split(metrics):
            metrics.subnet_counts[:] = 2

        plan, centroid = self.plan_with_metrics(monkeypatch, split)
        assert plan.method == METHOD_FALLBACK and plan.k_star is None
        assert np.array_equal(plan.targets, centroid.targets)
        assert plan.planned_time == centroid.planned_time
        assert plan.iterations == TINY.online_iters

    def test_a_branch_slower_than_the_centroid_falls_back(self, monkeypatch):
        plan, _ = self.plan_with_metrics(monkeypatch, lambda metrics: None)
        assert plan.method == METHOD_LEARNED

        def slow(metrics):
            metrics.flight_times[:] *= 1e6

        plan, centroid = self.plan_with_metrics(monkeypatch, slow)
        assert plan.method == METHOD_FALLBACK and plan.k_star is None
        assert np.array_equal(plan.targets, centroid.targets)
        assert plan.planned_time == centroid.planned_time

    def test_a_tie_goes_to_the_lowest_branch(self, monkeypatch):
        def tie(metrics):
            assert metrics.flight_times.shape == (3,)
            metrics.flight_times[:] = [2e-3, 1e-3, 1e-3]
            metrics.subnet_counts[:] = 1

        plan, _ = self.plan_with_metrics(monkeypatch, tie)
        assert plan.method == METHOD_LEARNED
        assert plan.k_star == 2 and plan.planned_time == 1e-3


@st.composite
def planning_cases(draw):
    """A connected swarm of 8-20 nodes with a third or more destroyed, split or not."""
    n = draw(st.integers(8, 20))
    topology = generate_swarm(n, 200.0, 120.0, seed=draw(st.integers(0, 2**32 - 1)))
    scenario = apply_damage(topology, draw(st.integers(n // 3, n - 1)),
                            seed=draw(st.integers(0, 2**32 - 1)), require_split=False)
    return topology, scenario


class TestPlanProperties:
    @settings(max_examples=60, deadline=None)
    @given(planning_cases(), st.sampled_from((METHOD_LEARNED, METHOD_CENTERING)))
    def test_plan_is_connected_and_within_the_centroid_bound(self, case, method):
        topology, scenario = case
        weights = ModelWeights.init_scaled_uniform(8, 1, seed=1)
        plan = plan_recovery(method, topology, scenario, TINY, weights)
        assert verify_plan(plan, topology.comm_range)
        bound = plan_centering(topology, scenario, TINY.max_speed).planned_time
        assert plan.planned_time <= bound
        if plan.method == METHOD_LEARNED:
            start = topology.positions[scenario.remaining]
            distance = np.linalg.norm(plan.targets - start, axis=1).max()
            assert plan.planned_time == distance / TINY.max_speed


def count_calls(monkeypatch, function) -> list:
    """Wrap every binding of ``function`` in every loaded resilinet module.

    A name imported into another module is a binding of its own, so each one
    is found by identity and patched; the returned list grows by one per call.
    """
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "resilinet" or name.startswith("resilinet."):
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestOneHopPass:
    """The branch count and every branch come from one all-pairs hop pass."""

    def test_plan_learned(self, monkeypatch):
        topo = generate_swarm(16, 200.0, 120.0, seed=26)
        scenario = apply_damage(topo, 7, seed=76)
        weights = ModelWeights.init_scaled_uniform(8, 1, seed=1)
        hops = count_calls(monkeypatch, swarm.hop_distances)
        diameters = count_calls(monkeypatch, swarm.diameter_hops)
        plan_learned(topo, scenario, weights, Hyperparams(
            hidden_dim=8, blocks=1, dropout=0.0, online_iters=2), seed=0)
        assert len(hops) == 1
        assert diameters == []

    def test_pretrain(self, monkeypatch):
        hops = count_calls(monkeypatch, swarm.hop_distances)
        diameters = count_calls(monkeypatch, swarm.diameter_hops)
        pretrain(16, 200.0, 120.0, seed=3, config=TINY)
        assert len(hops) == 1
        assert diameters == []


class TestOneAdjacencyBuild:
    """A topology builds its disk graph once; damage, input graph and kernel read it."""

    @staticmethod
    def builds_on(monkeypatch, positions):
        calls = count_calls(monkeypatch, swarm.build_adjacency)
        return lambda: sum(np.array_equal(args[0], positions) for args in calls)

    def test_pretrain(self, monkeypatch):
        topo_seed = int(np.random.SeedSequence(3).generate_state(4)[0])
        topo = generate_swarm(16, 200.0, 120.0, topo_seed)
        builds = self.builds_on(monkeypatch, topo.positions)
        pretrain(16, 200.0, 120.0, seed=3, config=TINY)
        assert builds() == 1

    @pytest.mark.parametrize("method", [METHOD_CENTERING, METHOD_LEARNED])
    def test_trial(self, monkeypatch, method):
        spec = ExperimentSpec(n=16, damage_sizes=(7,), trials=1, seeds=(5,), methods=(method,))
        topo_seed = int(np.random.SeedSequence(5).generate_state(3)[0])
        topo = generate_swarm(16, spec.density_per_km2, spec.comm_range, topo_seed)
        builds = self.builds_on(monkeypatch, topo.positions)
        results = run_experiment(spec, ModelWeights.init_scaled_uniform(8, 1, seed=1), TINY)
        assert not results.trials[0].skipped
        assert builds() == 1

    def test_plan_learned_on_a_given_topology(self, monkeypatch):
        topo = generate_swarm(16, 200.0, 120.0, seed=26)
        scenario = apply_damage(topo, 7, seed=76)
        weights = ModelWeights.init_scaled_uniform(8, 1, seed=1)
        builds = self.builds_on(monkeypatch, topo.positions)
        plan_learned(topo, scenario, weights, TINY, seed=0)
        assert builds() == 0


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def plans(draw):
    """Any method's plan: finite targets, a learned plan's branch, else no k_star."""
    method = draw(st.sampled_from((METHOD_CENTERING, METHOD_LEARNED, METHOD_FALLBACK)))
    points = draw(st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=12))
    return RecoveryPlan(targets=np.array(points), planned_time=draw(st.floats(0.0, 1e6)),
                        method=method,
                        k_star=draw(st.integers(1, 12)) if method == METHOD_LEARNED else None)


class TestPlanFile:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(plans())
    def test_round_trip(self, tmp_path, plan):
        """Save, load, save gives the same bytes; targets come back bit for bit."""
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_plan(first, plan, scenario_ref="scenario.json")
        loaded = load_plan(first)
        save_plan(second, loaded, scenario_ref="scenario.json")
        assert second.read_bytes() == first.read_bytes()
        assert (loaded.method, loaded.k_star) == (plan.method, plan.k_star)
        assert loaded.planned_time == plan.planned_time
        assert loaded.targets.dtype == plan.targets.dtype
        assert loaded.targets.tobytes() == plan.targets.tobytes()

    @pytest.mark.parametrize("targets", [[[0.0, float("nan")], [1.0, 2.0]],
                                         [[0.0, float("inf")]],
                                         [[1.0, 2.0, 3.0]], [1.0, 2.0], []],
                             ids=["nan", "inf", "three_columns", "flat", "empty"])
    def test_rejects_malformed_targets(self, tmp_path, targets):
        path = tmp_path / "plan.json"
        save_plan(path, plan_centering(square_topology(), DamageScenario(
            destroyed=np.array([3]), remaining=np.array([0, 1, 2]))))
        payload = json.loads(path.read_text())
        payload["targets"] = targets
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="targets"):
            load_plan(path)

    @pytest.mark.parametrize("field", ["method", "k_star", "targets", "planned_T_rc_s"])
    def test_rejects_missing_field(self, tmp_path, field):
        path = tmp_path / "plan.json"
        save_plan(path, plan_centering(square_topology(), DamageScenario(
            destroyed=np.array([3]), remaining=np.array([0, 1, 2]))))
        payload = json.loads(path.read_text())
        del payload[field]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"plan file lacks required field '{field}'"):
            load_plan(path)
