import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from resilinet.damage import (DamageError, DamageScenario, apply_damage,
                              build_input_graph, load_scenario,
                              remaining_adjacency, save_scenario)
from resilinet.swarm import SwarmTopology, count_subnets, generate_swarm

from _oracles import induced_subgraph


@st.composite
def damage_cases(draw):
    """A random damage scenario: 10-60 uniform nodes at 200/km^2, any destroyed subset.

    The topology need not be connected, nor the survivors split.
    """
    n = draw(st.integers(10, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = 1000.0 * math.sqrt(n / 200.0)
    topology = SwarmTopology(rng.uniform(0.0, side, size=(n, 2)), 120.0, side)
    destroyed = rng.choice(n, size=draw(st.integers(1, n - 1)), replace=False)
    return topology, DamageScenario(destroyed, np.setdiff1d(np.arange(n), destroyed))


def line_topology(n, spacing=100.0, comm_range=120.0):
    positions = np.column_stack([np.arange(n) * spacing, np.zeros(n)])
    return SwarmTopology(positions=positions, comm_range=comm_range,
                         side=spacing * (n - 1))


class TestApplyDamage:
    def test_split_requirement_holds(self):
        topo = generate_swarm(20, 200.0, 120.0, seed=1)
        scenario = apply_damage(topo, 10, seed=2)
        assert count_subnets(remaining_adjacency(topo, scenario)) >= 2

    def test_deterministic_for_seed(self):
        topo = generate_swarm(20, 200.0, 120.0, seed=1)
        a = apply_damage(topo, 8, seed=5)
        b = apply_damage(topo, 8, seed=5)
        assert np.array_equal(a.destroyed, b.destroyed)

    def test_half_damage_at_experiment_scale(self):
        topo = generate_swarm(200, 200.0, 120.0, seed=6)
        assert topo.side == pytest.approx(1000.0)
        scenario = apply_damage(topo, 100, seed=7)
        assert scenario.n_remaining == 100
        assert count_subnets(remaining_adjacency(topo, scenario)) > 1

    def test_single_survivor_never_splits(self):
        topo = generate_swarm(10, 200.0, 120.0, seed=1)
        with pytest.raises(DamageError):
            apply_damage(topo, 9, seed=0, max_attempts=50)
        scenario = apply_damage(topo, 9, seed=0, require_split=False)
        assert scenario.n_remaining == 1
        assert count_subnets(remaining_adjacency(topo, scenario)) == 1

    def test_damage_size_bounds(self):
        topo = generate_swarm(10, 200.0, 120.0, seed=1)
        with pytest.raises(ValueError):
            apply_damage(topo, 0, seed=0)
        with pytest.raises(ValueError):
            apply_damage(topo, 10, seed=0)

    def test_partition_is_exact(self):
        topo = generate_swarm(25, 200.0, 120.0, seed=3)
        scenario = apply_damage(topo, 12, seed=4)
        union = np.union1d(scenario.destroyed, scenario.remaining)
        assert np.array_equal(union, np.arange(25))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            DamageScenario(destroyed=np.array([1, 2]), remaining=np.array([2, 3]))

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            DamageScenario(destroyed=np.array([1, 1]), remaining=np.array([0, 2]))


class TestRemainingAdjacency:
    def test_cut_vertex_splits_path(self):
        topo = line_topology(3)
        scenario = DamageScenario(destroyed=np.array([1]), remaining=np.array([0, 2]))
        assert count_subnets(remaining_adjacency(topo, scenario)) == 2

    def test_leaf_removal_keeps_connectivity(self):
        topo = line_topology(3)
        scenario = DamageScenario(destroyed=np.array([2]), remaining=np.array([0, 1]))
        assert count_subnets(remaining_adjacency(topo, scenario)) == 1

    def test_matches_induced_subgraph_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            topo = generate_swarm(18, 200.0, 120.0, seed=int(rng.integers(1000)))
            scenario = apply_damage(topo, 8, seed=int(rng.integers(1000)),
                                    require_split=False)
            expected = induced_subgraph(topo.adjacency(), scenario.remaining)
            assert np.array_equal(remaining_adjacency(topo, scenario), expected)


class TestBuildInputGraph:
    def test_three_node_ordering(self):
        topo = line_topology(3)
        scenario = DamageScenario(destroyed=np.array([1]), remaining=np.array([0, 2]))
        graph = build_input_graph(topo, scenario)
        assert np.array_equal(graph.order, [0, 2, 1])
        assert np.array_equal(graph.features, topo.positions[[0, 2, 1]])

    def test_inverse_permutation_recovers_original(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            topo = generate_swarm(15, 200.0, 120.0, seed=int(rng.integers(1000)))
            scenario = apply_damage(topo, 6, seed=int(rng.integers(1000)),
                                    require_split=False)
            graph = build_input_graph(topo, scenario)
            inverse = np.argsort(graph.order)
            restored = graph.adjacency[np.ix_(inverse, inverse)]
            assert np.array_equal(restored, topo.adjacency())
            assert np.array_equal(graph.features[inverse], topo.positions)

    def test_spectrum_is_permutation_invariant(self):
        topo = generate_swarm(20, 200.0, 120.0, seed=12)
        scenario = apply_damage(topo, 9, seed=13, require_split=False)
        graph = build_input_graph(topo, scenario)
        original = np.sort(np.linalg.eigvalsh(topo.adjacency().astype(float)))
        permuted = np.sort(np.linalg.eigvalsh(graph.adjacency.astype(float)))
        assert np.allclose(original, permuted, atol=1e-9)

    def test_remaining_block_leads(self):
        topo = generate_swarm(12, 200.0, 120.0, seed=2)
        scenario = apply_damage(topo, 5, seed=3, require_split=False)
        graph = build_input_graph(topo, scenario)
        assert np.array_equal(graph.order[: graph.n_remaining], scenario.remaining)
        assert np.array_equal(graph.order[graph.n_remaining:], scenario.destroyed)


@st.composite
def scenarios(draw):
    """(n, scenario): any non-empty destroyed set of 2-60 nodes that leaves a survivor."""
    n = draw(st.integers(2, 60))
    destroyed = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    return n, DamageScenario(destroyed=sorted(destroyed),
                             remaining=sorted(set(range(n)) - destroyed))


class TestScenarioFile:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(scenarios())
    def test_round_trip_uses_one_based_indices(self, tmp_path, case):
        """Save, load, save gives the same bytes and the same index split."""
        n, scenario = case
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_scenario(first, scenario, topology_ref="topo.json")
        assert json.loads(first.read_text())["destroyed"] == (scenario.destroyed + 1).tolist()
        loaded = load_scenario(first, n)
        save_scenario(second, loaded, topology_ref="topo.json")
        assert second.read_bytes() == first.read_bytes()
        assert np.array_equal(loaded.destroyed, scenario.destroyed)
        assert np.array_equal(loaded.remaining, scenario.remaining)

    def test_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "topology_ref": "",
                                    "destroyed": [99]}))
        with pytest.raises(ValueError):
            load_scenario(path, 10)

    def test_rejects_missing_destroyed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "topology_ref": ""}))
        with pytest.raises(ValueError, match="scenario file lacks required field 'destroyed'"):
            load_scenario(path, 10)
