import json

import numpy as np
import pytest

from resilinet.swarm import (GenerationError, SwarmTopology, build_adjacency,
                             count_subnets, degree_stats, diameter_hops,
                             generate_swarm, hop_distances, load_topology,
                             save_topology)

from _oracles import bfs_hops_single, eigencount_components, floyd_warshall_hops


def grid_adjacency(rows, cols):
    n = rows * cols
    adj = np.zeros((n, n), dtype=bool)
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                adj[i, i + 1] = adj[i + 1, i] = True
            if r + 1 < rows:
                adj[i, i + cols] = adj[i + cols, i] = True
    return adj


def path_adjacency(n):
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    return adj


class TestBuildAdjacency:
    def test_boundary_distance_is_connected(self):
        adj = build_adjacency(np.array([[0.0, 0.0], [120.0, 0.0]]), 120.0)
        assert adj[0, 1] and adj[1, 0]

    def test_just_past_boundary_is_not(self):
        adj = build_adjacency(np.array([[0.0, 0.0], [120.01, 0.0]]), 120.0)
        assert not adj[0, 1]

    def test_collinear_points_form_a_path(self):
        pts = np.array([[0.0, 0.0], [100.0, 0.0], [200.0, 0.0]])
        adj = build_adjacency(pts, 120.0)
        assert adj[0, 1] and adj[1, 2] and not adj[0, 2]

    def test_symmetric_and_irreflexive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pts = rng.uniform(0, 500, size=(12, 2))
            adj = build_adjacency(pts, 120.0)
            assert np.array_equal(adj, adj.T)
            assert not adj.diagonal().any()


class TestGenerateSwarm:
    def test_area_side_follows_density(self):
        topo = generate_swarm(200, 200.0, 120.0, seed=1)
        assert topo.side == pytest.approx(1000.0)
        assert topo.positions.min() >= 0.0
        assert topo.positions.max() <= topo.side

    def test_two_nodes_forced_in_range(self):
        topo = generate_swarm(2, 200.0, 120.0, seed=3)
        assert count_subnets(topo.adjacency()) == 1

    def test_deterministic_for_seed(self):
        a = generate_swarm(50, 200.0, 120.0, seed=7)
        b = generate_swarm(50, 200.0, 120.0, seed=7)
        assert np.array_equal(a.positions, b.positions)

    def test_generated_swarms_are_connected(self):
        for seed in range(10):
            topo = generate_swarm(30, 200.0, 120.0, seed=seed)
            adj = topo.adjacency()
            assert np.array_equal(adj, adj.T)
            assert not adj.diagonal().any()
            assert count_subnets(adj) == 1

    def test_infeasible_parameters_fail_explicitly(self):
        with pytest.raises(GenerationError):
            generate_swarm(30, 200.0, 1.0, seed=0, max_attempts=50)


class TestHopDistances:
    def test_path_two_hops(self):
        hops = hop_distances(path_adjacency(3))
        assert hops[0, 2] == 2

    def test_disconnected_pair_unreachable(self):
        adj = np.zeros((2, 2), dtype=bool)
        assert np.isinf(hop_distances(adj)[0, 1])

    def test_grid_corner_to_corner(self):
        adj = grid_adjacency(5, 5)
        hops = hop_distances(adj)
        oracle = bfs_hops_single(adj, 0)
        assert oracle[24] == 8
        assert hops[0, 24] == 8

    def test_agrees_with_floyd_warshall(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 31))
            pts = rng.uniform(0, 400, size=(n, 2))
            adj = build_adjacency(pts, 150.0)
            assert np.array_equal(hop_distances(adj), floyd_warshall_hops(adj))


class TestCountSubnets:
    def test_single_node(self):
        assert count_subnets(np.zeros((1, 1), dtype=bool)) == 1

    def test_three_isolated_nodes(self):
        assert count_subnets(np.zeros((3, 3), dtype=bool)) == 3

    def test_matches_laplacian_eigencount(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            pts = rng.uniform(0, 600, size=(n, 2))
            adj = build_adjacency(pts, 120.0)
            assert count_subnets(adj) == eigencount_components(adj)


class TestDegreeStats:
    def test_triangle(self):
        adj = np.ones((3, 3), dtype=bool)
        np.fill_diagonal(adj, False)
        stats = degree_stats(adj)
        assert stats.mean == pytest.approx(2.0)
        assert stats.max_degree == 2
        assert stats.cumulative[1] == 0.0
        assert stats.cumulative[2] == 1.0

    def test_star(self):
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1:] = adj[1:, 0] = True
        stats = degree_stats(adj)
        assert stats.mean == pytest.approx(1.5)
        assert stats.max_degree == 3
        assert np.array_equal(stats.degrees, [3, 1, 1, 1])

    def test_empty_graph(self):
        stats = degree_stats(np.zeros((4, 4), dtype=bool))
        assert stats.mean == 0.0
        assert np.array_equal(stats.cumulative, [1.0])

    def test_cumulative_is_a_distribution(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pts = rng.uniform(0, 500, size=(15, 2))
            stats = degree_stats(build_adjacency(pts, 140.0))
            assert np.all(np.diff(stats.cumulative) >= 0)
            assert stats.cumulative[-1] == 1.0


class TestDiameterHops:
    def test_path_of_four(self):
        assert diameter_hops(path_adjacency(4)) == 3

    def test_complete_graph(self):
        adj = np.ones((5, 5), dtype=bool)
        np.fill_diagonal(adj, False)
        assert diameter_hops(adj) == 1

    def test_grid(self):
        assert diameter_hops(grid_adjacency(5, 5)) == 8

    def test_disconnected_raises(self):
        with pytest.raises(ValueError):
            diameter_hops(np.zeros((3, 3), dtype=bool))


class TestTopologyFile:
    def test_round_trip(self, tmp_path):
        topo = generate_swarm(20, 200.0, 120.0, seed=4)
        path = tmp_path / "topo.json"
        save_topology(path, topo)
        loaded = load_topology(path)
        assert loaded.n == topo.n
        assert loaded.comm_range == topo.comm_range
        assert np.allclose(loaded.positions, topo.positions, atol=1e-6)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_topology(a, generate_swarm(20, 200.0, 120.0, seed=4))
        save_topology(b, generate_swarm(20, 200.0, 120.0, seed=4))
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {"version": 99, "n": 2, "d_tr_m": 120.0, "side_m": 100.0,
                   "positions": [[0, 0], [1, 1]]}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_topology(path)

    def test_topology_validation(self):
        with pytest.raises(ValueError):
            SwarmTopology(positions=np.zeros((1, 2)), comm_range=120.0, side=10.0)
        with pytest.raises(ValueError):
            SwarmTopology(positions=np.array([[0.0, 0.0], [np.nan, 1.0]]),
                          comm_range=120.0, side=10.0)
