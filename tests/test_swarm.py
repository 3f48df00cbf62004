import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from resilinet.swarm import (GenerationError, SwarmTopology, _pairwise_sq_distances,
                             build_adjacency, component_labels, count_subnets,
                             degree_cdf, degree_stats, diameter_hops, generate_swarm,
                             hop_distances, load_topology, save_topology, write_csv,
                             write_payload)

from _oracles import (bfs_hops_single, eigencount_components, einsum_adjacency,
                      einsum_sq_distances, floyd_warshall_hops,
                      int8_csr_component_labels, loop_degree_cdf)

# Integer-valued coordinates make exact boundary pairs and duplicates likely.
COORDS = st.one_of(st.integers(-60, 60).map(float),
                   st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@st.composite
def disk_cases(draw):
    """(positions, comm_range) with one pair exactly at 5k and duplicate points."""
    pts = draw(st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=20))
    k = draw(st.integers(1, 12))
    comm_range = draw(st.one_of(st.just(5.0 * k), st.floats(1e-3, 2e3)))
    x, y = draw(st.sampled_from(pts))
    # A 3-4-5 triangle: distance exactly 5k whenever the sums are exact.
    pts.append((x + 3.0 * k, y + 4.0 * k))
    pts.extend(draw(st.lists(st.sampled_from(pts), min_size=1, max_size=3)))
    return np.array(pts), comm_range


@st.composite
def edge_graphs(draw):
    """Symmetric 0/1 adjacency from a random edge list, as bool or int."""
    n = draw(st.integers(1, 24))
    node = st.integers(0, n - 1)
    adj = np.zeros((n, n), dtype=bool)
    for i, j in draw(st.lists(st.tuples(node, node), max_size=2 * n)):
        if i != j:
            adj[i, j] = adj[j, i] = True
    return adj.astype(np.int64) if draw(st.booleans()) else adj


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
        adj = build_adjacency(np.array([[0.0, 0.0], [120.0, 0.0], [120.0, 0.0]]), 120.0)
        assert adj[0, 1] and adj[1, 0] and adj[1, 2]

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

    @settings(max_examples=150, deadline=None)
    @given(disk_cases())
    @example((np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 4.0]]), 5.0))
    @example((np.array([[1.5, -2.0]]), 1.0))
    def test_matches_einsum_reference_bytewise(self, case):
        pts, comm_range = case
        got = build_adjacency(pts, comm_range)
        ref = einsum_adjacency(pts, comm_range)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        sq = _pairwise_sq_distances(pts)
        assert sq.tobytes() == einsum_sq_distances(pts).tobytes()


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

    @pytest.mark.parametrize("n, density, comm_range, message", [
        (20, float("nan"), 120.0, "density_per_km2 must be finite and positive"),
        (20, float("inf"), 120.0, "density_per_km2 must be finite and positive"),
        (20, 0.0, 120.0, "density_per_km2 must be finite and positive"),
        (20, 1e-320, 120.0, "density_per_km2 must be finite and positive"),
        (20, 200.0, float("nan"), "comm_range must be positive"),
        (20, 200.0, float("inf"), "comm_range must be positive and finite"),
        (20, 200.0, -1.0, "comm_range must be positive"),
        (1, 200.0, 120.0, "n must be at least 2"),
    ], ids=["density-nan", "density-inf", "density-zero", "density-area-overflow",
            "comm-range-nan", "comm-range-inf", "comm-range-negative", "one-node"])
    def test_rejects_parameters_outside_their_domain(self, n, density, comm_range, message):
        with pytest.raises(ValueError, match=message):
            generate_swarm(n, density, comm_range, seed=0, max_attempts=3)

    def test_adjacency_is_built_once_and_read_only(self):
        topo = generate_swarm(20, 200.0, 120.0, seed=1)
        adj = topo.adjacency()
        assert topo.adjacency() is adj
        assert np.array_equal(adj, build_adjacency(topo.positions, topo.comm_range))
        with pytest.raises(ValueError):
            adj[0, 1] = not adj[0, 1]


class TestHopDistances:
    def test_path_two_hops(self):
        hops = hop_distances(path_adjacency(3))
        assert hops[0, 2] == 2

    def test_disconnected_pair_unreachable(self):
        adj = np.zeros((2, 2), dtype=bool)
        assert np.isinf(hop_distances(adj)[0, 1])

    @settings(max_examples=100, deadline=None)
    @given(edge_graphs())
    def test_random_graphs_agree_with_floyd_warshall(self, adj):
        assert np.array_equal(hop_distances(adj), floyd_warshall_hops(adj))

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


class TestComponentLabels:
    def check_against_references(self, adj):
        count, labels = component_labels(adj)
        ref_count, ref_labels = int8_csr_component_labels(adj)
        assert count == ref_count == eigencount_components(adj)
        assert labels.dtype == ref_labels.dtype
        assert np.array_equal(labels, ref_labels)

    @settings(max_examples=150, deadline=None)
    @given(edge_graphs())
    @example(np.zeros((1, 1), dtype=bool))
    @example(np.zeros((5, 5), dtype=np.int64))
    def test_matches_int8_csr_reference(self, adj):
        self.check_against_references(adj)

    @settings(max_examples=60, deadline=None)
    @given(disk_cases())
    def test_disk_graphs_match_reference(self, case):
        self.check_against_references(build_adjacency(*case))


class TestDegreeStats:
    def test_triangle(self):
        adj = np.ones((3, 3), dtype=bool)
        np.fill_diagonal(adj, False)
        stats = degree_stats(adj)
        assert stats.mean == pytest.approx(2.0)
        assert stats.max_degree == 2
        cdf = degree_cdf(stats.degrees)
        assert cdf[1] == 0.0
        assert cdf[2] == 1.0

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
        assert np.array_equal(degree_cdf(stats.degrees), [1.0])

    def test_cumulative_is_a_distribution(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pts = rng.uniform(0, 500, size=(15, 2))
            cdf = degree_cdf(degree_stats(build_adjacency(pts, 140.0)).degrees)
            assert np.all(np.diff(cdf) >= 0)
            assert cdf[-1] == 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 40), max_size=300))
    @example([])
    @example([0, 0, 0])
    @example([0])
    @example([7])
    def test_cdf_matches_the_loop_reference_bytewise(self, degrees):
        got = degree_cdf(np.asarray(degrees, dtype=int))
        ref = loop_degree_cdf(np.asarray(degrees, dtype=int))
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


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
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(COORDS, COORDS), min_size=2, max_size=20),
           st.floats(1e-3, 1e4), st.floats(1e-3, 1e6))
    def test_round_trip(self, tmp_path, points, comm_range, side):
        """Save, load, save gives the same bytes; positions come back at 1e-6 m."""
        topo = SwarmTopology(np.array(points), comm_range, side)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_topology(first, topo)
        loaded = load_topology(first)
        save_topology(second, loaded)
        assert second.read_bytes() == first.read_bytes()
        assert loaded.comm_range == comm_range and loaded.side == side
        assert np.array_equal(loaded.positions, [[round(x, 6), round(y, 6)] for x, y in points])
        assert np.abs(loaded.positions - topo.positions).max() <= 5.01e-7

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

    @pytest.mark.parametrize("field", ["positions", "n", "d_tr_m", "side_m"])
    def test_rejects_missing_field(self, tmp_path, field):
        path = tmp_path / "topo.json"
        save_topology(path, generate_swarm(6, 200.0, 120.0, seed=1))
        payload = json.loads(path.read_text())
        del payload[field]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"topology file lacks required field '{field}'"):
            load_topology(path)

    def test_rejects_non_object(self, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="topology file must be a JSON object"):
            load_topology(path)

    def test_topology_validation(self):
        with pytest.raises(ValueError):
            SwarmTopology(positions=np.zeros((1, 2)), comm_range=120.0, side=10.0)
        with pytest.raises(ValueError):
            SwarmTopology(positions=np.array([[0.0, 0.0], [np.nan, 1.0]]),
                          comm_range=120.0, side=10.0)


def test_write_csv_cell_rule(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv(path, ["none", "bool", "np_float", "np_int", "str", "float"],
              [[None, True, np.float64(0.1), np.int64(7), "a,b", 0.30000000000000004],
               [None, False, np.float64(2.0), np.int64(-1), "", 1 / 3]])
    assert path.read_bytes() == (
        b"none,bool,np_float,np_int,str,float\r\n"
        b",1,0.1,7,\"a,b\",0.30000000000000004\r\n"
        b",0,2.0,-1,,0.3333333333333333\r\n"
    )


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_write_payload_refuses_a_non_finite_number(tmp_path, value):
    """Standard JSON has no NaN or infinity, so no file is written."""
    path = tmp_path / "payload.json"
    with pytest.raises(ValueError):
        write_payload(path, {"nested": [1.0, value]})
    assert not path.exists()
