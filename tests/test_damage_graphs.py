import numpy as np
import pytest

from resilinet.damage import apply_damage, build_input_graph
from resilinet.damage_graphs import (BipartiteDamageGraph, bipartite_damage_graph,
                                     build_graph_sequence, choose_branch_count,
                                     dilate_adjacency, sparsity_report)
from resilinet.swarm import build_adjacency, generate_swarm, hop_distances

from _oracles import boolean_power_reachability, dense_hadamard_damage_graph


def path_hops(n):
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    return hop_distances(adj), adj


def random_case(seed, n=20, n_d=9):
    topo = generate_swarm(n, 200.0, 120.0, seed=seed)
    scenario = apply_damage(topo, n_d, seed=seed + 1, require_split=False)
    return build_input_graph(topo, scenario)


class TestDilate:
    def test_two_hop_adds_the_chord(self):
        hops, adj = path_hops(3)
        dilated = dilate_adjacency(hops, 2)
        assert dilated[0, 2] and dilated[0, 1] and dilated[1, 2]

    def test_one_hop_is_identity(self):
        hops, adj = path_hops(5)
        assert np.array_equal(dilate_adjacency(hops, 1), adj)

    def test_beyond_diameter_is_complete(self):
        hops, _ = path_hops(4)
        dilated = dilate_adjacency(hops, 10)
        expected = ~np.eye(4, dtype=bool)
        assert np.array_equal(dilated, expected)

    def test_unreachable_pairs_stay_unlinked(self):
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        dilated = dilate_adjacency(hop_distances(adj), 5)
        assert not dilated[0, 2] and not dilated[2, 3]

    def test_matches_boolean_power_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(3, 21))
            pts = rng.uniform(0, 400, size=(n, 2))
            adj = build_adjacency(pts, 140.0)
            hops = hop_distances(adj)
            for k in (1, 2, 3, n):
                assert np.array_equal(dilate_adjacency(hops, k),
                                      boolean_power_reachability(adj, k))

    def test_rejects_zero_hop(self):
        hops, _ = path_hops(3)
        with pytest.raises(ValueError):
            dilate_adjacency(hops, 0)


class TestBipartiteDamageGraph:
    def test_single_cross_edge(self):
        dilated = np.array([[False, True], [True, False]])
        graph = bipartite_damage_graph(dilated, 1, 1, hop_limit=1)
        assert np.array_equal(graph.biadjacency, [[True]])

    def test_same_set_links_are_removed(self):
        # edge between the two remaining nodes only
        dilated = np.zeros((3, 3), dtype=bool)
        dilated[0, 1] = dilated[1, 0] = True
        graph = bipartite_damage_graph(dilated, 2, 1, hop_limit=1)
        assert not graph.biadjacency.any()

    def test_matches_dense_hadamard_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            graph_in = random_case(int(rng.integers(1000)))
            hops = hop_distances(graph_in.adjacency)
            k = int(rng.integers(1, 4))
            dilated = dilate_adjacency(hops, k)
            expected_full = dense_hadamard_damage_graph(dilated, graph_in.n_remaining)
            graph = bipartite_damage_graph(dilated, graph_in.n_remaining,
                                           graph_in.n_destroyed, k)
            assert np.array_equal(graph.full_adjacency().astype(float), expected_full)
            n_r = graph_in.n_remaining
            assert np.array_equal(graph.biadjacency,
                                  expected_full[:n_r, n_r:].astype(bool))

    def test_full_adjacency_is_bipartite(self):
        graph_in = random_case(11)
        hops = hop_distances(graph_in.adjacency)
        graph = bipartite_damage_graph(dilate_adjacency(hops, 2),
                                       graph_in.n_remaining, graph_in.n_destroyed, 2)
        full = graph.full_adjacency()
        n_r = graph_in.n_remaining
        assert not full[:n_r, :n_r].any()
        assert not full[n_r:, n_r:].any()


class TestChooseBranchCount:
    @pytest.mark.parametrize("diameter,expected", [(1, 1), (3, 2), (4, 2), (9, 5)])
    def test_floor_rule(self, diameter, expected):
        assert choose_branch_count(diameter) == expected

    def test_cap(self):
        assert choose_branch_count(30) == 12
        assert choose_branch_count(30, cap=5) == 5


class TestBuildGraphSequence:
    def test_single_branch_reduces_to_one_hop(self):
        graph_in = random_case(21)
        seq = build_graph_sequence(graph_in, 1)
        hops = hop_distances(graph_in.adjacency)
        expected = bipartite_damage_graph(dilate_adjacency(hops, 1),
                                          graph_in.n_remaining,
                                          graph_in.n_destroyed, 1)
        assert np.array_equal(seq.graphs[0].biadjacency, expected.biadjacency)

    def test_monotone_nesting(self):
        graph_in = random_case(22)
        seq = build_graph_sequence(graph_in, 4)
        for prev, cur in zip(seq.graphs, seq.graphs[1:]):
            assert np.all(cur.biadjacency >= prev.biadjacency)
        nnz = [g.nnz for g in seq.graphs]
        assert nnz == sorted(nnz)

    def test_batch_blocks_match_branches(self):
        graph_in = random_case(23)
        seq = build_graph_sequence(graph_in, 3)
        n = seq.n
        dense = seq.batch_adjacency.toarray()
        for k, graph in enumerate(seq.graphs):
            block = dense[k * n:(k + 1) * n, k * n:(k + 1) * n]
            assert np.array_equal(block.astype(bool), graph.full_adjacency())
            assert int(block.sum()) == 2 * int(graph.biadjacency.sum())
        # off-diagonal blocks are empty
        assert seq.batch_adjacency.nnz == sum(g.nnz for g in seq.graphs)

    def test_batch_features_are_tiled(self):
        graph_in = random_case(24)
        seq = build_graph_sequence(graph_in, 3)
        assert np.array_equal(seq.batch_features,
                              np.vstack([graph_in.features] * 3))

    def test_rejects_zero_branches(self):
        with pytest.raises(ValueError):
            build_graph_sequence(random_case(25), 0)


class TestConnectivity:
    def test_single_edge_pair_is_connected(self):
        graph = BipartiteDamageGraph(1, np.array([[True]]))
        assert graph.is_connected()

    def test_empty_graph_is_not(self):
        graph = BipartiteDamageGraph(1, np.array([[False]]))
        assert not graph.is_connected()

    def test_two_blocks_are_not(self):
        biadj = np.array([[True, False], [False, True]])
        assert not BipartiteDamageGraph(1, biadj).is_connected()

    def test_connectivity_is_monotone_in_hops(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            graph_in = random_case(int(rng.integers(1000)))
            seq = build_graph_sequence(graph_in, 5)
            flags = [g.is_connected() for g in seq.graphs]
            if True in flags:
                first = flags.index(True)
                assert all(flags[first:])


class TestSparsityReport:
    def test_boundary_case(self):
        graph_in = random_case(31, n=2, n_d=1)
        seq = build_graph_sequence(graph_in, 1)
        report = sparsity_report(seq)
        assert report.nnz_per_branch == (2,)
        assert report.kernel_nnz == 4
        assert report.density == pytest.approx(1.0)
        assert report.density <= report.density_bound

    def test_empty_branch_keeps_diagonal(self):
        # two remaining nodes, one destroyed far away: no cross links
        from resilinet.damage import DamageScenario
        from resilinet.swarm import SwarmTopology
        positions = np.array([[0.0, 0.0], [100.0, 0.0], [5000.0, 0.0]])
        topo = SwarmTopology(positions=positions, comm_range=120.0, side=5000.0)
        scenario = DamageScenario(destroyed=np.array([2]), remaining=np.array([0, 1]))
        graph_in = build_input_graph(topo, scenario)
        seq = build_graph_sequence(graph_in, 1)
        report = sparsity_report(seq)
        assert report.nnz_per_branch == (0,)
        assert report.kernel_nnz == seq.n  # diagonal only

    def test_against_dense_count_oracle(self):
        topo = generate_swarm(100, 200.0, 120.0, seed=40)
        scenario = apply_damage(topo, 50, seed=41)
        graph_in = build_input_graph(topo, scenario)
        seq = build_graph_sequence(graph_in, 4)
        report = sparsity_report(seq)
        n_total = 4 * seq.n
        step = 1.0 / seq.n
        dense = np.zeros((n_total, n_total))
        for k, g in enumerate(seq.graphs):
            full = g.full_adjacency().astype(float)
            lap = np.diag(full.sum(axis=1)) - full
            dense[k * seq.n:(k + 1) * seq.n, k * seq.n:(k + 1) * seq.n] = (
                np.eye(seq.n) - step * lap
            )
        assert report.kernel_nnz == int(np.count_nonzero(dense))
        assert report.density == pytest.approx(np.count_nonzero(dense) / n_total ** 2)
