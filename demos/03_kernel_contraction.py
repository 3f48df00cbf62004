"""Watch the convolution kernel contract node positions to centroids.

Repeated application of I - L/n is a contraction: column sums never
move, and on a connected branch every row converges to the swarm centroid
(on a disconnected branch, to per-component centroids).  This is the
mechanism that guarantees a worst-case recovery solution exists.
"""
import numpy as np

from resilinet import (apply_damage, build_graph_sequence, build_input_graph,
                       choose_branch_count, diameter_hops, generate_swarm,
                       kernel_flow)

topology = generate_swarm(n=30, density_per_km2=200.0, comm_range=120.0, seed=3)
scenario = apply_damage(topology, n_destroyed=15, seed=4)
graph_in = build_input_graph(topology, scenario)
branches = choose_branch_count(diameter_hops(topology.adjacency()))
seq = build_graph_sequence(graph_in, branches)

positions = graph_in.features
center = positions.mean(axis=0)
print(f"branch k={branches} connected: {seq.graphs[branches - 1].is_connected()}")
print(f"centroid: ({center[0]:.1f}, {center[1]:.1f})")

for steps in (0, 1, 10, 100, 1000, 10_000):
    flowed = kernel_flow(seq, branches, positions, steps=steps)
    spread = np.abs(flowed - center).max()
    drift = np.abs(flowed.sum(axis=0) - positions.sum(axis=0)).max()
    print(f"  {steps:6d} steps: max |row - centroid| = {spread:10.4f} m, "
          f"column-sum drift = {drift:.2e}")
