"""Finite-difference validation of the hand-derived gradients.

Central differences on the trainable objective (flight-time term plus the
component-gap surrogate) against the analytic backward pass, on a tiny
two-branch network.  Points are filtered for stable structure: the argmax
node, candidate-graph adjacency, and closest component pairs must all sit
comfortably away from their switching surfaces, otherwise the objective is
not differentiable there and the comparison is meaningless.
"""
import numpy as np

from resilinet.damage import DamageScenario, build_input_graph
from resilinet.damage_graphs import build_graph_sequence
from resilinet.gcn import (Hyperparams, ModelWeights, backward, build_kernel,
                           forward, loss_head)
from resilinet.swarm import SwarmTopology, build_adjacency, component_labels

COMM_RANGE = 160.0
CONFIG = Hyperparams(hidden_dim=4, blocks=1, dropout=0.0, max_speed=10.0)
POSITION_MARGIN = 0.05  # meters of slack around every structural switch


def build_case():
    """Six nodes on a line: two split survivor pairs bridged by two destroyed."""
    positions = np.array([
        [0.0, 0.0], [120.0, 0.0], [260.0, 0.0],
        [400.0, 0.0], [540.0, 0.0], [660.0, 0.0],
    ])
    topology = SwarmTopology(positions=positions, comm_range=COMM_RANGE,
                             side=660.0)
    scenario = DamageScenario(destroyed=np.array([2, 3]),
                              remaining=np.array([0, 1, 4, 5]))
    graph_in = build_input_graph(topology, scenario)
    seq = build_graph_sequence(graph_in, 2)
    return graph_in, seq


def trainable_objective(weights, seq, kernel, start_remaining, gap_penalty):
    out, _ = forward(weights, seq, kernel, CONFIG)
    head = loss_head(out, seq.n, seq.n_remaining, start_remaining,
                     CONFIG.max_speed, COMM_RANGE, CONFIG.lagrange_s, gap_penalty)
    return head.trainable


def structure_is_stable(weights, seq, kernel, start_remaining):
    """Reject parameter points too close to a non-differentiable switch."""
    out, _ = forward(weights, seq, kernel, CONFIG)
    n, n_r = seq.n, seq.n_remaining
    for k in range(seq.branches):
        targets = out[k * n: k * n + n_r]
        dist = np.sort(np.linalg.norm(targets - start_remaining, axis=1))
        if dist[-1] < POSITION_MARGIN:
            return False
        if dist[-1] - dist[-2] < POSITION_MARGIN:
            return False
        delta = targets[:, None, :] - targets[None, :, :]
        pair = np.sqrt(np.einsum("ijk,ijk->ij", delta, delta))
        off = pair[~np.eye(n_r, dtype=bool)]
        if np.any(np.abs(off - COMM_RANGE) < POSITION_MARGIN):
            return False
        n_comp, labels = component_labels(build_adjacency(targets, COMM_RANGE))
        if n_comp > 1:
            weights_between = []
            for a in range(n_comp):
                for b in range(a + 1, n_comp):
                    cross = pair[np.ix_(np.flatnonzero(labels == a),
                                        np.flatnonzero(labels == b))].ravel()
                    cross = np.sort(cross)
                    if cross.size > 1 and cross[1] - cross[0] < POSITION_MARGIN:
                        return False
                    weights_between.append(cross[0])
            gaps = np.diff(np.sort(weights_between))
            if gaps.size and gaps.min() < POSITION_MARGIN:
                return False
    return True


def max_relative_error(weights, seq, kernel, start_remaining, gap_penalty,
                       h=1e-5):
    out, trace = forward(weights, seq, kernel, CONFIG)
    head = loss_head(out, seq.n, seq.n_remaining, start_remaining,
                     CONFIG.max_speed, COMM_RANGE, CONFIG.lagrange_s, gap_penalty)
    analytic = backward(trace, weights, kernel, head.grad_output)

    worst = 0.0
    mats = [m.copy() for m in weights.matrices]
    for idx, mat in enumerate(mats):
        fd = np.zeros_like(mat)
        for pos in np.ndindex(mat.shape):
            original = mat[pos]
            mat[pos] = original + h
            plus = trainable_objective(
                ModelWeights(tuple(mats), weights.hidden_dim, weights.blocks),
                seq, kernel, start_remaining, gap_penalty)
            mat[pos] = original - h
            minus = trainable_objective(
                ModelWeights(tuple(mats), weights.hidden_dim, weights.blocks),
                seq, kernel, start_remaining, gap_penalty)
            mat[pos] = original
            fd[pos] = (plus - minus) / (2 * h)
        denom = max(np.abs(analytic[idx]).max(), np.abs(fd).max(), 1e-12)
        worst = max(worst, np.abs(analytic[idx] - fd).max() / denom)
    return worst


def run_gradient_suite(points: int = 20, max_attempts: int = 200):
    """Check `points` stable random parameter points; returns the worst error."""
    graph_in, seq = build_case()
    kernel = build_kernel(seq)
    start_remaining = graph_in.features[:graph_in.n_remaining]
    gap_penalty = CONFIG.lagrange_s / COMM_RANGE
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    for attempt in range(max_attempts):
        base = ModelWeights.init_scaled_uniform(CONFIG.hidden_dim, CONFIG.blocks,
                                                seed=int(rng.integers(1 << 31)))
        factor = rng.uniform(0.5, 2.0)
        weights = ModelWeights(tuple(factor * m for m in base.matrices),
                               CONFIG.hidden_dim, CONFIG.blocks)
        if not structure_is_stable(weights, seq, kernel, start_remaining):
            continue
        worst = max(worst, max_relative_error(weights, seq, kernel,
                                              start_remaining, gap_penalty))
        checked += 1
        if checked >= points:
            break
    return checked, worst


def test_backward_matches_central_differences():
    checked, worst = run_gradient_suite(points=20)
    assert checked == 20, f"only {checked} stable points found"
    assert worst < 1e-4, f"max relative gradient error {worst:.2e}"


def test_case_actually_exercises_both_terms():
    # sanity: the scenario splits the survivors, so the surrogate term is live
    graph_in, seq = build_case()
    n_r = graph_in.n_remaining
    assert component_labels(graph_in.adjacency[:n_r, :n_r])[0] == 2
    assert seq.graphs[0].biadjacency.sum() > 0
    assert (seq.graphs[1].biadjacency.sum() > seq.graphs[0].biadjacency.sum())
