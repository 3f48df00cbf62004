"""Independent reference implementations used only as test oracles.

Everything here is deliberately written from first principles (dense numpy,
explicit loops) or in an older, plainer form of a package routine.  An
older form may call the package's lower-level routines that it was built
on (``dense_subnet_series`` labels each step with ``count_subnets``); it
then checks the routine that replaced it, not those.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

from resilinet.gcn import normalize_features, upscale_features
from resilinet.swarm import _pairwise_sq_distances, build_adjacency, count_subnets, degree_stats


def dense_subnet_series(start, targets, max_speed, step_s, comm_range):
    """Flight with a fresh dense labeling of every step.

    The package's former ``simulate_recovery`` loop, kept verbatim: returns
    (sub-net series, first connected time, final positions, final degrees).
    """
    positions = np.asarray(start, dtype=float).copy()
    targets = np.asarray(targets, dtype=float)
    max_dist = float(np.linalg.norm(targets - positions, axis=1).max())
    total_steps = int(math.ceil(max_dist / (max_speed * step_s) - 1e-12))

    adjacency = build_adjacency(positions, comm_range)
    series = [count_subnets(adjacency)]
    first = 0.0 if series[0] == 1 else None

    reach = max_speed * step_s
    for step in range(1, total_steps + 1):
        delta = targets - positions
        dist = np.linalg.norm(delta, axis=1)
        arrive = dist <= reach
        moving = ~arrive & (dist > 0)
        positions[arrive] = targets[arrive]
        positions[moving] += delta[moving] * (reach / dist[moving])[:, None]
        adjacency = build_adjacency(positions, comm_range)
        ns = count_subnets(adjacency)
        series.append(ns)
        if first is None and ns == 1:
            first = step * step_s
    return (np.asarray(series, dtype=int), first, positions,
            degree_stats(adjacency).degrees)


def einsum_sq_distances(positions: np.ndarray) -> np.ndarray:
    """Squared pairwise distances through an (n, n, 2) difference tensor."""
    pos = np.asarray(positions, dtype=float)
    delta = pos[:, None, :] - pos[None, :, :]
    return np.einsum("ijk,ijk->ij", delta, delta)


def einsum_adjacency(positions: np.ndarray, comm_range: float) -> np.ndarray:
    """Disk-model adjacency from the (n, n, 2) tensor form of the distances."""
    adj = einsum_sq_distances(positions) <= comm_range * comm_range
    np.fill_diagonal(adj, False)
    return adj


def int8_csr_component_labels(adj: np.ndarray) -> tuple[int, np.ndarray]:
    """Components through scipy's own dense-to-CSR conversion of an int8 copy."""
    count, labels = connected_components(csr_matrix(np.asarray(adj).astype(np.int8)),
                                         directed=False)
    return int(count), labels


def floyd_warshall_hops(adj: np.ndarray) -> np.ndarray:
    """All-pairs unit-weight shortest paths by Floyd-Warshall."""
    n = adj.shape[0]
    dist = np.where(np.asarray(adj, dtype=bool), 1.0, np.inf)
    np.fill_diagonal(dist, 0.0)
    for k in range(n):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    return dist


def bfs_hops_single(adj: np.ndarray, source: int) -> np.ndarray:
    """Plain queue BFS from one source."""
    n = adj.shape[0]
    hops = np.full(n, np.inf)
    hops[source] = 0
    queue = [source]
    while queue:
        node = queue.pop(0)
        for nbr in np.flatnonzero(adj[node]):
            if np.isinf(hops[nbr]):
                hops[nbr] = hops[node] + 1
                queue.append(int(nbr))
    return hops


def loop_degree_cdf(degrees: np.ndarray) -> np.ndarray:
    """Degree CDF with one comparison pass per degree value; empty for no nodes."""
    deg = np.asarray(degrees, dtype=int)
    if not deg.size:
        return np.empty(0)
    return np.array([float(np.mean(deg <= d)) for d in range(int(deg.max()) + 1)])


def eigencount_components(adj: np.ndarray) -> int:
    """Component count as the number of near-zero Laplacian eigenvalues."""
    a = np.asarray(adj, dtype=float)
    lap = np.diag(a.sum(axis=1)) - a
    eigvals = np.linalg.eigvalsh(lap)
    tol = max(1e-8 * a.shape[0] * float(np.abs(lap).max()), 1e-12)
    return int(np.sum(np.abs(eigvals) < tol))


def boolean_power_reachability(adj: np.ndarray, k: int) -> np.ndarray:
    """Pairs reachable within k hops via powers of (A + I), diagonal removed."""
    n = adj.shape[0]
    step = np.asarray(adj, dtype=bool) | np.eye(n, dtype=bool)
    reach = np.linalg.matrix_power(step.astype(np.int64), k) > 0
    reach &= ~np.eye(n, dtype=bool)
    return reach


def induced_subgraph(adj: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Brute-force induced subgraph via a double loop."""
    keep = list(keep)
    m = len(keep)
    out = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(m):
            out[i, j] = bool(adj[keep[i], keep[j]])
    return out


def dense_hadamard_damage_graph(dilated: np.ndarray, n_remaining: int) -> np.ndarray:
    """Full damage-attention product: dilated adjacency masked entrywise."""
    n = dilated.shape[0]
    mask = np.zeros((n, n))
    mask[:n_remaining, n_remaining:] = 1.0
    mask[n_remaining:, :n_remaining] = 1.0
    return np.asarray(dilated, dtype=float) * mask


def dense_forward_reference(matrices, features, biadjacencies, step):
    """Dense from-first-principles forward pass over the branch batch.

    Builds each branch kernel densely, stacks everything by explicit loops,
    and applies the layer formulas one by one.  No sparse ops, no shared
    helpers with the package.
    """
    features = np.asarray(features, dtype=float)
    n = features.shape[0]
    branches = len(biadjacencies)
    kernels = []
    for biadj in biadjacencies:
        n_r, n_d = biadj.shape
        full = np.zeros((n, n))
        full[:n_r, n_r:] = biadj
        full[n_r:, :n_r] = biadj.T
        lap = np.diag(full.sum(axis=1)) - full
        kernels.append(np.eye(n) - step * lap)

    center = features.mean(axis=0)
    scale = max(np.sqrt(((p - center) ** 2).sum()) for p in features)

    def conv(x_blocks, w):
        return [np.maximum(kernels[b] @ x_blocks[b] @ w, 0.0) for b in range(branches)]

    x_norm = [(features - center) / (scale + 1.0) for _ in range(branches)]
    first = conv(x_norm, matrices[0])
    blocks = (len(matrices) - 2) // 2
    x = first
    for l in range(blocks):
        a = conv(x, matrices[1 + 2 * l])
        b = conv(a, matrices[2 + 2 * l])
        x = [b[i] + first[i] for i in range(branches)]
    out_blocks = []
    for i in range(branches):
        final = np.tanh(kernels[i] @ x[i] @ matrices[-1])
        out_blocks.append((scale + 1.0) * final + center)
    return np.vstack(out_blocks)


def allocating_forward(weights, seq, kernel, config, train=False, rng=None):
    """The network forward with a fresh array for every intermediate.

    The package's former ``forward`` without its ``prefix``: sparse products
    are ``kernel @ x`` and the dropout mask is drawn with ``rng.random(shape)``.
    Returns the output and the trace's arrays in order: first_mid,
    first_act, then each block's mask (None without dropout), mid_a, act_a,
    mid_b and act_b, then final_mid, final_act and the output.
    """
    mats = weights.matrices
    x_rows, center, scale = normalize_features(seq.batch_features[:seq.n])
    dtype = mats[0].dtype
    first_mid = kernel @ np.tile(x_rows, (seq.branches, 1)).astype(dtype, copy=False)
    first_act = np.maximum(first_mid @ mats[0], 0.0)
    arrays = [first_mid, first_act]
    x = first_act
    for l in range(weights.blocks):
        if train and config.dropout > 0.0 and l > 0:
            keep = 1.0 - config.dropout
            mask = ((rng.random(x.shape) >= config.dropout) / keep).astype(dtype, copy=False)
            dropped = x * mask
        else:
            mask = None
            dropped = x
        mid_a = kernel @ dropped
        act_a = np.maximum(mid_a @ mats[1 + 2 * l], 0.0)
        mid_b = kernel @ act_a
        act_b = np.maximum(mid_b @ mats[2 + 2 * l], 0.0)
        x = act_b + first_act
        arrays.extend([mask, mid_a, act_a, mid_b, act_b])
    final_mid = kernel @ x
    final_act = np.tanh(final_mid @ mats[-1])
    output = upscale_features(final_act, center, scale)
    return output, arrays + [final_mid, final_act, output]


def allocating_backward(trace, weights, kernel, grad_output):
    """The network backward with a fresh array for every intermediate.

    The package's former ``backward`` on one thread: sparse products are
    ``kernel @ x`` and each weight gradient is taken where its layer's
    gradient is.  Reads the package's forward trace; returns the gradients.
    """
    mats = weights.matrices
    g_final = grad_output * (trace.scale + 1.0)
    g_zq = (g_final * (1.0 - trace.final_act ** 2)).astype(mats[-1].dtype, copy=False)
    grads = [None] * len(mats)
    grads[-1] = trace.final_mid.T @ g_zq
    g_x = kernel @ (g_zq @ mats[-1].T)
    g_first = np.zeros_like(g_x)
    for l in range(weights.blocks - 1, -1, -1):
        g_first += g_x
        g_zb = g_x * (trace.act_b[l] > 0)
        grads[2 + 2 * l] = trace.mid_b[l].T @ g_zb
        g_za = (kernel @ (g_zb @ mats[2 + 2 * l].T)) * (trace.act_a[l] > 0)
        grads[1 + 2 * l] = trace.mid_a[l].T @ g_za
        g_in = kernel @ (g_za @ mats[1 + 2 * l].T)
        if l > 0 and trace.dropped:
            g_in = g_in * trace.masks[l - 1]
        if l == 0:
            g_first += g_in
        else:
            g_x = g_in
    grads[0] = trace.first_mid.T @ (g_first * (trace.first_act > 0))
    return grads


def functional_adam_step(weights, grads, state, config):
    """Out-of-place Adam: fresh weight and moment arrays on every step.

    The package's former ``adam_step``, kept verbatim except that the state
    type comes from the given state.
    """
    t = state.step + 1
    b1, b2, eps = 0.9, 0.999, 1e-8
    new_mats, new_m, new_v = [], [], []
    for w, g, m, v in zip(weights.matrices, grads, state.first_moment,
                          state.second_moment):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        new_mats.append(w - config.learning_rate * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m)
        new_v.append(v)
    return (
        replace(weights, matrices=tuple(new_mats)),
        type(state)(first_moment=tuple(new_m), second_moment=tuple(new_v), step=t),
    )


def component_pair_gap_gradient(targets, n_comp, labels, comm_range, gap_penalty, grad_out):
    """Spanning-tree gap surrogate over a component-pair table.

    The package's former ``gcn._component_gap_gradient`` body, kept verbatim:
    the closest node pair of every two components, then a minimum spanning
    tree over the components weighted by those distances.
    """
    if n_comp <= 1:
        return 0.0
    members = [np.flatnonzero(labels == c) for c in range(n_comp)]
    dist = np.sqrt(_pairwise_sq_distances(targets))

    comp_dist = np.zeros((n_comp, n_comp))
    closest: dict[tuple[int, int], tuple[int, int]] = {}
    for a in range(n_comp):
        for b in range(a + 1, n_comp):
            sub = dist[np.ix_(members[a], members[b])]
            flat = int(np.argmin(sub))
            i = int(members[a][flat // sub.shape[1]])
            j = int(members[b][flat % sub.shape[1]])
            comp_dist[a, b] = comp_dist[b, a] = dist[i, j]
            closest[(a, b)] = (i, j)

    tree = minimum_spanning_tree(csr_matrix(np.triu(comp_dist))).tocoo()
    surrogate = 0.0
    for a, b in zip(tree.row, tree.col):
        a, b = (int(a), int(b)) if a < b else (int(b), int(a))
        i, j = closest[(a, b)]
        w = dist[i, j]
        gap = w - comm_range
        if gap <= 0.0 or w == 0.0:
            continue
        surrogate += gap_penalty * gap
        unit = (targets[i] - targets[j]) / w
        grad_out[i] += gap_penalty * unit
        grad_out[j] -= gap_penalty * unit
    return surrogate


def exact_first_connection(start, targets, max_speed, comm_range):
    """Exact first-connection time T* of a straight-line flight, from range-crossing events.

    Node i flies from ``start[i]`` straight to ``targets[i]`` at ``max_speed``
    and stays once it arrives.  Between the arrival times of a pair, the
    difference of its positions is linear in t, so its squared distance is
    one quadratic on each of at most three pieces (both moving, one arrived,
    both arrived).  The times at which the pair enters or leaves range are
    the roots of that quadratic minus r**2 inside its piece.  Between two
    consecutive such times the graph does not change, so one dense labeling
    at the midpoint of each interval decides it.  Links are boundary
    inclusive: at a crossing time the graph holds the links of both of its
    neighbouring intervals.

    Returns (T*, run): T* is the first time the swarm is one component and
    run the length of the connected stretch that starts there (0.0 for a
    connection at one instant, inf when it stays connected).  A flight that
    never connects gives (None, 0.0).
    """
    start = np.asarray(start, dtype=float)
    targets = np.asarray(targets, dtype=float)
    m = start.shape[0]
    delta = targets - start
    dist = np.sqrt((delta ** 2).sum(axis=1))
    arrival = dist / max_speed
    velocity = np.zeros_like(delta)
    for i in range(m):
        if dist[i] > 0:
            velocity[i] = delta[i] / dist[i] * max_speed

    def position(t):
        return start + velocity * np.minimum(t, arrival)[:, None]

    r2 = comm_range * comm_range
    events = set()
    for i in range(m):
        for j in range(i + 1, m):
            cuts = sorted({0.0, arrival[i], arrival[j]}) + [math.inf]
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                # rel(t) = c + w t on [lo, hi): only the nodes still flying move.
                w = velocity[i] * (arrival[i] > lo) - velocity[j] * (arrival[j] > lo)
                at_lo = position(lo)
                c = (at_lo[i] - at_lo[j]) - w * lo
                a, b, k = w @ w, c @ w, c @ c - r2
                disc = b * b - a * k
                if a == 0.0 or disc < 0.0:
                    continue
                for root in ((-b - math.sqrt(disc)) / a, (-b + math.sqrt(disc)) / a):
                    if lo < root < hi:
                        events.add(root)
    times = [0.0, *sorted(events)]

    def adjacency(t):
        return einsum_adjacency(position(t), comm_range)

    def connected(adj):
        return int8_csr_component_labels(adj)[0] == 1

    # Interval k is (times[k], times[k + 1]); the last one never ends.
    ends = [*times[1:], math.inf]
    inside = [adjacency((t + end) / 2.0 if end < math.inf else t + 1.0)
              for t, end in zip(times, ends)]
    interval_connected = [connected(adj) for adj in inside]
    for k, t in enumerate(times):
        at_t = adjacency(0.0) if k == 0 else inside[k - 1] | inside[k]
        if not connected(at_t):
            continue
        end = k
        while end < len(times) and interval_connected[end]:
            end += 1
        return t, (math.inf if end == len(times) else times[end] - t)
    return None, 0.0
