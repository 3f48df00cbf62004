"""Graph-convolution planner network over the bipartite damage-graph batch.

The network maps normalized node positions through a stack of graph
convolutions ``(I - L/n) X W`` on the block-diagonal batch: one widening
layer, ``blocks`` residual blocks (two convolution + ReLU pairs each, with a
skip from the first layer's output), and a tanh projection back to 2-D that
is rescaled to position range.  Each branch block of the output is a
candidate target-position matrix; the loss is the worst remaining-node
flight time plus a penalty for every extra sub-net in the candidate graph.

Everything is hand-rolled numpy: the forward pass writes what reverse mode
needs into a preallocated workspace, which is its trace and also holds the
gradients; gradients are derived manually (the sub-net penalty is piecewise
constant, so training uses a spanning-tree gap surrogate whose gradient
pulls the closest node pair of disconnected components together), and the
optimizer is a plain Adam that updates the weights in place.  No branch's
rows read another branch's at any layer, so every forward pass runs in two
halves of the batch, cut at a branch boundary.  Each training loop sets
numpy's OpenBLAS to one thread, process-wide, while it runs; where a core is
spare it hands one half of each forward, the weight gradients and half of
Adam to a second thread, its lane, beside the caller's half and backward.
"""
from __future__ import annotations

import base64
import contextlib
import ctypes
import functools
import math
import os
from concurrent import futures
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools
from scipy.sparse.csgraph import minimum_spanning_tree

from .damage import DamageScenario, InputGraph, apply_damage, build_input_graph
from .damage_graphs import DamageGraphSequence, build_graph_sequence, choose_branch_count
from .swarm import (SwarmTopology, _pairwise_sq_distances, build_adjacency, component_labels,
                    count_subnets, diameter_from_hops, generate_swarm, read_payload,
                    write_csv, write_payload)

MODEL_VERSION = 1
MODEL_FIELDS = {"d_s": "positive integer", "L": "positive integer",
                "shapes": "list of integer pairs", "weights": "list of strings",
                "dtype": ("float64",), "byte_order": ("little",)}
# The online solver runs the network in float32, about twice float64's GEMM
# and sparse-product rate.  Its output is cast up to float64, so scoring,
# selection and every feasibility test stay float64, and model files and
# pretraining stay float64.
NETWORK_DTYPE = np.float32
# Bytes per slice of the in-place Adam update: the slice of the weight,
# gradient and both moments plus two scratch slices (6 x 256 KiB) stay in a
# 2 MiB L2 cache across the update's fourteen element-wise passes.  At
# d = 512 on an x86_64 core with 2 MiB of L2, 256 KiB was the fastest of 128,
# 256 and 512 KiB slices in float64 (32768 elements) and float32 (65536).
ADAM_SLICE_BYTES = 262144


class TrainingDivergence(RuntimeError):
    """Non-finite values appeared during training."""


@dataclass(frozen=True)
class Hyperparams:
    """Network and training knobs; defaults match the reference experiments.

    The kernel step is always 1/n (see ``build_kernel``), and Adam uses the
    standard betas 0.9 and 0.999 and epsilon 1e-8.
    """

    hidden_dim: int = 512
    blocks: int = 3
    lagrange_s: float = 100.0
    learning_rate: float = 1e-4
    dropout: float = 0.1
    pretrain_iters: int = 500
    online_iters: int = 100
    max_speed: float = 10.0
    branch_cap: int = 12

    def __post_init__(self):
        for name in ("hidden_dim", "blocks", "pretrain_iters", "online_iters", "branch_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        for name in ("lagrange_s", "learning_rate", "max_speed"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class ModelWeights:
    """Layer weight matrices: (2, d), then 2 per block (d, d), then (d, 2).

    Finiteness is checked where weights enter the system (``load_model``);
    training raises ``TrainingDivergence`` once the network output is not
    finite, so no per-step check is made.
    """

    matrices: tuple[np.ndarray, ...]
    hidden_dim: int
    blocks: int

    def __post_init__(self):
        expected = self.expected_shapes(self.hidden_dim, self.blocks)
        shapes = tuple(m.shape for m in self.matrices)
        if shapes != expected:
            raise ValueError(f"weight shapes {shapes} do not match {expected}")

    @staticmethod
    def expected_shapes(hidden_dim: int, blocks: int) -> tuple[tuple[int, int], ...]:
        shapes = [(2, hidden_dim)]
        shapes.extend([(hidden_dim, hidden_dim)] * (2 * blocks))
        shapes.append((hidden_dim, 2))
        return tuple(shapes)

    @classmethod
    def init_scaled_uniform(cls, hidden_dim: int, blocks: int, seed: int) -> "ModelWeights":
        """Uniform init on +-sqrt(6 / (fan_in + fan_out)) per matrix."""
        rng = np.random.default_rng(seed)
        mats = []
        for rows, cols in cls.expected_shapes(hidden_dim, blocks):
            bound = np.sqrt(6.0 / (rows + cols))
            mats.append(rng.uniform(-bound, bound, size=(rows, cols)))
        return cls(matrices=tuple(mats), hidden_dim=hidden_dim, blocks=blocks)


def build_kernel(seq: DamageGraphSequence) -> sparse.csr_matrix:
    """Convolution kernel I - L/n of the block-diagonal batch, n nodes per branch.

    The step 1/n is a contraction on every branch: a branch links remaining
    nodes only to destroyed ones, so a remaining node has degree at most n_d
    and a destroyed node at most n_r, both at most n - 1.  Hence 1/n <=
    1/max_degree, and the kernel is symmetric, entrywise in [0, 1] and
    row-stochastic.
    """
    adjacency = seq.batch_adjacency
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    kernel = sparse.identity(adjacency.shape[0], format="csr") - (1.0 / seq.n) * (
        sparse.diags(degrees) - adjacency
    )
    return kernel.tocsr()


def scenario_kernel(topology: SwarmTopology, scenario: DamageScenario, branch_cap: int
                    ) -> tuple[InputGraph, DamageGraphSequence, sparse.csr_matrix]:
    """Input graph, branch sequence and kernel of a scenario; K from the hop diameter."""
    input_graph = build_input_graph(topology, scenario)
    branches = choose_branch_count(diameter_from_hops(input_graph.hops), branch_cap)
    seq = build_graph_sequence(input_graph, branches)
    return input_graph, seq, build_kernel(seq)


def kernel_flow(seq: DamageGraphSequence, branch: int, x: np.ndarray,
                steps: int) -> np.ndarray:
    """Apply one branch's kernel ``steps`` times to x (no weights).

    The kernel is the branch's diagonal block of ``build_kernel``, with
    step 1/n.  Column sums are invariant; on a connected branch the
    rows converge to the centroid of x, and on a disconnected branch to
    per-component centroids.
    """
    if not 1 <= branch <= seq.branches:
        raise ValueError("branch index out of range")
    lo = (branch - 1) * seq.n
    kernel = build_kernel(seq)[lo:lo + seq.n, lo:lo + seq.n]
    out = np.asarray(x, dtype=float).copy()
    for _ in range(steps):
        out = kernel @ out
    return out


def normalize_features(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Center on the swarm centroid and scale every row norm below 1.

    Returns (normalized, center, scale) with scale the maximum distance of
    any point from the centroid; the division by scale + 1 keeps row norms
    strictly under 1 even for the farthest node.
    """
    pts = np.asarray(points, dtype=float)
    center = pts.mean(axis=0)
    scale = float(np.linalg.norm(pts - center, axis=1).max())
    return (pts - center) / (scale + 1.0), center, scale


def upscale_features(normalized: np.ndarray, center: np.ndarray, scale: float) -> np.ndarray:
    """Exact inverse of normalize_features."""
    return (scale + 1.0) * np.asarray(normalized, dtype=float) + center


@dataclass(eq=False)
class Workspace:
    """One forward pass's trace, and the gradients and scratch of its backward.

    A training loop makes one for its batch and passes it to every call, so
    the first iteration faults its pages in and no later one allocates a
    (rows, d) array.  ``forward`` writes its trace here and returns the
    workspace: the first layer, the blocks' ``mid_a``, ``act_a``, ``mid_b``
    and ``act_b`` stacked (blocks, rows, d), the dropout masks of blocks >= 1
    as ``masks`` (blocks - 1, rows, d), ``final_mid``, and per pass
    ``final_act``, ``output``, ``scale`` and ``dropped`` (whether ``masks``
    holds this pass's masks).  ``backward`` writes the weight gradients and
    its scratch: ``first``, ``product``, and ``spread`` and ``spread_a``,
    which take turns as the output of its sparse products.  The forward's
    block input and its dropped copy live in ``first`` and its float64
    dropout draw in ``draw``, which shares the memory of ``product`` (and of
    ``spread`` in float32).  No trace array shares scratch, so a trace stays
    whole until the next forward, which overwrites it; one that takes it as
    its ``prefix`` keeps its first layer and block 0.
    """

    first_mid: np.ndarray
    first_act: np.ndarray
    mid_a: np.ndarray
    act_a: np.ndarray
    mid_b: np.ndarray
    act_b: np.ndarray
    masks: np.ndarray
    final_mid: np.ndarray
    grads: tuple[np.ndarray, ...]
    first: np.ndarray
    product: np.ndarray
    spread: np.ndarray
    spread_a: np.ndarray
    active: np.ndarray
    draw: np.ndarray
    final_act: np.ndarray | None = None
    output: np.ndarray | None = None
    scale: float = 0.0
    dropped: bool = False

    @classmethod
    def for_batch(cls, weights: ModelWeights, rows: int) -> "Workspace":
        """Arrays for ``rows`` batch rows in the weights' dtype, gradients like the weights."""
        shape, dtype = (rows, weights.hidden_dim), weights.matrices[0].dtype

        def new(*stack):
            return np.empty((*stack, *shape), dtype)

        blocks = weights.blocks
        # product and spread, back to back; the float64 draw spans their
        # first rows * d * 8 bytes, which is both in float32.
        pair = np.empty(2 * rows * weights.hidden_dim, dtype)
        product, spread = (half.reshape(shape) for half in np.split(pair, 2))
        return cls(first_mid=np.empty((rows, 2), dtype), first_act=new(), mid_a=new(blocks),
                   act_a=new(blocks), mid_b=new(blocks), act_b=new(blocks),
                   masks=new(blocks - 1), final_mid=new(),
                   grads=tuple(np.empty_like(m) for m in weights.matrices),
                   first=new(), product=product, spread=spread, spread_a=new(),
                   active=np.empty(shape, dtype=bool),
                   draw=pair.view(np.float64)[:product.size].reshape(shape))


class _InlineLane(futures.Executor):
    """The lane of a caller that gives none: runs each job when it is submitted."""

    def submit(self, fn, /, *args, **kwargs) -> futures.Future:
        job = futures.Future()
        job.set_result(fn(*args, **kwargs))
        return job


_INLINE_LANE = _InlineLane()


def _kernel_product(kernel: sparse.csr_matrix, x: np.ndarray, out: np.ndarray,
                    rows: slice = slice(None)) -> np.ndarray:
    """``kernel @ x`` written into ``out``, a C-contiguous array of their dtype; returns out.

    It zeroes ``out`` and calls scipy's CSR routine as ``kernel @ x`` does
    (scipy 1.17's ``_cs_matrix._matmul_multivector``), so the bytes are the
    same.  For one column ``kernel @ x`` calls ``csr_matvec`` instead, which
    adds in the same order.  ``rows``, a range of step 1, limits the product
    to those rows of the kernel and of ``out``, and leaves the other rows of
    ``out`` alone; each row sums as in the whole product.  On the batch's
    block-diagonal kernel a range that starts and ends on a branch boundary
    reads only its own rows of ``x``.
    """
    lo, hi, _ = rows.indices(kernel.shape[0])
    part = out[lo:hi]
    part.fill(0)
    _sparsetools.csr_matvecs(hi - lo, kernel.shape[1], x.shape[1], kernel.indptr[lo:hi + 1],
                             kernel.indices, kernel.data, x.ravel(), part.ravel())
    return out


def _relu_product(x: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.maximum(x @ w, 0.0)`` written into ``out``; returns out."""
    np.matmul(x, w, out=out)
    return np.maximum(out, 0.0, out=out)


def forward(weights: ModelWeights, seq: DamageGraphSequence, kernel,
            config: Hyperparams, train: bool = False,
            rng: np.random.Generator | None = None,
            prefix: Workspace | None = None, *,
            workspace: Workspace | None = None,
            lane: futures.Executor | None = None) -> tuple[np.ndarray, Workspace]:
    """Run the network on the batch; returns (output positions, trace).

    Computes in the dtype of the weights, which the CSR kernel must share:
    the tiled input rows and the dropout mask (drawn as float64) are cast to
    it.  The output positions are float64.  The trace is ``workspace`` (the
    prefix or a fresh one when None), which this pass overwrites.

    Dropout is applied between residual blocks in train mode only (masks are
    recorded in the trace); eval mode is fully deterministic.  Raises
    TrainingDivergence if the output stops being finite.

    Block 0 has no dropout in either mode, so the first layer and block 0
    depend only on the weights, batch and kernel.  ``prefix``, the
    workspace's own trace of a forward pass over the same batch and kernel
    with weights equal to these, supplies them: the pass starts at block 1,
    and the result is bit-identical.  A prefix that is not the workspace
    raises ValueError.

    No branch's rows read another branch's at any layer, so the pass runs in
    two halves of the batch that meet at a branch boundary: this thread takes
    the first ceil(K/2) branches and ``lane`` (as in ``backward``) the rest,
    each up to the final sparse product.  The masks are drawn before the
    split, in block order, and the projection to 2-D runs on the whole batch
    after it.  The split is made on every lane, so the bytes do not depend
    on it; a half's dense products are row blocks of the whole pass's, which
    OpenBLAS 0.3.31 sums alike at the network's default width (see README).
    """
    mats = weights.matrices
    dropping = train and config.dropout > 0.0
    if dropping and weights.blocks > 1 and rng is None:
        raise ValueError("train-mode forward with dropout needs an rng")
    ws = prefix if workspace is None else workspace
    if ws is None:
        ws = Workspace.for_batch(weights, seq.batch_features.shape[0])
    elif prefix is not None and prefix is not ws:
        raise ValueError("a forward's prefix must be its workspace's own trace")

    x_rows, center, scale = normalize_features(seq.batch_features[:seq.n])
    if dropping:
        # Blocks >= 1 in order, as one stream: the masks a pass draws block
        # by block.
        for mask in ws.masks:
            rng.random(out=ws.draw)
            np.greater_equal(ws.draw, config.dropout, out=ws.active)
            np.divide(ws.active, 1.0 - config.dropout, out=mask)
    tiled = None if prefix is not None else np.tile(x_rows, (seq.branches, 1)).astype(
        mats[0].dtype, copy=False)
    split = -(-seq.branches // 2) * seq.n
    half = (lane or _INLINE_LANE).submit(_forward_rows, ws, weights, kernel, tiled, dropping,
                                         slice(split, None))
    try:
        _forward_rows(ws, weights, kernel, tiled, dropping, slice(0, split))
    finally:
        half.result()

    ws.final_act = np.tanh(ws.final_mid @ mats[-1])
    ws.output = upscale_features(ws.final_act, center, scale)
    ws.scale, ws.dropped = scale, dropping
    if not np.all(np.isfinite(ws.output)):
        raise TrainingDivergence("non-finite network output")
    return ws.output, ws


def _forward_rows(ws: Workspace, weights: ModelWeights, kernel, tiled: np.ndarray | None,
                  dropping: bool, rows: slice) -> None:
    """``forward`` on the batch rows ``rows``, a range of whole branches, to ``final_mid``.

    ``tiled`` holds the input rows, or is None to start from the workspace's
    block 0 (a prefix); ``dropping`` applies the workspace's masks.  Only
    these rows of the workspace are written, and only these are read.
    """
    mats = weights.matrices
    first_act, x = ws.first_act[rows], ws.first[rows]
    if tiled is None:
        np.add(ws.act_b[0][rows], first_act, out=x)
        inputs, start = ws.first, 1
    else:
        _kernel_product(kernel, tiled, ws.first_mid, rows)
        _relu_product(ws.first_mid[rows], mats[0], first_act)
        inputs, start = ws.first_act, 0
    for l in range(start, weights.blocks):
        if dropping and l > 0:
            # inputs is ws.first here: block 0 wrote it.
            np.multiply(x, ws.masks[l - 1][rows], out=x)
        _kernel_product(kernel, inputs, ws.mid_a[l], rows)
        _relu_product(ws.mid_a[l][rows], mats[1 + 2 * l], ws.act_a[l][rows])
        _kernel_product(kernel, ws.act_a[l], ws.mid_b[l], rows)
        _relu_product(ws.mid_b[l][rows], mats[2 + 2 * l], ws.act_b[l][rows])
        np.add(ws.act_b[l][rows], first_act, out=x)
        inputs = ws.first
    _kernel_product(kernel, inputs, ws.final_mid, rows)


def backward(trace: Workspace, weights: ModelWeights, kernel,
             grad_output: np.ndarray,
             workspace: Workspace | None = None, *,
             lane: futures.Executor | None = None) -> list[np.ndarray]:
    """Reverse-mode gradients of every weight matrix given d(loss)/d(output).

    The kernel is symmetric, so its transpose in the chain is itself.  It
    computes in the weights' dtype: the float64 output gradient is cast to it
    after the tanh step.  The gradients are the arrays of ``workspace`` (the
    trace's own when None), which the next call with it overwrites; the
    trace's arrays are only read.

    The weight gradients of the blocks and of the projection run on
    ``lane``, an executor with one worker (None runs each job when it is
    submitted), while this thread goes on down the chain; all are done when
    it returns.  Each is the same ``np.matmul`` on the same operands, so the
    gradients do not depend on the lane.
    """
    mats = weights.matrices
    ws = trace if workspace is None else workspace
    lane = lane or _INLINE_LANE
    grads, active, product, spread, spread_a = (
        ws.grads, ws.active, ws.product, ws.spread, ws.spread_a)
    g_final = grad_output * (trace.scale + 1.0)
    g_zq = (g_final * (1.0 - trace.final_act ** 2)).astype(mats[-1].dtype, copy=False)
    # Each product with the kernel reads ``product``.  A block's g_a goes to
    # ``spread_a`` and every other gradient of the chain to ``spread``; the
    # lane reads the one a weight gradient needs while the chain fills the
    # other, and the chain waits for that job before overwriting it.  The
    # projection's job reads neither, but is waited for like a block's.
    reads_spread_a = lane.submit(np.matmul, trace.final_mid.T, g_zq, out=grads[-1])
    g_x = _kernel_product(kernel, np.matmul(g_zq, mats[-1].T, out=product), spread)
    g_first = ws.first
    g_first.fill(0.0)
    for l in range(weights.blocks - 1, -1, -1):
        w_a = mats[1 + 2 * l]
        w_b = mats[2 + 2 * l]
        g_first += g_x
        g_zb = np.multiply(g_x, np.greater(trace.act_b[l], 0, out=active), out=g_x)
        reads_spread = lane.submit(np.matmul, trace.mid_b[l].T, g_zb, out=grads[2 + 2 * l])
        np.matmul(g_zb, w_b.T, out=product)
        reads_spread_a.result()
        g_a = _kernel_product(kernel, product, spread_a)
        g_za = np.multiply(g_a, np.greater(trace.act_a[l], 0, out=active), out=g_a)
        reads_spread_a = lane.submit(np.matmul, trace.mid_a[l].T, g_za, out=grads[1 + 2 * l])
        np.matmul(g_za, w_a.T, out=product)
        reads_spread.result()
        g_in = _kernel_product(kernel, product, spread)
        if l > 0 and trace.dropped:
            g_in *= trace.masks[l - 1]
        if l == 0:
            g_first += g_in
        else:
            g_x = g_in

    g_z1 = np.multiply(g_first, np.greater(trace.first_act, 0, out=active), out=g_first)
    np.matmul(trace.first_mid.T, g_z1, out=grads[0])
    reads_spread_a.result()
    return list(grads)


@dataclass(frozen=True)
class BranchMetrics:
    """Per-branch recovery time and sub-net count of the candidate graphs."""

    flight_times: np.ndarray
    subnet_counts: np.ndarray


def _score_branch(targets: np.ndarray, start_remaining: np.ndarray, comm_range: float
                  ) -> tuple[np.ndarray, int, int, np.ndarray]:
    """Distances from start, the arg-max node, and the candidate graph's (n_comp, labels)."""
    dist = np.linalg.norm(targets - start_remaining, axis=1)
    n_comp, labels = component_labels(build_adjacency(targets, comm_range))
    return dist, int(np.argmax(dist)), n_comp, labels


def per_branch_metrics(output: np.ndarray, n: int, n_remaining: int,
                       start_remaining: np.ndarray, max_speed: float,
                       comm_range: float) -> BranchMetrics:
    """Evaluate every branch block of the output as a recovery candidate.

    Flight time is the worst remaining-node travel time to its target;
    the sub-net count is taken on the remaining targets only (destroyed
    rows never enter the candidate graph).
    """
    branches = output.shape[0] // n
    times = np.empty(branches)
    counts = np.empty(branches, dtype=int)
    for k in range(branches):
        dist, worst, counts[k], _ = _score_branch(
            output[k * n: k * n + n_remaining], start_remaining, comm_range
        )
        times[k] = float(dist[worst]) / max_speed
    return BranchMetrics(flight_times=times, subnet_counts=counts)


def reported_loss(metrics: BranchMetrics, lagrange_s: float) -> float:
    """Objective value as reported: sum_k flight_time_k + penalty per extra sub-net."""
    extra = metrics.subnet_counts.astype(float) - 1.0
    return float(metrics.flight_times.sum() + lagrange_s * extra.sum())


def _component_gap_gradient(targets: np.ndarray, n_comp: int, labels: np.ndarray,
                            comm_range: float, gap_penalty: float,
                            grad_out: np.ndarray) -> float:
    """Spanning-tree gap surrogate for the sub-net penalty; adds into grad_out.

    The candidate graph's ``n_comp`` components (``labels``) are joined along
    a minimum spanning tree of their closest node pairs; each join adds
    gap_penalty * (distance - comm_range) and pulls its pair together.  By
    the cut property the joins are the edges longer than comm_range in a
    minimum spanning tree of the targets whose links all weigh
    comm_range**2: Kruskal takes every link first, which builds the
    components.  Joins are summed in component order, not the tree's edge
    order.  Returns the surrogate value (zero when connected).
    """
    if n_comp <= 1:
        return 0.0
    sq = _pairwise_sq_distances(targets)
    r2 = comm_range * comm_range
    # A zero weight is no edge, so a link between coincident nodes weighs r2
    # like every other link.  The CSR form keeps every positive weight;
    # csgraph's dense reader would also drop those within 1e-8 of zero.
    weights = sparse.csr_matrix(np.triu(np.where(sq <= r2, r2, sq), 1))
    tree = minimum_spanning_tree(weights).tocoo()
    joins = tree.data > r2
    rows, cols = tree.row[joins], tree.col[joins]
    lower, higher = np.sort(labels[np.stack([rows, cols])], axis=0)
    order = np.lexsort((higher, lower))
    surrogate = 0.0
    for i, j in zip(rows[order], cols[order]):
        w = np.sqrt(sq[i, j])
        gap = w - comm_range
        if gap <= 0.0:
            continue
        surrogate += gap_penalty * gap
        unit = (targets[i] - targets[j]) / w
        grad_out[i] += gap_penalty * unit
        grad_out[j] -= gap_penalty * unit
    return surrogate


@dataclass(frozen=True)
class LossHead:
    """Gradient of the trainable objective plus the metrics behind it."""

    grad_output: np.ndarray
    metrics: BranchMetrics
    reported: float
    # Value whose gradient grad_output actually is: flight times plus surrogate.
    trainable: float


def loss_head(output: np.ndarray, n: int, n_remaining: int,
              start_remaining: np.ndarray, max_speed: float, comm_range: float,
              lagrange_s: float, gap_penalty: float) -> LossHead:
    """Per-branch loss gradients with respect to the output positions.

    The flight-time term differentiates through the arg-max node (ties go to
    the lowest remaining index, zero vector at zero displacement); the
    sub-net penalty is piecewise constant, so its gradient comes from the
    spanning-tree gap surrogate while the reported value keeps the exact
    penalty.  Destroyed rows receive zero gradient.
    """
    branches = output.shape[0] // n
    grad = np.zeros_like(output)
    times = np.empty(branches)
    counts = np.empty(branches, dtype=int)
    surrogate = 0.0
    for k in range(branches):
        lo = k * n
        targets = output[lo: lo + n_remaining]
        dist, worst, n_comp, labels = _score_branch(targets, start_remaining, comm_range)
        times[k] = float(dist[worst]) / max_speed
        if dist[worst] > 0.0:
            grad[lo + worst] += (targets[worst] - start_remaining[worst]) / (
                max_speed * dist[worst]
            )
        counts[k] = n_comp
        surrogate += _component_gap_gradient(
            targets, n_comp, labels, comm_range, gap_penalty, grad[lo: lo + n_remaining]
        )
    metrics = BranchMetrics(flight_times=times, subnet_counts=counts)
    return LossHead(
        grad_output=grad,
        metrics=metrics,
        reported=reported_loss(metrics, lagrange_s),
        trainable=float(times.sum() + surrogate),
    )


@dataclass
class AdamState:
    first_moment: tuple[np.ndarray, ...]
    second_moment: tuple[np.ndarray, ...]
    step: int = 0

    @classmethod
    def zeros(cls, weights: ModelWeights) -> "AdamState":
        return cls(
            first_moment=tuple(np.zeros_like(m) for m in weights.matrices),
            second_moment=tuple(np.zeros_like(m) for m in weights.matrices),
            step=0,
        )


def adam_step(weights: ModelWeights, grads: list[np.ndarray], state: AdamState,
              config: Hyperparams, *, lane: futures.Executor | None = None) -> None:
    """Standard Adam update with bias correction, in place.

    Overwrites ``weights.matrices`` and the state's moment arrays and
    advances ``state.step`` by one; a caller that needs the old values
    copies them first.  Per element it computes
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g`` and
    ``w -= (lr*(m/c1)) / (sqrt(v/c2) + eps)`` in that order, so the result is
    bit-identical to the out-of-place form.  ``lane`` (as in ``backward``)
    updates the matrices at odd indices while this thread updates the even
    ones.
    """
    state.step += 1
    updates = list(zip(weights.matrices, grads, state.first_moment, state.second_moment))
    odd = (lane or _INLINE_LANE).submit(_adam_update, updates[1::2], state.step,
                                        config.learning_rate)
    _adam_update(updates[0::2], state.step, config.learning_rate)
    odd.result()


def _adam_update(updates, t: int, lr: float) -> None:
    """``adam_step``'s update of each (weight, gradient, moment, moment) at step t.

    Each matrix is updated in row slices of about ``ADAM_SLICE_BYTES`` with
    two scratch buffers allocated once per call, in the weights' dtype.
    """
    b1, b2, eps = 0.9, 0.999, 1e-8
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    dtype = updates[0][0].dtype
    slice_len = ADAM_SLICE_BYTES // dtype.itemsize
    # A row wider than a slice is a slice of its own.
    width = max(slice_len, *(w.shape[1] for w, _, _, _ in updates))
    buf_a, buf_b = np.empty(width, dtype), np.empty(width, dtype)
    for w_all, g_all, m_all, v_all in updates:
        rows, cols = w_all.shape
        step = max(1, slice_len // cols)
        for lo in range(0, rows, step):
            hi = min(rows, lo + step)
            w, g, m, v = w_all[lo:hi], g_all[lo:hi], m_all[lo:hi], v_all[lo:hi]
            a = buf_a[:(hi - lo) * cols].reshape(hi - lo, cols)
            b = buf_b[:(hi - lo) * cols].reshape(hi - lo, cols)
            np.multiply(m, b1, out=m)
            np.multiply(g, 1.0 - b1, out=a)
            np.add(m, a, out=m)
            np.multiply(v, b2, out=v)
            np.multiply(g, 1.0 - b2, out=a)
            np.multiply(a, g, out=a)
            np.add(v, a, out=v)
            np.divide(v, c2, out=a)
            np.sqrt(a, out=a)
            np.add(a, eps, out=a)
            np.divide(m, c1, out=b)
            np.multiply(b, lr, out=b)
            np.divide(b, a, out=b)
            np.subtract(w, b, out=w)


@functools.cache
def _openblas_threads():
    """``(get_num_threads, set_num_threads)`` of numpy.libs' OpenBLAS via ctypes, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):  # numpy >= 2, numpy 1.x
            get = getattr(lib, f"{prefix}_get_num_threads64_", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads64_", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _usable_cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _training_lane():
    """The lane of one training loop, for a ``with`` block, at one BLAS thread.

    The block sets numpy's OpenBLAS to one thread and restores the caller's
    count when it ends, raised or not, so a fixed seed gives one answer
    whatever ``OPENBLAS_NUM_THREADS`` says.  The count is process-wide: BLAS
    run on another thread during the loop gets one thread too.  A thread lane
    (a pool of one worker) then opens unless the process is a
    ``multiprocessing`` child (``run_experiment``'s workers share the cores)
    or may use one core only; otherwise, and where numpy's OpenBLAS is not
    found (the count then stays), the loop runs inline on its thread alone.

    Either lane makes the same ``np.matmul`` and ufunc calls, and a forward
    splits its batch alike on each, so the lane changes no result; it runs
    only this module's private helpers and numpy.  Leaving the block joins
    the thread, so no lane outlives its loop, and a process that forks
    between loops (``run_experiment`` with ``jobs > 1``) has none.
    """
    import multiprocessing
    if (blas := _openblas_threads()) is None:
        yield _INLINE_LANE
        return
    get, set_ = blas
    threads = get()
    set_(1)
    try:
        opens = multiprocessing.parent_process() is None and _usable_cores() > 1
        with (futures.ThreadPoolExecutor(1, "resilinet-lane") if opens
              else contextlib.nullcontext(_INLINE_LANE)) as lane:
            yield lane
    finally:
        set_(threads)


def train_step(weights: ModelWeights, state: AdamState, seq: DamageGraphSequence,
               kernel, start_remaining: np.ndarray, comm_range: float,
               config: Hyperparams, rng: np.random.Generator, workspace: Workspace,
               prefix: Workspace | None = None, *,
               lane: futures.Executor | None = None) -> LossHead:
    """One train-mode forward/backward/Adam update of ``weights`` and ``state`` in place.

    Returns the loss head.  Forward and backward run in ``workspace``,
    ``prefix`` (None or ``workspace``) goes to ``forward`` and ``lane`` to
    ``forward``, ``backward`` and ``adam_step``.  The gap penalty is one
    ``lagrange_s`` per communication range of residual component gap.
    """
    output, trace = forward(weights, seq, kernel, config, train=True, rng=rng,
                            prefix=prefix, workspace=workspace, lane=lane)
    head = loss_head(
        output, seq.n, seq.n_remaining, start_remaining, config.max_speed,
        comm_range, config.lagrange_s, config.lagrange_s / comm_range,
    )
    grads = backward(trace, weights, kernel, head.grad_output, lane=lane)
    adam_step(weights, grads, state, config, lane=lane)
    return head


@dataclass(frozen=True)
class CurvePoint:
    """One loss-curve row as written to the training CSV."""

    iteration: int
    reported_loss: float
    surrogate_loss: float
    best_flight_time: float | None
    feasible: bool


@dataclass(frozen=True)
class PretrainResult:
    weights: ModelWeights
    curve: tuple[CurvePoint, ...]
    metadata: dict


def pretrain(n: int, density_per_km2: float, comm_range: float, seed: int,
             config: Hyperparams | None = None) -> PretrainResult:
    """Train fresh weights on one random half-damage split scenario.

    Derives topology/damage/init/dropout seeds from the master seed, so the
    whole run (and the persisted file) is reproducible bit for bit.  It trains
    in float64: in the acceptance replay at pretrain seeds 42-44, a float32
    pretrain planned 0.22-0.36 s slower mean recovery at every seed.
    Its train steps share one workspace and one lane (``_training_lane``),
    which runs half of each forward, the weight gradients and half of Adam.
    """
    config = config or Hyperparams()
    topo_seed, damage_seed, init_seed, dropout_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(4)
    )
    topology = generate_swarm(n, density_per_km2, comm_range, topo_seed)
    scenario = apply_damage(topology, n // 2, damage_seed, require_split=True)
    input_graph, seq, kernel = scenario_kernel(topology, scenario, config.branch_cap)

    weights = ModelWeights.init_scaled_uniform(config.hidden_dim, config.blocks, init_seed)
    state = AdamState.zeros(weights)
    rng = np.random.default_rng(dropout_seed)
    start_remaining = input_graph.features[: input_graph.n_remaining]

    # Every iteration's forward and backward overwrite this one workspace.
    workspace = Workspace.for_batch(weights, seq.batch_features.shape[0])

    curve = []
    best_flight: float | None = None
    with _training_lane() as lane:
        for iteration in range(1, config.pretrain_iters + 1):
            head = train_step(weights, state, seq, kernel, start_remaining, comm_range,
                              config, rng, workspace, lane=lane)
            feasible = head.metrics.subnet_counts == 1
            if feasible.any():
                t = float(head.metrics.flight_times[feasible].min())
                best_flight = t if best_flight is None else min(best_flight, t)
            curve.append(CurvePoint(
                iteration=iteration,
                reported_loss=head.reported,
                surrogate_loss=head.trainable,
                best_flight_time=best_flight,
                feasible=bool(feasible.any()),
            ))

    metadata = {
        "n": n,
        "density_per_km2": density_per_km2,
        "d_tr_m": comm_range,
        "seed": seed,
        "branches": seq.branches,
        "n_destroyed": scenario.n_destroyed,
        "iterations": config.pretrain_iters,
        "first_loss": curve[0].reported_loss,
        "final_loss": curve[-1].reported_loss,
    }
    return PretrainResult(weights=weights, curve=tuple(curve), metadata=metadata)


@dataclass(frozen=True)
class SolutionSet:
    """The best connected candidate of every branch; the planner chooses among them.

    ``branch_targets[k]`` holds the survivors' (n_remaining, 2) targets of
    branch k + 1's best connected candidate and ``flight_times[k]`` its flight
    time; a branch that never produced one has None and ``inf``.
    """

    branch_targets: tuple[np.ndarray | None, ...]
    flight_times: np.ndarray
    iterations: int


def solve(input_graph: InputGraph, seq: DamageGraphSequence, kernel,
          weights: ModelWeights, comm_range: float,
          config: Hyperparams | None = None, seed: int = 0) -> SolutionSet:
    """Online-iterate from pretrained weights and keep the best per branch.

    The pretrained weights are never mutated: Adam updates a float32 copy
    made once per call, and the network runs on a float32 copy of the kernel.
    After each train-mode step, an eval-mode forward scores every branch; the
    best feasible candidate per branch over all iterations is retained.  That
    eval trace is the next train forward's ``prefix``, and both run in one
    ``Workspace``, so the solver holds one forward trace, and both passes
    share one lane (``_training_lane``), which also runs half of the eval
    forward.  Runs exactly ``config.online_iters`` iterations, or none when
    the survivors start connected.  An entirely infeasible run is a value,
    not an error: every time is ``inf``.  The search chooses no branch;
    ``planner.plan_learned`` does.
    """
    config = config or Hyperparams()
    n, n_r = seq.n, seq.n_remaining
    start_remaining = input_graph.features[:n_r]
    branches = seq.branches

    if count_subnets(input_graph.adjacency[:n_r, :n_r]) == 1:
        identity = tuple(start_remaining.copy() for _ in range(branches))
        return SolutionSet(branch_targets=identity, flight_times=np.zeros(branches),
                           iterations=0)

    weights = replace(weights, matrices=tuple(m.astype(NETWORK_DTYPE) for m in weights.matrices))
    kernel = kernel.astype(NETWORK_DTYPE)
    state = AdamState.zeros(weights)
    workspace = Workspace.for_batch(weights, seq.batch_features.shape[0])
    rng = np.random.default_rng(seed)
    best_times = np.full(branches, np.inf)
    best_targets: list[np.ndarray | None] = [None] * branches

    with _training_lane() as lane:
        for iteration in range(config.online_iters):
            # After the first, the eval forward wrote the whole workspace;
            # this train forward keeps its first layer and block 0 and
            # overwrites the rest, which the scored eval output no longer needs.
            train_step(weights, state, seq, kernel, start_remaining, comm_range, config, rng,
                       workspace, prefix=workspace if iteration else None, lane=lane)
            output, _ = forward(weights, seq, kernel, config, train=False, workspace=workspace,
                                lane=lane)
            metrics = per_branch_metrics(
                output, n, n_r, start_remaining, config.max_speed, comm_range
            )
            for k in range(branches):
                if metrics.subnet_counts[k] == 1 and metrics.flight_times[k] < best_times[k]:
                    best_times[k] = metrics.flight_times[k]
                    best_targets[k] = output[k * n: k * n + n_r].copy()

    return SolutionSet(branch_targets=tuple(best_targets), flight_times=best_times,
                       iterations=config.online_iters)


def save_model(path: str | Path, weights: ModelWeights, init_seed: int,
               metadata: dict | None = None) -> None:
    """Persist weights as canonical JSON (row-major float64, base64 payload)."""
    write_payload(path, {
        "version": MODEL_VERSION,
        "n": (metadata or {}).get("n"),
        "d_s": weights.hidden_dim,
        "L": weights.blocks,
        "Q": len(weights.matrices),
        "dtype": "float64",
        "byte_order": "little",
        "shapes": [list(m.shape) for m in weights.matrices],
        "weights": [
            base64.b64encode(np.ascontiguousarray(m, dtype="<f8").tobytes()).decode("ascii")
            for m in weights.matrices
        ],
        "init_seed": init_seed,
        "metadata": metadata or {},
    })


def load_model(path: str | Path) -> tuple[ModelWeights, dict]:
    payload = read_payload(path, "model", MODEL_VERSION, MODEL_FIELDS)
    hidden_dim, blocks, shapes, blobs = (payload[k] for k in ("d_s", "L", "shapes", "weights"))
    # The count first, so a huge L never builds its list of expected shapes.
    if (len(shapes) != 2 * blocks + 2
            or tuple(map(tuple, shapes)) != ModelWeights.expected_shapes(hidden_dim, blocks)):
        raise ValueError(f"model file field 'shapes' does not match d_s={hidden_dim} and "
                         f"L={blocks}: it must list [2, d_s], 2L times [d_s, d_s], [d_s, 2]")
    if len(shapes) != len(blobs):
        raise ValueError("model file fields 'shapes' and 'weights' differ in length")
    mats = []
    for i, (shape, blob) in enumerate(zip(shapes, blobs)):
        try:
            mat = np.frombuffer(base64.b64decode(blob), dtype="<f8").reshape(shape)
        except ValueError as exc:
            raise ValueError(f"model file field 'weights' entry {i} is not a float64 "
                             f"array of shape {shape}") from exc
        if not np.all(np.isfinite(mat)):
            raise ValueError(f"model file field 'weights' entry {i} is not finite")
        mats.append(mat.astype(float))
    return ModelWeights(tuple(mats), hidden_dim, blocks), payload.get("metadata", {})


def write_loss_curve(path: str | Path, curve: tuple[CurvePoint, ...]) -> None:
    """CSV of the training curve: one row per iteration."""
    write_csv(path, ["iteration", "reported_loss", "surrogate_loss", "best_T_rc",
                     "feasible_flag"],
              ([p.iteration, p.reported_loss, p.surrogate_loss, p.best_flight_time,
                p.feasible] for p in curve))
