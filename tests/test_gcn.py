import base64
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent import futures
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from resilinet import gcn
from resilinet.damage import DamageScenario, apply_damage, build_input_graph
from resilinet.damage_graphs import build_graph_sequence, choose_branch_count, sparsity_report
from resilinet.planner import plan_learned
from resilinet.gcn import (AdamState, Hyperparams, ModelWeights, adam_step,
                           backward, build_kernel, forward,
                           kernel_flow, load_model, loss_head,
                           normalize_features, per_branch_metrics, pretrain,
                           reported_loss, save_model, solve, upscale_features,
                           write_loss_curve, BranchMetrics)
from resilinet.swarm import (SwarmTopology, build_adjacency, component_labels, count_subnets,
                             diameter_hops, generate_swarm)

from _oracles import (allocating_backward, allocating_forward, boolean_power_reachability,
                      component_pair_gap_gradient, dense_forward_reference,
                      dense_hadamard_damage_graph, functional_adam_step)
from test_damage import damage_cases

TINY = Hyperparams(hidden_dim=8, blocks=1, dropout=0.0, online_iters=30,
                   pretrain_iters=5)


def small_case(seed=1, n=16, n_d=7, branches=None):
    topo = generate_swarm(n, 200.0, 120.0, seed=seed)
    scenario = apply_damage(topo, n_d, seed=seed + 1)
    graph_in = build_input_graph(topo, scenario)
    if branches is None:
        branches = choose_branch_count(diameter_hops(topo.adjacency()))
    seq = build_graph_sequence(graph_in, branches)
    return topo, scenario, graph_in, seq


def write_non_finite_model(path, bad=np.nan):
    """A model file whose third matrix holds one non-finite value."""
    weights = ModelWeights.init_scaled_uniform(4, 1, seed=0)
    save_model(path, weights, init_seed=0)
    payload = json.loads(path.read_text())
    poisoned = weights.matrices[2].copy()
    poisoned[1, 1] = bad
    payload["weights"][2] = base64.b64encode(poisoned.astype("<f8").tobytes()).decode("ascii")
    path.write_text(json.dumps(payload))


@st.composite
def model_cases(draw):
    """(weights, init_seed, metadata): any finite float64 weights of a small network."""
    hidden, blocks = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    matrices = tuple(draw(arrays(np.float64, shape, elements=finite))
                     for shape in ModelWeights.expected_shapes(hidden, blocks))
    metadata = {"n": draw(st.integers(2, 1000)), "final_loss": draw(finite)}
    return (ModelWeights(matrices, hidden, blocks), draw(st.integers(0, 2**32 - 1)),
            metadata)


def pair_sequence(positions, destroyed, comm_range):
    """Input graph + single-branch sequence straight from hand-placed nodes."""
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    topo = SwarmTopology(positions=positions, comm_range=comm_range,
                         side=float(positions.max()) + 1.0)
    remaining = np.setdiff1d(np.arange(n), destroyed)
    scenario = DamageScenario(destroyed=np.asarray(destroyed), remaining=remaining)
    graph_in = build_input_graph(topo, scenario)
    return graph_in, build_graph_sequence(graph_in, 1)


class TestNormalize:
    def test_coincident_points(self):
        pts = np.ones((3, 2)) * 5.0
        normed, center, scale = normalize_features(pts)
        assert np.array_equal(normed, np.zeros((3, 2)))
        assert scale == 0.0
        assert np.array_equal(center, [5.0, 5.0])

    def test_two_point_example(self):
        normed, center, scale = normalize_features(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert np.array_equal(center, [1.0, 0.0])
        assert scale == 1.0
        assert np.allclose(normed, [[-0.5, 0.0], [0.5, 0.0]])

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1000, size=(40, 2))
        normed, center, scale = normalize_features(pts)
        assert np.allclose(upscale_features(normed, center, scale), pts,
                           rtol=1e-9, atol=1e-9)

    def test_rows_stay_inside_unit_disk(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            pts = rng.uniform(-500, 1500, size=(25, 2))
            normed, _, _ = normalize_features(pts)
            assert np.linalg.norm(normed, axis=1).max() < 1.0


class TestKernel:
    def test_rows_sum_to_one_and_entries_bounded(self):
        _, _, _, seq = small_case(3)
        kernel = build_kernel(seq)
        sums = np.asarray(kernel.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0, atol=1e-12)
        assert kernel.data.min() >= 0.0
        assert kernel.data.max() <= 1.0
        dense = kernel.toarray()
        assert np.allclose(dense, dense.T)

    def test_default_step_satisfies_contraction(self):
        for seed in range(5):
            _, _, _, seq = small_case(seed + 10)
            degrees = np.asarray(seq.batch_adjacency.sum(axis=1)).ravel()
            assert 1.0 / seq.n <= 1.0 / degrees.max()
            assert build_kernel(seq).data.min() >= 0.0


class TestKernelProperties:
    """The kernel invariants on random damage scenarios and branch counts."""

    @settings(max_examples=60, deadline=None)
    @given(damage_cases(), st.integers(1, 4))
    def test_symmetric_stochastic_kernel_over_masked_dilations(self, case, branches):
        graph_in = build_input_graph(*case)
        seq = build_graph_sequence(graph_in, branches)
        kernel = build_kernel(seq).toarray()
        assert np.array_equal(kernel, kernel.T)
        assert kernel.min() >= 0.0 and kernel.max() <= 1.0
        assert np.abs(kernel.sum(axis=1) - 1.0).max() <= 1e-12
        report = sparsity_report(seq)
        # 1e-15: at the bound, the two quotients may round apart by an ulp.
        assert report.density <= report.density_bound + 1e-15
        n, nnz = seq.n, 0
        for k in range(1, branches + 1):
            expected = dense_hadamard_damage_graph(
                boolean_power_reachability(graph_in.adjacency, k), graph_in.n_remaining)
            block = seq.batch_adjacency[(k - 1) * n:k * n, (k - 1) * n:k * n]
            assert np.array_equal(block.toarray(), expected)
            nnz += np.count_nonzero(expected)
        assert seq.batch_adjacency.nnz == nnz  # nothing outside the diagonal blocks

    @settings(max_examples=40, deadline=None)
    @given(damage_cases(), st.integers(1, 4), st.integers(1, 200))
    def test_kernel_flow_keeps_column_sums(self, case, branches, steps):
        graph_in = build_input_graph(*case)
        seq = build_graph_sequence(graph_in, branches)
        x = graph_in.features
        for branch in range(1, branches + 1):
            out = kernel_flow(seq, branch, x, steps=steps)
            assert np.abs(out.sum(axis=0) - x.sum(axis=0)).max() <= 1e-9


class TestGcoApply:
    """One graph convolution (I - step L) X W, applied as (kernel @ x) @ w."""

    def test_empty_graph_with_identity_weight(self):
        graph_in, seq = pair_sequence(
            [[0.0, 0.0], [100.0, 0.0], [5000.0, 0.0]], destroyed=[2],
            comm_range=120.0)
        kernel = build_kernel(seq)
        x = np.arange(6, dtype=float).reshape(3, 2)
        assert np.allclose((kernel @ x) @ np.eye(2), x)

    def test_constant_rows_pass_through(self):
        _, _, _, seq = small_case(5, branches=2)
        kernel = build_kernel(seq)
        x = np.tile([3.0, -1.0], (2 * seq.n, 1))
        w = np.random.default_rng(0).normal(size=(2, 4))
        assert np.allclose((kernel @ x) @ w, np.tile([3.0, -1.0] @ w, (2 * seq.n, 1)))

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(6)
        graph_in, seq = pair_sequence(rng.uniform(0, 200, size=(6, 2)),
                                      destroyed=[4, 5], comm_range=150.0)
        kernel = build_kernel(seq)
        full = seq.graphs[0].full_adjacency().astype(float)
        lap = np.diag(full.sum(axis=1)) - full
        dense_kernel = np.eye(6) - lap / 6.0
        x = rng.normal(size=(6, 2))
        w = rng.normal(size=(2, 3))
        assert np.allclose((kernel @ x) @ w, dense_kernel @ x @ w, atol=1e-12)


class TestForward:
    def test_zero_weights_map_to_centroid(self):
        _, _, graph_in, seq = small_case(7, branches=2)
        kernel = build_kernel(seq)
        zero = ModelWeights(
            tuple(np.zeros_like(m) for m in
                  ModelWeights.init_scaled_uniform(8, 1, 0).matrices),
            hidden_dim=8, blocks=1)
        out, _ = forward(zero, seq, kernel, TINY)
        center = graph_in.features.mean(axis=0)
        assert np.array_equal(out, np.tile(center, (out.shape[0], 1)))

    def test_eval_mode_is_deterministic(self):
        _, _, _, seq = small_case(8, branches=2)
        kernel = build_kernel(seq)
        weights = ModelWeights.init_scaled_uniform(8, 2, seed=3)
        config = Hyperparams(hidden_dim=8, blocks=2, dropout=0.3)
        a, _ = forward(weights, seq, kernel, config, train=False)
        b, _ = forward(weights, seq, kernel, config, train=False)
        assert np.array_equal(a, b)

    def test_train_mode_dropout_changes_output(self):
        _, _, _, seq = small_case(8, branches=2)
        kernel = build_kernel(seq)
        weights = ModelWeights.init_scaled_uniform(8, 2, seed=3)
        config = Hyperparams(hidden_dim=8, blocks=2, dropout=0.5)
        rng = np.random.default_rng(0)
        a, trace = forward(weights, seq, kernel, config, train=True, rng=rng)
        b, _ = forward(weights, seq, kernel, config, train=False)
        assert trace.dropped and trace.masks.shape == (1, *trace.first_act.shape)
        assert not np.array_equal(a, b)

    def test_eval_trace_prefix_gives_the_same_train_forward(self):
        _, _, _, seq = small_case(8, branches=3)
        kernel = build_kernel(seq)
        weights = ModelWeights.init_scaled_uniform(8, 3, seed=3)
        config = Hyperparams(hidden_dim=8, blocks=3, dropout=0.1)
        _, eval_trace = forward(weights, seq, kernel, config, train=False)
        plain, plain_trace = forward(weights, seq, kernel, config, train=True,
                                     rng=np.random.default_rng(5))
        shared, shared_trace = forward(weights, seq, kernel, config, train=True,
                                       rng=np.random.default_rng(5), prefix=eval_trace)
        assert shared.tobytes() == plain.tobytes()
        assert shared_trace is eval_trace
        for field in ("mid_a", "act_a", "mid_b", "act_b", "masks"):
            assert getattr(plain_trace, field).tobytes() == getattr(shared_trace, field).tobytes()
        assert shared_trace.dropped and shared_trace.masks.shape[0] == 2
        grads = [g.copy() for g in backward(plain_trace, weights, kernel, plain)]
        for a, b in zip(grads, backward(shared_trace, weights, kernel, shared)):
            assert a.tobytes() == b.tobytes()

    def test_matches_dense_reference_tiny_net(self):
        rng = np.random.default_rng(9)
        positions = rng.uniform(0, 300, size=(4, 2))
        graph_in, seq = pair_sequence(positions, destroyed=[2, 3], comm_range=250.0)
        kernel = build_kernel(seq)
        weights = ModelWeights.init_scaled_uniform(3, 1, seed=4)
        config = Hyperparams(hidden_dim=3, blocks=1, dropout=0.0)
        out, _ = forward(weights, seq, kernel, config)
        expected = dense_forward_reference(
            [np.array(m) for m in weights.matrices], graph_in.features,
            [g.biadjacency.astype(float) for g in seq.graphs], step=1.0 / 4.0)
        assert np.allclose(out, expected, atol=1e-12)

    def test_shape_mismatch_is_structural_error(self):
        _, _, _, seq = small_case(7, branches=1)
        with pytest.raises(ValueError):
            ModelWeights(
                (np.zeros((3, 8)),) + ModelWeights.init_scaled_uniform(8, 1, 0).matrices[1:],
                hidden_dim=8, blocks=1)


class TestPerBranchMetrics:
    def test_identity_targets_keep_the_damage_split(self):
        _, scenario, graph_in, seq = small_case(12, branches=2)
        start = graph_in.features[:graph_in.n_remaining]
        out = np.vstack([graph_in.features, graph_in.features])
        metrics = per_branch_metrics(out, seq.n, graph_in.n_remaining, start,
                                     10.0, 120.0)
        assert np.array_equal(metrics.flight_times, [0.0, 0.0])
        expected = count_subnets(graph_in.adjacency[:graph_in.n_remaining,
                                                    :graph_in.n_remaining])
        assert np.array_equal(metrics.subnet_counts, [expected, expected])
        assert expected >= 2

    def test_centroid_targets_connect_everything(self):
        _, _, graph_in, seq = small_case(12, branches=1)
        start = graph_in.features[:graph_in.n_remaining]
        center = graph_in.features.mean(axis=0)
        out = np.tile(center, (seq.n, 1))
        metrics = per_branch_metrics(out, seq.n, graph_in.n_remaining, start,
                                     10.0, 120.0)
        assert metrics.subnet_counts[0] == 1
        expected_t = np.linalg.norm(start - center, axis=1).max() / 10.0
        assert metrics.flight_times[0] == pytest.approx(expected_t)

    def test_single_displacement_time(self):
        graph_in, seq = pair_sequence([[0.0, 0.0], [50.0, 0.0], [100.0, 0.0]],
                                      destroyed=[2], comm_range=120.0)
        start = graph_in.features[:2]
        out = graph_in.features.copy()
        out[0] += [0.0, 25.0]
        metrics = per_branch_metrics(out, 3, 2, start, 10.0, 120.0)
        assert metrics.flight_times[0] == pytest.approx(2.5)


class TestReportedLoss:
    def test_feasible_branches_sum_their_times(self):
        metrics = BranchMetrics(np.array([1.5, 2.5]), np.array([1, 1]))
        assert reported_loss(metrics, 100.0) == pytest.approx(4.0)

    def test_penalty_arithmetic(self):
        metrics = BranchMetrics(np.array([2.0]), np.array([3]))
        assert reported_loss(metrics, 100.0) == pytest.approx(202.0)

    def test_never_below_time_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            times = rng.uniform(0, 50, size=4)
            counts = rng.integers(1, 6, size=4)
            metrics = BranchMetrics(times, counts)
            assert reported_loss(metrics, 100.0) >= times.sum() - 1e-12


@st.composite
def gap_cases(draw):
    """Candidate targets from a drawn seed: numpy's floats, so no two joins tie.

    Some rows are copied onto others, so coincident nodes (an isolated
    coincident pair among them) occur.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 60))
    comm_range = draw(st.floats(5.0, 50.0))
    side = 40.0 * np.sqrt(m)
    if draw(st.sampled_from(("uniform", "clustered"))) == "uniform":
        targets = rng.uniform(0.0, side, size=(m, 2))
    else:
        centers = rng.uniform(0.0, side, size=(rng.integers(1, 6), 2))
        targets = centers[rng.integers(0, len(centers), size=m)] + rng.normal(
            0.0, comm_range, size=(m, 2))
    copies = draw(st.integers(0, min(3, m - 1)))
    targets[rng.choice(m, copies, replace=False)] = targets[rng.integers(0, m, copies)]
    return targets, comm_range, rng.normal(size=(m, 2))


class TestGapSurrogate:
    @staticmethod
    def both(targets, comm_range, grad_in, gap_penalty=0.3):
        n_comp, labels = component_labels(build_adjacency(targets, comm_range))
        grads = grad_in.copy(), grad_in.copy()
        values = [f(targets, n_comp, labels, comm_range, gap_penalty, g) for f, g in
                  zip((gcn._component_gap_gradient, component_pair_gap_gradient), grads)]
        return values, grads

    @settings(max_examples=150, deadline=None)
    @given(gap_cases())
    def test_equals_the_component_pair_oracle_bit_for_bit(self, case):
        (new, old), (grad_new, grad_old) = self.both(*case)
        assert np.float64(new).tobytes() == np.float64(old).tobytes()
        assert grad_new.tobytes() == grad_old.tobytes()

    def test_a_link_is_never_a_join_at_a_subnormal_range(self):
        # comm_range**2 is subnormal here and its square root exceeds
        # comm_range, so the link (0, 1) has a positive gap; only the join
        # test keeps it out.  Every weight is also below 1e-8.
        comm_range = 8e-162
        targets = np.array([[0.0, 0.0], [comm_range, 0.0], [5 * comm_range, 0.0]])
        (new, old), (grad_new, grad_old) = self.both(targets, comm_range, np.zeros((3, 2)))
        assert old > 0.0
        assert np.float64(new).tobytes() == np.float64(old).tobytes()
        assert grad_new.tobytes() == grad_old.tobytes()

    def test_equally_long_joins_give_the_oracle_surrogate(self):
        # On an integer grid many joins are equally long.  Here the two trees
        # pick different pairs and their sums differ in the last bit; the
        # multiset of the lengths is unique.
        targets = np.random.default_rng(6).integers(0, 12, size=(40, 2)).astype(float)
        (new, old), _ = self.both(targets, 1.0, np.zeros((40, 2)))
        assert old > 0.0
        assert new == pytest.approx(old, rel=1e-12, abs=0.0)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        weights = ModelWeights.init_scaled_uniform(4, 1, seed=0)
        state = AdamState.zeros(weights)
        zero = [np.zeros_like(m) for m in weights.matrices]
        snapshot = [m.copy() for m in weights.matrices]
        adam_step(weights, zero, state, Hyperparams(hidden_dim=4, blocks=1))
        assert state.step == 1
        for before, after in zip(snapshot, weights.matrices):
            assert np.array_equal(before, after)

    def test_first_step_is_sign_scaled(self):
        weights = ModelWeights.init_scaled_uniform(4, 1, seed=0)
        state = AdamState.zeros(weights)
        grads = [np.full_like(m, 2.0) for m in weights.matrices]
        config = Hyperparams(hidden_dim=4, blocks=1, learning_rate=1e-3)
        snapshot = [m.copy() for m in weights.matrices]
        adam_step(weights, grads, state, config)
        for before, after in zip(snapshot, weights.matrices):
            assert np.allclose(before - after, 1e-3, rtol=1e-6)

    def test_matches_reference_trace_on_quadratic(self):
        # frozen from an independent scalar-loop run (lr 0.1, default betas)
        config = Hyperparams(hidden_dim=4, blocks=1, learning_rate=0.1)
        theta = np.array([[1.0, -2.0]])
        curvature = np.array([[1.0, 3.0]])
        mats = list(ModelWeights.init_scaled_uniform(4, 1, 0).matrices)
        weights = ModelWeights(tuple(mats), 4, 1)
        state = AdamState.zeros(weights)
        expected = {
            1: (0.900000001, -1.9000000001666666),
            5: (0.507963661927221, -1.5029557808623537),
            10: (0.07624916061975533, -1.02458683694286),
        }
        # ride the first weight's top-left 1x2 corner as the 2-parameter slot
        mats[0] = np.zeros_like(mats[0])
        mats[0][0, :2] = theta
        weights = ModelWeights(tuple(mats), 4, 1)
        for t in range(1, 11):
            grads = [np.zeros_like(m) for m in weights.matrices]
            grads[0][0, :2] = curvature * weights.matrices[0][0, :2]
            adam_step(weights, grads, state, config)
            if t in expected:
                assert weights.matrices[0][0, 0] == pytest.approx(expected[t][0], rel=1e-12)
                assert weights.matrices[0][0, 1] == pytest.approx(expected[t][1], rel=1e-12)
        # untouched entries never move (their gradients stayed zero)
        assert np.array_equal(weights.matrices[0][1:], np.zeros_like(mats[0][1:]))

    @settings(max_examples=60, deadline=None)
    @given(hidden=st.integers(1, 24), blocks=st.integers(1, 2), slice_len=st.integers(1, 50),
           steps=st.integers(1, 5), lr=st.sampled_from([1e-4, 1e-3, 0.1]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_in_place_steps_equal_the_functional_form(self, hidden, blocks, slice_len,
                                                      steps, lr, seed):
        # Slices of 1-50 elements split the matrices into full slices plus a
        # ragged remainder, or into single rows wider than a slice.
        with mock.patch.object(gcn, "ADAM_SLICE_BYTES", 8 * slice_len):
            self._compare_with_functional(hidden, blocks, steps, lr, seed)

    def test_in_place_steps_equal_the_functional_form_at_the_slice_length(self):
        # 200 x 200 float64 is one full slice of 163 rows plus 37 rows.
        slice_len = gcn.ADAM_SLICE_BYTES // 8
        assert (200 * 200) % slice_len and 200 * 200 > slice_len
        self._compare_with_functional(200, 1, 3, 1e-3, 11)

    @staticmethod
    def _compare_with_functional(hidden, blocks, steps, lr, seed, dtype=np.float64, lane=None):
        rng = np.random.default_rng(seed)
        config = Hyperparams(hidden_dim=hidden, blocks=blocks, learning_rate=lr)
        weights = _as_dtype(ModelWeights.init_scaled_uniform(hidden, blocks, seed=seed), dtype)
        state = AdamState.zeros(weights)
        ref_weights = ModelWeights(tuple(m.copy() for m in weights.matrices), hidden, blocks)
        ref_state = AdamState.zeros(ref_weights)
        for _ in range(steps):
            grads = []
            for m in weights.matrices:
                g = rng.standard_normal(m.shape) * 10.0 ** rng.uniform(-8, 3)
                g[rng.random(m.shape) < 0.2] = 0.0
                grads.append(g.astype(dtype))
            ref_weights, ref_state = functional_adam_step(ref_weights, grads, ref_state, config)
            adam_step(weights, grads, state, config, lane=lane)
        assert state.step == ref_state.step == steps
        for got, want in ((weights.matrices, ref_weights.matrices),
                          (state.first_moment, ref_state.first_moment),
                          (state.second_moment, ref_state.second_moment)):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype == dtype
                assert a.tobytes() == b.tobytes()


class TestKernelFlow:
    def test_branch_index_is_checked(self):
        _, _, graph_in, seq = small_case(13, branches=2)
        with pytest.raises(ValueError, match="branch"):
            kernel_flow(seq, 3, graph_in.features, steps=1)

    def test_two_node_average_in_one_step(self):
        graph_in, seq = pair_sequence([[0.0, 0.0], [2.0, 0.0]], destroyed=[1],
                                      comm_range=5.0)
        assert seq.n == 2  # so the default step is 1/2
        out = kernel_flow(seq, 1, graph_in.features, steps=1)
        assert np.allclose(out, [[1.0, 0.0], [1.0, 0.0]])

    def test_column_sums_preserved(self):
        _, _, graph_in, seq = small_case(13, branches=2)
        x = graph_in.features
        for steps in (1, 10, 100, 10_000):
            out = kernel_flow(seq, 2, x, steps=steps)
            assert np.allclose(out.sum(axis=0), x.sum(axis=0), atol=1e-9, rtol=0)

    def test_connected_branch_converges_to_centroid(self):
        for seed in range(30):
            topo, scenario, graph_in, seq = small_case(seed, n=20, n_d=9)
            branch = seq.branches
            if not seq.graphs[branch - 1].is_connected():
                continue
            out = kernel_flow(seq, branch, graph_in.features, steps=10_000)
            center = graph_in.features.mean(axis=0)
            assert np.abs(out - center).max() < 1e-6
            return
        pytest.fail("no connected branch found in 30 seeds")

    def test_disconnected_branch_reaches_component_centroids(self):
        positions = [[0.0, 0.0], [1000.0, 0.0], [10.0, 0.0], [1010.0, 0.0]]
        graph_in, seq = pair_sequence(positions, destroyed=[2, 3], comm_range=50.0)
        assert not seq.graphs[0].is_connected()
        out = kernel_flow(seq, 1, graph_in.features, steps=20_000)
        # input order: remaining (0, 1) then destroyed (2, 3); components pair
        # each remaining node with its nearby destroyed node
        assert np.allclose(out[0], [5.0, 0.0], atol=1e-6)
        assert np.allclose(out[2], [5.0, 0.0], atol=1e-6)
        assert np.allclose(out[1], [1005.0, 0.0], atol=1e-6)
        assert np.allclose(out[3], [1005.0, 0.0], atol=1e-6)

    def test_contraction_in_row_metric(self):
        rng = np.random.default_rng(17)
        _, _, graph_in, seq = small_case(13, branches=3)
        x_a = graph_in.features
        perturbation = rng.normal(size=x_a.shape)
        perturbation -= perturbation.mean(axis=0)  # keep column sums equal
        x_b = x_a + 50.0 * perturbation

        def row_metric(a, b):
            return np.abs(a - b).sum(axis=1).max()

        before = row_metric(x_a, x_b)
        one_a = kernel_flow(seq, 3, x_a, steps=1)
        one_b = kernel_flow(seq, 3, x_b, steps=1)
        assert row_metric(one_a, one_b) <= before + 1e-12
        if seq.graphs[2].is_connected():
            many_a = kernel_flow(seq, 3, x_a, steps=50)
            many_b = kernel_flow(seq, 3, x_b, steps=50)
            assert row_metric(many_a, many_b) < before


class TestBackwardBasics:
    def test_zero_head_gradient_gives_zero_weight_gradients(self):
        _, _, _, seq = small_case(14, branches=2)
        kernel = build_kernel(seq)
        weights = ModelWeights.init_scaled_uniform(8, 2, seed=2)
        config = Hyperparams(hidden_dim=8, blocks=2, dropout=0.0)
        out, trace = forward(weights, seq, kernel, config)
        grads = backward(trace, weights, kernel, np.zeros_like(out))
        for g in grads:
            assert np.array_equal(g, np.zeros_like(g))

    def test_duplicated_branches_double_the_gradient(self):
        # complete graph: one-hop and two-hop dilations are identical blocks
        rng = np.random.default_rng(21)
        positions = rng.uniform(0, 80, size=(6, 2))
        graph_single, seq_single = pair_sequence(positions, destroyed=[4, 5],
                                                 comm_range=500.0)
        seq_double = build_graph_sequence(graph_single, 2)
        assert np.array_equal(seq_double.graphs[0].biadjacency,
                              seq_double.graphs[1].biadjacency)
        weights = ModelWeights.init_scaled_uniform(6, 1, seed=3)
        config = Hyperparams(hidden_dim=6, blocks=1, dropout=0.0)
        start = graph_single.features[:graph_single.n_remaining]

        def head_grads(seq):
            kernel = build_kernel(seq)
            out, trace = forward(weights, seq, kernel, config)
            head = loss_head(out, seq.n, seq.n_remaining, start, 10.0, 500.0,
                             100.0, 100.0 / 500.0)
            return backward(trace, weights, kernel, head.grad_output)

        single = head_grads(seq_single)
        double = head_grads(seq_double)
        for g1, g2 in zip(single, double):
            assert np.allclose(g2, 2.0 * g1, atol=1e-12)


def _as_dtype(weights, dtype):
    return ModelWeights(tuple(m.astype(dtype) for m in weights.matrices),
                        weights.hidden_dim, weights.blocks)


class TestNetworkDtype:
    """The network computes in its weights' dtype; its output is float64."""

    CONFIG = Hyperparams(hidden_dim=8, blocks=2, dropout=0.3)
    WEIGHTS = ModelWeights.init_scaled_uniform(8, 2, seed=4)

    def _step(self, dtype, weights=WEIGHTS, grad_output=None):
        """Train forward and backward in ``dtype``; the loss head's gradient if none is given."""
        topo, _, graph_in, seq = small_case(33, n=16, n_d=7)
        weights = _as_dtype(weights, dtype)
        kernel = build_kernel(seq).astype(dtype)
        out, trace = forward(weights, seq, kernel, self.CONFIG, train=True,
                             rng=np.random.default_rng(6))
        if grad_output is None:
            grad_output = loss_head(out, seq.n, seq.n_remaining,
                                    graph_in.features[:seq.n_remaining], 10.0,
                                    topo.comm_range, 100.0, 100.0 / topo.comm_range).grad_output
        grads = [g.copy() for g in backward(trace, weights, kernel, grad_output)]
        return weights, out, trace, grad_output, grads

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weights_set_the_dtype_of_every_array_but_the_output(self, dtype):
        weights, out, trace, _, grads = self._step(dtype)
        assert out.dtype == np.float64
        assert trace.masks.dtype == dtype
        assert {a.dtype for a in (trace.first_mid, trace.first_act, trace.final_mid,
                                  trace.final_act)} == {np.dtype(dtype)}
        assert {g.dtype for g in grads} == {np.dtype(dtype)}
        state = AdamState.zeros(weights)
        adam_step(weights, grads, state, self.CONFIG)
        for array in (*weights.matrices, *state.first_moment, *state.second_moment):
            assert array.dtype == dtype

    def test_float32_agrees_with_float64_on_the_same_weights(self):
        # float32-representable weights, so both runs start from equal values;
        # both backward passes take the float64 run's output gradient.
        same = _as_dtype(self.WEIGHTS, np.float32)
        _, _, trace64, grad_output, grads64 = self._step(np.float64, same)
        _, _, trace32, _, grads32 = self._step(np.float32, same, grad_output)
        assert np.abs(trace32.final_act - trace64.final_act).max() < 1e-4
        for g32, g64 in zip(grads32, grads64):
            assert np.abs(g32 - g64).max() <= 1e-4 * np.abs(g64).max()


def _trace_arrays(trace):
    """Every array of a forward trace, in a fixed order; a mask the pass did not apply is None."""
    arrays = [trace.first_mid, trace.first_act]
    for l in range(trace.mid_a.shape[0]):
        mask = trace.masks[l - 1] if l > 0 and trace.dropped else None
        arrays.extend([mask, trace.mid_a[l], trace.act_a[l], trace.mid_b[l], trace.act_b[l]])
    return arrays + [trace.final_mid, trace.final_act, trace.output]


def _workspace_arrays(workspace):
    return [workspace.first_mid, workspace.first_act, workspace.mid_a, workspace.act_a,
            workspace.mid_b, workspace.act_b, workspace.masks, workspace.final_mid,
            *workspace.grads, workspace.first, workspace.product, workspace.spread,
            workspace.spread_a, workspace.active, workspace.draw]


def _lane_in_worker():
    """Whether a training loop in this process trains inline, and its BLAS thread count."""
    blas = gcn._openblas_threads()
    with gcn._training_lane() as lane:
        return lane is gcn._INLINE_LANE, blas and blas[0]()


class FakeBlas:
    """numpy's OpenBLAS thread count as ``_openblas_threads`` gives it, recording each set."""

    def __init__(self, threads):
        self.threads, self.sets = threads, []

    def get(self):
        return self.threads

    def set(self, threads):
        self.threads = threads
        self.sets.append(threads)


class DeferredLane(futures.Executor):
    """A lane that runs each job only when its result is awaited.

    A caller that overwrites a job's operands before awaiting it, or that
    returns before awaiting it, gets other bytes from it than from a lane
    that runs the job at once.
    """

    def __init__(self):
        self.jobs = []

    def submit(self, fn, /, *args, **kwargs):
        job = DeferredJob(fn, args, kwargs)
        self.jobs.append(job)
        return job


class DeferredJob:
    def __init__(self, fn, args, kwargs):
        self.call, self.value = (fn, args, kwargs), None

    def done(self):
        return self.call is None

    def result(self, timeout=None):
        if self.call is not None:
            fn, args, kwargs = self.call
            self.call, self.value = None, fn(*args, **kwargs)
        return self.value


@pytest.fixture(params=["inline", "thread", "deferred"])
def lane(request):
    """None (each job runs when submitted), a one-worker thread pool or a DeferredLane."""
    if request.param == "thread":
        with futures.ThreadPoolExecutor(max_workers=1) as pool:
            yield pool
    else:
        deferred = DeferredLane() if request.param == "deferred" else None
        yield deferred
        if deferred is not None:
            assert deferred.jobs and all(job.done() for job in deferred.jobs)


class TestWorkspace:
    """Forward and backward in one workspace give the bytes of fresh arrays."""

    CONFIG = Hyperparams(hidden_dim=8, blocks=3, dropout=0.3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("columns", [1, 2, 8])
    def test_kernel_product_is_the_sparse_matmul(self, dtype, columns):
        _, _, _, seq = small_case(33, n=16, n_d=7, branches=3)
        kernel = build_kernel(seq).astype(dtype)
        x = np.random.default_rng(columns).normal(size=(kernel.shape[0], columns)).astype(dtype)
        expected = kernel @ x
        # The whole product, a range of whole branches (whose product reads
        # no row of x outside it), the first branch and an empty range.
        for rows in (slice(None), slice(16, 48), slice(0, 16), slice(16, 16)):
            out = np.full_like(x, np.nan)
            outside = np.ones(len(x), dtype=bool)
            outside[rows] = False
            x_in = x.copy()
            x_in[outside] = np.nan
            assert gcn._kernel_product(kernel, x_in, out, rows) is out
            assert out.dtype == expected.dtype
            assert out[rows].tobytes() == expected[rows].tobytes()
            assert np.isnan(out[outside]).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_calls_in_one_workspace_match_calls_with_fresh_arrays(self, dtype):
        self.check_calls_in_one_workspace(dtype, None)

    @pytest.mark.parametrize("lane", ["thread", "deferred"], indirect=True)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_on_a_lane_matches_calls_with_fresh_arrays(self, dtype, lane):
        self.check_calls_in_one_workspace(dtype, lane)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_block_calls_match_calls_with_fresh_arrays(self, dtype, lane):
        # No block takes a mask: the workspace's mask array is (0, rows, d).
        self.check_calls_in_one_workspace(dtype, lane, blocks=1)

    def check_calls_in_one_workspace(self, dtype, lane, blocks=3):
        # At K = 1 the lane's half of each forward is empty; at K = 3 and 4
        # the caller's half is two branches.
        for branches in (1, 3, 4):
            self.check_calls_on_a_batch(dtype, lane, blocks, branches)

    def check_calls_on_a_batch(self, dtype, lane, blocks, branches):
        _, _, _, seq = small_case(33, n=16, n_d=7, branches=branches)
        kernel = build_kernel(seq).astype(dtype)
        rows = seq.batch_features.shape[0]
        config = replace(self.CONFIG, blocks=blocks)
        first = _as_dtype(ModelWeights.init_scaled_uniform(8, blocks, seed=4), dtype)
        second = _as_dtype(ModelWeights.init_scaled_uniform(8, blocks, seed=5), dtype)
        workspace = gcn.Workspace.for_batch(first, rows)
        owned = _workspace_arrays(workspace)
        grad_output = np.random.default_rng(7).normal(size=(rows, 2))
        # The workspace's calls, the fresh calls and the oracle draw masks alike.
        rngs = [np.random.default_rng(6) for _ in range(3)]

        def both(weights, train, prefixes=(None, None)):
            """Traces and gradients in the workspace on the lane and with fresh arrays
            on none; all must equal the oracles'."""
            rng_ws, rng_fresh, rng_oracle = rngs if train else (None, None, None)
            _, expected = allocating_forward(weights, seq, kernel, config, train, rng_oracle)
            traces, grads = [], []
            for rng, prefix, ws, on in zip((rng_ws, rng_fresh), prefixes, (workspace, None),
                                           (lane, None)):
                _, trace = forward(weights, seq, kernel, config, train=train, rng=rng,
                                   prefix=prefix, workspace=ws, lane=on)
                for a, b in zip(_trace_arrays(trace), expected, strict=True):
                    assert (a is None) == (b is None)
                    assert a is None or a.tobytes() == b.tobytes()
                traces.append(trace)
                grads.append(backward(trace, weights, kernel, grad_output, ws, lane=on))
            oracle = allocating_backward(traces[1], weights, kernel, grad_output)
            for g, g_fresh, g_oracle in zip(*grads, oracle, strict=True):
                assert g.dtype == g_oracle.dtype
                assert g.tobytes() == g_fresh.tobytes() == g_oracle.tobytes()
            for array in [a for a in _trace_arrays(traces[0])[:-2] if a is not None] + grads[0]:
                assert any(np.shares_memory(array, w) for w in owned)
            return traces

        # Train with dropout, eval, then train with the eval trace as prefix,
        # each on weights that differ from the previous call's.
        trace, _ = both(first, True)
        assert trace.dropped and trace.masks.shape == (blocks - 1, rows, 8)
        eval_trace, eval_trace_fresh = both(second, False)
        assert not eval_trace.dropped
        trace, _ = both(second, True, (eval_trace, eval_trace_fresh))
        assert trace is eval_trace

    def test_a_prefix_must_be_the_workspaces_own_trace(self):
        _, _, _, seq = small_case(33, n=16, n_d=7)
        kernel = build_kernel(seq)
        weights = ModelWeights.init_scaled_uniform(8, 3, seed=4)
        _, other = forward(weights, seq, kernel, self.CONFIG)
        workspace = gcn.Workspace.for_batch(weights, seq.batch_features.shape[0])
        with pytest.raises(ValueError, match="prefix"):
            forward(weights, seq, kernel, self.CONFIG, prefix=other, workspace=workspace)
        assert workspace.output is None

    def test_a_train_pass_without_dropout_applies_no_mask_left_in_the_workspace(self):
        _, _, _, seq = small_case(33, n=16, n_d=7)
        kernel = build_kernel(seq)
        weights = ModelWeights.init_scaled_uniform(8, 3, seed=4)
        workspace = gcn.Workspace.for_batch(weights, seq.batch_features.shape[0])
        forward(weights, seq, kernel, self.CONFIG, train=True, rng=np.random.default_rng(6),
                workspace=workspace)
        # Only a pass that draws masks needs an rng.
        with pytest.raises(ValueError, match="train-mode forward with dropout needs an rng"):
            forward(weights, seq, kernel, self.CONFIG, train=True, workspace=workspace)
        no_dropout = replace(self.CONFIG, dropout=0.0)
        _, trace = forward(weights, seq, kernel, no_dropout, train=True, workspace=workspace)
        assert not trace.dropped
        grad_output = np.random.default_rng(7).normal(size=trace.output.shape)
        grads = [g.copy() for g in backward(trace, weights, kernel, grad_output)]
        _, eval_trace = forward(weights, seq, kernel, self.CONFIG)
        for g, g_eval in zip(grads, backward(eval_trace, weights, kernel, grad_output),
                             strict=True):
            assert g.tobytes() == g_eval.tobytes()

    def test_backward_without_a_workspace_writes_into_the_traces_own(self):
        _, _, _, seq = small_case(33, n=16, n_d=7)
        kernel = build_kernel(seq)
        weights = ModelWeights.init_scaled_uniform(8, 3, seed=4)
        _, trace = forward(weights, seq, kernel, self.CONFIG, train=True,
                           rng=np.random.default_rng(6))
        before = [a.tobytes() for a in _trace_arrays(trace) if a is not None]
        grad_output = np.random.default_rng(7).normal(size=trace.output.shape)
        grads = backward(trace, weights, kernel, grad_output)
        assert [a.tobytes() for a in _trace_arrays(trace) if a is not None] == before
        assert all(g is w for g, w in zip(grads, trace.grads, strict=True))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adam_steps_on_a_lane_equal_the_functional_form(self, dtype, lane):
        # Slices of 50 elements: each side of the split updates several.
        with mock.patch.object(gcn, "ADAM_SLICE_BYTES", 50 * np.dtype(dtype).itemsize):
            TestAdam._compare_with_functional(24, 2, 3, 1e-3, 11, dtype, lane)

    @pytest.mark.parametrize("dtype, n, branches", [
        (np.float32, 50, 4), (np.float32, 50, 5), (np.float64, 100, 6),
    ])
    def test_a_split_forward_at_the_default_width_is_the_whole_pass(self, dtype, n, branches):
        """Forward on a thread lane, in halves of the batch, gives the bytes of
        the unsplit oracle at d = 512 and 3 blocks: the shapes of the solver
        at n = 50 (float32) and of pretraining at n = 100 (float64).

        This checks measured OpenBLAS behaviour, not a guarantee: a row block
        of a product sums as the whole product does at this width, and the
        benchmark digests rely on it.
        """
        _, _, _, seq = small_case(3, n=n, n_d=n // 2, branches=branches)
        kernel = build_kernel(seq).astype(dtype)
        config = Hyperparams()
        weights = _as_dtype(ModelWeights.init_scaled_uniform(512, 3, seed=4), dtype)
        with futures.ThreadPoolExecutor(max_workers=1) as lane:
            for train in (True, False):
                rng, rng_oracle = (np.random.default_rng(6) if train else None for _ in range(2))
                _, expected = allocating_forward(weights, seq, kernel, config, train, rng_oracle)
                _, trace = forward(weights, seq, kernel, config, train=train, rng=rng, lane=lane)
                for a, b in zip(_trace_arrays(trace), expected, strict=True):
                    assert (a is None) == (b is None)
                    assert a is None or a.tobytes() == b.tobytes()


class TestTrainingLane:
    def test_no_lane_outlives_its_training_loop(self, monkeypatch):
        # A lane alive when run_experiment forks would be a pool without a
        # worker in every child.  The threads that ran Adam's halves and the
        # forward's halves are recorded.
        workers = {"_adam_update": set(), "_forward_rows": set()}

        def recording(name):
            run = getattr(gcn, name)

            def recorded(*args):
                workers[name].add(threading.current_thread())
                return run(*args)
            return recorded

        for name in workers:
            monkeypatch.setattr(gcn, name, recording(name))
        blas = FakeBlas(2)
        monkeypatch.setattr(gcn, "_openblas_threads", lambda: (blas.get, blas.set))
        monkeypatch.setattr(gcn, "_usable_cores", lambda: 2)
        before = threading.active_count()
        pretrain(16, 200.0, 120.0, seed=5, config=TINY)
        assert threading.active_count() == before
        topo, _, graph_in, seq = small_case(33, n=16, n_d=7)
        weights = ModelWeights.init_scaled_uniform(8, 1, seed=1)
        solve(graph_in, seq, build_kernel(seq), weights, topo.comm_range, TINY, seed=2)
        assert threading.active_count() == before
        # Both run on this thread and on the one lane of each loop.
        assert workers["_adam_update"] == workers["_forward_rows"]
        lanes = workers["_forward_rows"] - {threading.current_thread()}
        assert len(lanes) == 2
        assert not any(thread.is_alive() for thread in lanes)

    @pytest.mark.parametrize("found, cores, opens", [
        (True, 2, True), (True, 8, True), (True, 1, False), (False, 2, False), (False, 8, False),
    ])
    def test_a_lane_opens_on_a_spare_core_where_openblas_is_found_whatever_its_thread_count(
            self, monkeypatch, found, cores, opens):
        # Where numpy's OpenBLAS is not found, no count is set.
        blas = FakeBlas(4)
        monkeypatch.setattr(gcn, "_openblas_threads",
                            lambda: (blas.get, blas.set) if found else None)
        monkeypatch.setattr(gcn, "_usable_cores", lambda: cores)
        with gcn._training_lane() as lane:
            assert isinstance(lane, futures.ThreadPoolExecutor) == opens
            assert (lane is gcn._INLINE_LANE) != opens
            assert blas.threads == (1 if found else 4)
        assert blas.sets == ([1, 4] if found else [])

    def test_a_diverging_loop_restores_the_blas_thread_count(self, monkeypatch):
        blas = FakeBlas(2)
        monkeypatch.setattr(gcn, "_openblas_threads", lambda: (blas.get, blas.set))
        topo, _, graph_in, seq = small_case(33, n=16, n_d=7)
        weights = ModelWeights.init_scaled_uniform(8, 1, seed=1)
        weights.matrices[0][0, 0] = np.nan
        with pytest.raises(gcn.TrainingDivergence):
            solve(graph_in, seq, build_kernel(seq), weights, topo.comm_range, TINY, seed=2)
        assert blas.sets == [1, 2]

    def test_experiment_workers_train_inline(self, monkeypatch):
        # The forked worker inherits the patched probe, which would open a
        # thread lane in this process; the workers share the cores.
        monkeypatch.setattr(gcn, "_usable_cores", lambda: 2)
        fork = multiprocessing.get_context("fork")
        with futures.ProcessPoolExecutor(max_workers=1, mp_context=fork) as pool:
            expected = (True, 1 if gcn._openblas_threads() else None)
            assert pool.submit(_lane_in_worker).result(timeout=120) == expected

    def test_a_pretrain_gives_one_answer_at_every_blas_thread_count(self):
        """A pretrain in a process started with ``OPENBLAS_NUM_THREADS=2`` gives
        the weights of one started with ``=1``, at n = 100 and d = 512, where a
        two-thread OpenBLAS sums the (600, 512) weight gradients in another
        order; each leaves BLAS at the count it started with."""
        if gcn._openblas_threads() is None:
            pytest.skip("numpy's OpenBLAS is not found here")
        src = str(Path(gcn.__file__).resolve().parents[1])
        code = ("import hashlib; from resilinet import gcn; "
                "w = gcn.pretrain(100, 200.0, 120.0, seed=11, "
                "config=gcn.Hyperparams(pretrain_iters=3)).weights; "
                "print(hashlib.sha256(b''.join(m.tobytes() for m in w.matrices)).hexdigest(), "
                "gcn._openblas_threads()[0]())")
        runs = {}
        # OpenBLAS starts no more threads than the machine has cores.
        for threads in ("1", "2") if gcn._usable_cores() > 1 else ("1",):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            env.pop("OMP_NUM_THREADS", None)
            runs[threads] = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True,
                check=True, timeout=300).stdout.split()
        assert {digest for digest, _ in runs.values()} == {runs["1"][0]}
        assert all(after == threads for threads, (_, after) in runs.items())


class TestSolve:
    def test_already_connected_returns_zero_motion(self):
        topo = generate_swarm(12, 200.0, 120.0, seed=30)
        for seed in range(100):  # first draw that leaves the survivors connected
            scenario = apply_damage(topo, 3, seed=seed, require_split=False)
            graph_in = build_input_graph(topo, scenario)
            n_r = graph_in.n_remaining
            if count_subnets(graph_in.adjacency[:n_r, :n_r]) == 1:
                break
        seq = build_graph_sequence(graph_in, 2)
        kernel = build_kernel(seq)
        weights = ModelWeights.init_scaled_uniform(8, 1, seed=0)
        solution = solve(graph_in, seq, kernel, weights, topo.comm_range, TINY)
        assert solution.iterations == 0
        assert np.array_equal(solution.flight_times, np.zeros(2))
        for targets in solution.branch_targets:
            assert np.array_equal(targets, graph_in.features[:n_r])

    def test_split_case_finds_feasible_solution(self):
        topo, scenario, graph_in, seq = small_case(33, n=16, n_d=7)
        kernel = build_kernel(seq)
        weights = ModelWeights.init_scaled_uniform(8, 1, seed=1)
        solution = solve(graph_in, seq, kernel, weights, topo.comm_range, TINY, seed=2)
        assert np.isfinite(solution.flight_times).any()
        start = graph_in.features[: graph_in.n_remaining]
        for targets, time in zip(solution.branch_targets, solution.flight_times):
            if targets is None:
                continue
            assert targets.shape == (graph_in.n_remaining, 2)
            assert count_subnets(build_adjacency(targets, topo.comm_range)) == 1
            assert time == np.linalg.norm(targets - start, axis=1).max() / TINY.max_speed
        assert solution.iterations == TINY.online_iters

    @pytest.mark.parametrize("split", [[0], [0, 1]], ids=["first-branch", "every-branch"])
    def test_a_branch_never_connected_holds_none(self, monkeypatch, split):
        topo, scenario, graph_in, seq = small_case(33, n=16, n_d=7)
        real = gcn.per_branch_metrics

        def split_branches(*args):
            metrics = real(*args)
            metrics.subnet_counts[split] = 2
            return metrics

        monkeypatch.setattr(gcn, "per_branch_metrics", split_branches)
        weights = ModelWeights.init_scaled_uniform(8, 1, seed=1)
        config = Hyperparams(hidden_dim=8, blocks=1, dropout=0.0, online_iters=5)
        solution = solve(graph_in, seq, build_kernel(seq), weights, topo.comm_range,
                         config, seed=2)
        assert seq.branches == 2
        for k in split:
            assert solution.branch_targets[k] is None
            assert solution.flight_times[k] == np.inf
        if len(split) < seq.branches:
            assert np.isfinite(solution.flight_times[1])
            assert solution.branch_targets[1].shape == (seq.n_remaining, 2)

    def test_input_weights_never_mutated(self):
        topo, scenario, graph_in, seq = small_case(34, n=16, n_d=7)
        kernel = build_kernel(seq)
        weights = ModelWeights.init_scaled_uniform(8, 1, seed=1)
        snapshot = [m.copy() for m in weights.matrices]
        solve(graph_in, seq, kernel, weights, topo.comm_range, TINY, seed=2)
        for before, after in zip(snapshot, weights.matrices):
            assert np.array_equal(before, after)


class TestPretrain:
    def test_bit_identical_model_files(self, tmp_path):
        config = Hyperparams(hidden_dim=8, blocks=1, pretrain_iters=4,
                             online_iters=1)
        for name in ("a.json", "b.json"):
            result = pretrain(12, 200.0, 120.0, seed=9, config=config)
            save_model(tmp_path / name, result.weights, init_seed=9,
                       metadata=result.metadata)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_loss_descends(self):
        config = Hyperparams(hidden_dim=16, blocks=1, pretrain_iters=60,
                             online_iters=1)
        result = pretrain(16, 200.0, 120.0, seed=5, config=config)
        assert result.curve[-1].reported_loss < result.curve[0].reported_loss

    def test_a_saved_model_plans_like_the_pretrained_weights(self, tmp_path):
        config = Hyperparams(hidden_dim=8, blocks=2, pretrain_iters=5, online_iters=20)
        result = pretrain(16, 200.0, 120.0, seed=9, config=config)
        save_model(tmp_path / "model.json", result.weights, init_seed=9)
        loaded, _ = load_model(tmp_path / "model.json")
        topo, scenario, _, _ = small_case(33, n=16, n_d=7)
        direct = plan_learned(topo, scenario, result.weights, config, seed=2)
        from_file = plan_learned(topo, scenario, loaded, config, seed=2)
        assert direct.method == "ml-dagl"
        assert from_file.targets.tobytes() == direct.targets.tobytes()

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(model_cases())
    def test_model_round_trip(self, tmp_path, case):
        """Save, load, save gives the same bytes; weights come back bit for bit."""
        weights, init_seed, metadata = case
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_model(first, weights, init_seed=init_seed, metadata=metadata)
        loaded, loaded_metadata = load_model(first)
        save_model(second, loaded, init_seed=init_seed, metadata=loaded_metadata)
        assert second.read_bytes() == first.read_bytes()
        assert loaded_metadata == metadata
        assert (loaded.hidden_dim, loaded.blocks) == (weights.hidden_dim, weights.blocks)
        for a, b in zip(weights.matrices, loaded.matrices):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("field", ["d_s", "L", "shapes", "weights", "dtype", "byte_order"])
    def test_model_file_rejects_missing_field(self, tmp_path, field):
        path = tmp_path / "model.json"
        save_model(path, ModelWeights.init_scaled_uniform(4, 1, seed=0), init_seed=0)
        payload = json.loads(path.read_text())
        del payload[field]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"model file lacks required field '{field}'"):
            load_model(path)

    @pytest.mark.parametrize("field, entry, value, message", [
        ("shapes", 0, 5, "field 'shapes' must be a JSON list of integer pairs"),
        ("shapes", 0, [2], "field 'shapes' must be a JSON list of integer pairs"),
        ("shapes", 0, [2, -4], "field 'shapes' does not match d_s=4 and L=1"),
        ("shapes", 0, [2, 4.0], "field 'shapes' must be a JSON list of integer pairs"),
        ("shapes", 0, [2, True], "field 'shapes' must be a JSON list of integer pairs"),
        ("shapes", 0, [2, 5], "field 'shapes' does not match d_s=4 and L=1"),
        ("weights", 1, 5, "field 'weights' must be a JSON list of strings"),
        ("weights", 1, None, "field 'weights' must be a JSON list of strings"),
        ("weights", 1, "AAAA", "field 'weights' entry 1 is not a float64 array"),
        ("weights", 1, "%%%", "field 'weights' entry 1 is not a float64 array"),
    ], ids=["shape-int", "shape-short", "shape-negative", "shape-float", "shape-bool",
            "shape-wrong-size", "weights-int", "weights-null", "weights-short-blob",
            "weights-bad-base64"])
    def test_model_file_rejects_a_bad_element(self, tmp_path, field, entry, value, message):
        path = tmp_path / "model.json"
        save_model(path, ModelWeights.init_scaled_uniform(4, 1, seed=0), init_seed=0)
        payload = json.loads(path.read_text())
        payload[field][entry] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"model file {message}".replace("[", r"\[")
                           .replace("]", r"\]")):
            load_model(path)

    @pytest.mark.parametrize("field, value", [("dtype", "float32"), ("byte_order", "big")])
    def test_model_file_rejects_another_encoding(self, tmp_path, field, value):
        path = tmp_path / "model.json"
        save_model(path, ModelWeights.init_scaled_uniform(4, 1, seed=0), init_seed=0)
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"model file field '{field}' must be one of"):
            load_model(path)

    @pytest.mark.parametrize("hidden_dim, blocks, field", [(8, 0, "L"), (0, 0, "d_s")])
    def test_model_file_rejects_a_size_below_one(self, tmp_path, hidden_dim, blocks, field):
        """Shapes can match a zero width or block count; ``forward`` needs both."""
        path = tmp_path / "model.json"
        save_model(path, ModelWeights.init_scaled_uniform(hidden_dim, blocks, seed=0), 0)
        with pytest.raises(ValueError,
                           match=f"model file field '{field}' must be a JSON positive integer"):
            load_model(path)

    @pytest.mark.parametrize("field, value", [("L", 10**12), ("d_s", 10**15)])
    def test_model_file_rejects_a_size_its_shapes_do_not_have(self, tmp_path, field, value):
        """Checked against the shapes' count first, so no list of 2L + 2 shapes is built."""
        path = tmp_path / "model.json"
        save_model(path, ModelWeights.init_scaled_uniform(4, 1, seed=0), init_seed=0)
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"model file field 'shapes' does not match "
                                             f"d_s={payload['d_s']} and L={payload['L']}"):
            load_model(path)

    def test_model_file_rejects_mismatched_lengths(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, ModelWeights.init_scaled_uniform(4, 1, seed=0), init_seed=0)
        payload = json.loads(path.read_text())
        payload["weights"].pop()
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="fields 'shapes' and 'weights' differ in length"):
            load_model(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_model_file_rejects_non_finite_weights(self, tmp_path, bad):
        path = tmp_path / "model.json"
        write_non_finite_model(path, bad)
        with pytest.raises(ValueError, match="model file field 'weights' entry 2 is not finite"):
            load_model(path)

    def test_loss_curve_csv(self, tmp_path):
        config = Hyperparams(hidden_dim=8, blocks=1, pretrain_iters=3,
                             online_iters=1)
        result = pretrain(12, 200.0, 120.0, seed=3, config=config)
        path = tmp_path / "curve.csv"
        write_loss_curve(path, result.curve)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,reported_loss,surrogate_loss,best_T_rc,feasible_flag"
        assert len(lines) == 4
