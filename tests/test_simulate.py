import csv
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resilinet import simulate
from resilinet.damage import apply_damage
from resilinet.gcn import Hyperparams, pretrain
from resilinet.planner import (METHOD_CENTERING, RecoveryPlan, plan_centering,
                               verify_plan)
from resilinet.simulate import (ExperimentSpec, SUMMARY_COLUMNS, TRIAL_COLUMNS,
                                derive_trial_seeds, export_results,
                                recovery_budget, results_to_dict, run_experiment,
                                simulate_recovery)
from resilinet.swarm import build_adjacency, generate_swarm

from _oracles import dense_subnet_series, exact_first_connection
from test_damage import damage_cases
from test_planner import count_calls


def still_plan(start):
    return RecoveryPlan(targets=np.asarray(start, dtype=float).copy(),
                        planned_time=0.0, method=METHOD_CENTERING)


def assert_monotone_flight_within_plan(start, plan, comm_range, max_speed=10.0, step_s=0.1):
    """No node ever moves away from its target, and the swarm connects by plan + one step."""
    sim = simulate_recovery(start, plan, max_speed, step_s, comm_range, t_max=1e9,
                            keep_history=True)
    dist = np.linalg.norm(sim.history - plan.targets[None], axis=2)
    assert np.all(np.diff(dist, axis=0) <= 0.0)
    assert sim.first_connected_s is not None
    assert sim.first_connected_s <= plan.planned_time + step_s + 1e-9


def plan_to(targets):
    return RecoveryPlan(targets=np.asarray(targets, dtype=float), planned_time=0.0,
                        method=METHOD_CENTERING)


def assert_matches_dense_labeling(start, targets, comm_range, max_speed=10.0, step_s=0.1):
    """The flight's series, first time, final positions and degrees equal the dense oracle's."""
    sim = simulate_recovery(start, plan_to(targets), max_speed, step_s, comm_range,
                            t_max=1e9)
    series, first, final, degrees = dense_subnet_series(start, targets, max_speed, step_s,
                                                        comm_range)
    assert sim.subnet_series.tobytes() == series.tobytes()
    assert repr(sim.first_connected_s) == repr(first)
    assert sim.final_positions.tobytes() == final.tobytes()
    assert sim.degree.degrees.tobytes() == degrees.tobytes()
    return sim


@st.composite
def flights(draw):
    """(start, targets, comm_range, max_speed, step_s) of one of six kinds of flight.

    centering, perturbed: survivors of a random damage flying to the centroid
    plan or a jittered shrink of it.  shuffled: the perturbed targets dealt to
    the wrong nodes, so paths cross and forest links break.  permuted: a sparse
    connected swarm whose nodes swap places, so it splits on the way and
    joins again.  grid: integer points and range 5, so pairs sit exactly
    at the range.  duplicate: nodes that start at one point, or are sent to one.
    """
    kind = draw(st.sampled_from(
        ["centering", "perturbed", "shuffled", "permuted", "grid", "duplicate"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "grid":
        m = draw(st.integers(2, 25))
        start = rng.integers(0, 13, size=(m, 2)).astype(float)
        return start, rng.integers(0, 13, size=(m, 2)).astype(float), 5.0, 1.0, 1.0
    if kind == "permuted":
        # A sparse random tree of links, each node 60-119 m from an earlier one.
        m = draw(st.integers(3, 25))
        angle = rng.uniform(0.0, 2 * math.pi, m)
        hop = rng.uniform(60.0, 119.0, m)[:, None] * np.column_stack([np.cos(angle),
                                                                       np.sin(angle)])
        start = np.zeros((m, 2))
        for i in range(1, m):
            start[i] = start[rng.integers(i)] + hop[i]
        return start, start[rng.permutation(m)], 120.0, 10.0, 0.5
    topology, scenario = draw(damage_cases())
    start = topology.positions[scenario.remaining]
    targets = plan_centering(topology, scenario, max_speed=10.0).targets
    if kind in ("perturbed", "shuffled"):
        center = start.mean(axis=0)
        targets = (center + draw(st.floats(0.0, 0.6)) * (start - center)
                   + rng.normal(scale=draw(st.floats(0.0, 30.0)), size=start.shape))
    if kind == "shuffled":
        targets = targets[rng.permutation(len(targets))]
    elif kind == "duplicate":
        # Nodes that share a start point part; nodes that share a target meet.
        start = start[rng.integers(0, len(start), size=len(start))]
        points = min(draw(st.integers(1, 3)), len(targets))
        targets = targets[rng.integers(0, points, size=len(targets))]
    return start, targets, topology.comm_range, 10.0, 0.5


class TestSimulatorProperties:
    @settings(max_examples=60, deadline=None)
    @given(flights())
    def test_counts_equal_a_dense_labeling_of_every_step(self, flight):
        assert_matches_dense_labeling(*flight)

    # Most drawn flights are shorter than one block of the default size.
    @pytest.mark.parametrize("block_steps", [1, 2, 3])
    @settings(max_examples=60, deadline=None)
    @given(flight=flights())
    def test_counts_equal_a_dense_labeling_in_short_blocks(self, block_steps, flight):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "BLOCK_STEPS", block_steps)
            assert_matches_dense_labeling(*flight)

    @settings(max_examples=30, deadline=None)
    @given(damage_cases())
    def test_centering_plans(self, case):
        topology, scenario = case
        plan = plan_centering(topology, scenario, max_speed=10.0)
        assert_monotone_flight_within_plan(topology.positions[scenario.remaining], plan,
                                           topology.comm_range)

    @settings(max_examples=30, deadline=None)
    @given(damage_cases(), st.floats(0.0, 0.6), st.floats(0.0, 30.0), st.integers(0, 2**32 - 1))
    def test_perturbed_connected_plans(self, case, shrink, jitter, seed):
        """Targets pulled toward the survivors' centroid, jittered, and kept if connected."""
        topology, scenario = case
        start = topology.positions[scenario.remaining]
        center = start.mean(axis=0)
        noise = np.random.default_rng(seed).normal(scale=jitter, size=start.shape)
        targets = center + shrink * (start - center) + noise
        planned = float(np.linalg.norm(targets - start, axis=1).max()) / 10.0
        plan = RecoveryPlan(targets=targets, planned_time=planned, method=METHOD_CENTERING)
        assume(verify_plan(plan, topology.comm_range))
        assert_monotone_flight_within_plan(start, plan, topology.comm_range)


def survivor_flight(kind, seed):
    """(start, targets) of the survivors of a random damage at 200/km^2, at most 30 of them.

    centering: every survivor flies to the swarm's centroid.  perturbed: to a
    jittered shrink of the survivors about their centroid.  shuffled: the
    perturbed targets dealt to the wrong nodes, so paths cross.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 41))
    side = 1000.0 * math.sqrt(n / 200.0)
    positions = rng.uniform(0.0, side, size=(n, 2))
    remaining = np.sort(rng.choice(n, size=int(rng.integers(2, min(n, 30) + 1)),
                                   replace=False))
    start = positions[remaining]
    targets = np.tile(positions.mean(axis=0), (len(start), 1))
    if kind in ("perturbed", "shuffled"):
        center = start.mean(axis=0)
        targets = (center + rng.uniform(0.0, 0.6) * (start - center)
                   + rng.normal(scale=rng.uniform(0.0, 30.0), size=start.shape))
    if kind == "shuffled":
        targets = targets[rng.permutation(len(targets))]
    return start, targets


class TestExactFirstConnection:
    """The measured T_rc against the exact first-connection time T* of the motion."""

    STEP_S = 0.1
    FLIGHTS = 60

    def test_oracle_on_a_closing_pair(self):
        # Node 2 closes on node 1 at 10 m/s and is 120 m away after exactly 1 s.
        start = [[0.0, 0.0], [100.0, 0.0], [230.0, 0.0]]
        targets = [[0.0, 0.0], [100.0, 0.0], [200.0, 0.0]]
        assert exact_first_connection(start, targets, 10.0, 120.0) == (1.0, math.inf)

    def test_oracle_sees_a_connection_shorter_than_a_step(self):
        # Node 0 passes node 1 at 119.999 m, so it is in range while its x is
        # within sqrt(120**2 - 119.999**2) of 500 m.
        half = math.sqrt(120.0 ** 2 - 119.999 ** 2)
        t_star, run = exact_first_connection([[0.0, 0.0], [500.0, 119.999]],
                                             [[1000.0, 0.0], [500.0, 119.999]], 10.0, 120.0)
        assert t_star == pytest.approx((500.0 - half) / 10.0, rel=1e-12)
        assert run == pytest.approx(2.0 * half / 10.0, rel=1e-6)
        assert run < self.STEP_S

    @pytest.mark.parametrize("kind", ["centering", "perturbed", "shuffled"])
    def test_measured_time_is_at_most_one_step_late(self, kind, record_property):
        """T* <= measured < T* + step_s when the connection at T* lasts a step.

        A shorter connection can fall between two steps; those flights are
        counted and reported, and only T* <= measured is checked for them.
        """
        checked, short = 0, 0
        for seed in range(self.FLIGHTS):
            start, targets = survivor_flight(kind, seed)
            measured = simulate_recovery(start, plan_to(targets), 10.0, self.STEP_S, 120.0,
                                         t_max=1e9).first_connected_s
            t_star, run = exact_first_connection(start, targets, 10.0, 120.0)
            if t_star is None:
                assert measured is None
                continue
            assert measured is None or measured >= t_star - 1e-9
            if run >= self.STEP_S:
                assert measured is not None and measured < t_star + self.STEP_S + 1e-9
                checked += 1
            else:
                short += 1
        record_property("connections_shorter_than_a_step", short)
        print(f"{kind}: {checked} flights measured within one step of T*, "
              f"{short} first connections shorter than a step")
        assert checked > 0


class TestSimulateRecovery:
    def test_already_connected_measures_zero(self):
        start = np.array([[0.0, 0.0], [50.0, 0.0]])
        sim = simulate_recovery(start, still_plan(start), 10.0, 0.1, 120.0, 10.0)
        assert sim.first_connected_s == 0.0
        assert sim.converged
        assert np.array_equal(sim.subnet_series, [1])

    def test_clamped_motion_reaches_target_exactly(self):
        start = np.array([[0.0, 0.0], [50.0, 0.0]])
        targets = np.array([[0.0, 25.0], [50.0, 0.0]])
        plan = RecoveryPlan(targets=targets, planned_time=2.5,
                            method=METHOD_CENTERING)
        sim = simulate_recovery(start, plan, 10.0, 0.1, 120.0, 10.0,
                                keep_history=True)
        assert len(sim.subnet_series) == 26  # t=0 plus 25 steps
        assert np.array_equal(sim.final_positions, targets)
        dist = np.linalg.norm(sim.history - targets[None], axis=2)
        assert np.all(np.diff(dist, axis=0) <= 1e-9)      # monotone approach
        assert np.all(dist[1:, 0] - dist[:-1, 0] <= -1.0 + 1e-9)  # full-speed node

    def test_measured_within_planned_plus_step(self):
        for seed in range(8):
            topo = generate_swarm(20, 200.0, 120.0, seed=seed)
            scenario = apply_damage(topo, 9, seed=seed + 40)
            plan = plan_centering(topo, scenario)
            assert verify_plan(plan, topo.comm_range)
            start = topo.positions[scenario.remaining]
            sim = simulate_recovery(start, plan, 10.0, 0.1, topo.comm_range,
                                    t_max=1e9)
            assert sim.first_connected_s is not None
            assert sim.first_connected_s <= plan.planned_time + 0.1 + 1e-9
            final_adjacency = build_adjacency(sim.final_positions, topo.comm_range)
            assert np.array_equal(sim.degree.degrees, final_adjacency.sum(axis=1))

    def test_series_continues_to_plan_completion(self):
        start = np.array([[0.0, 0.0], [100.0, 0.0], [230.0, 0.0]])
        targets = np.array([[0.0, 0.0], [100.0, 0.0], [200.0, 0.0]])
        plan = RecoveryPlan(targets=targets, planned_time=3.0,
                            method=METHOD_CENTERING)
        sim = simulate_recovery(start, plan, 10.0, 0.1, 120.0, 100.0)
        # connects when node 2 is within 120 of node 1, i.e. after 10 steps
        assert sim.first_connected_s == pytest.approx(1.0)
        assert len(sim.subnet_series) == 31
        assert sim.subnet_series[-1] == 1

    def test_convergence_respects_budget(self):
        start = np.array([[0.0, 0.0], [500.0, 0.0]])
        targets = np.array([[0.0, 0.0], [100.0, 0.0]])
        plan = RecoveryPlan(targets=targets, planned_time=40.0,
                            method=METHOD_CENTERING)
        sim = simulate_recovery(start, plan, 10.0, 0.1, 120.0, t_max=10.0)
        assert sim.first_connected_s is not None
        assert sim.first_connected_s > 10.0
        assert not sim.converged

    def test_rejects_bad_kinematics(self):
        start = np.array([[0.0, 0.0], [10.0, 0.0]])
        with pytest.raises(ValueError):
            simulate_recovery(start, still_plan(start), 0.0, 0.1, 120.0, 1.0)

    @pytest.mark.parametrize("field", ["max_speed", "step_s"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_a_non_finite_speed_or_step(self, field, value):
        start = np.array([[0.0, 0.0], [10.0, 0.0]])
        kinematics = {"max_speed": 10.0, "step_s": 0.1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            simulate_recovery(start, still_plan(start), kinematics["max_speed"],
                              kinematics["step_s"], 120.0, 1.0)
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            ExperimentSpec(n=20, **{field: value})
        if field == "max_speed":
            with pytest.raises(ValueError, match="max_speed must be positive and finite"):
                Hyperparams(max_speed=value)

    # The last pair's reach, max_speed * step_s, underflows to 0.
    @pytest.mark.parametrize("max_speed, step_s", [(10.0, 1e-9), (10.0, 1e-300),
                                                   (1e-10, 1e-320)])
    def test_rejects_a_step_that_needs_too_many_steps(self, max_speed, step_s):
        start = np.array([[0.0, 0.0], [10.0, 0.0]])
        plan = plan_to([[0.0, 0.0], [20.0, 0.0]])
        with pytest.raises(ValueError, match=f"step_s={step_s!r} is too small"):
            simulate_recovery(start, plan, max_speed, step_s, 120.0, 1.0)
        # A still plan needs no step at all, however small the step.
        assert simulate_recovery(start, still_plan(start), max_speed, step_s, 120.0,
                                 1.0).subnet_series.tolist() == [1]

    # Unchecked, a NaN target makes no step, a NaN start never connects and
    # an infinite target needs more than MAX_STEPS steps.
    @pytest.mark.parametrize("field, value, message", [
        ("targets", math.nan, "plan targets must be finite"),
        ("start", math.nan, "start positions must be finite"),
        ("targets", math.inf, "plan targets must be finite"),
    ], ids=["nan-target", "nan-start", "inf-target"])
    def test_rejects_a_non_finite_start_or_target(self, field, value, message):
        points = {"start": np.array([[0.0, 0.0], [200.0, 0.0]]),
                  "targets": np.array([[0.0, 0.0], [100.0, 0.0]])}
        points[field][1, 0] = value
        with pytest.raises(ValueError, match=message):
            simulate_recovery(points["start"], plan_to(points["targets"]), 10.0, 0.1,
                              120.0, 100.0)

    def test_rejects_a_start_and_target_whose_distance_overflows(self):
        # Both points are finite, but their difference is not.
        start = np.array([[1e308, 0.0], [0.0, 0.0]])
        plan = plan_to([[-1e308, 0.0], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="start position and its plan target are "
                                                 "too far apart"):
                simulate_recovery(start, plan, 10.0, 0.1, 120.0, 100.0)

    @pytest.mark.parametrize("t_max",[float("nan"), -1.0, float("inf")])
    def test_rejects_bad_budget(self, t_max):
        start = np.array([[0.0, 0.0], [10.0, 0.0]])
        with pytest.raises(ValueError, match="t_max"):
            simulate_recovery(start, still_plan(start), 10.0, 0.1, 120.0, t_max)
        with pytest.raises(ValueError, match="t_max"):
            ExperimentSpec(n=20, t_max=t_max)


class TestLabelingCertificate:
    """A step is labeled afresh only when a forest link breaks or two components link."""

    def labelings(self, monkeypatch, start, targets):
        start = np.asarray(start, dtype=float)
        calls = count_calls(monkeypatch, simulate._labeling)
        simulate_recovery(start, plan_to(targets), 10.0, 1.0, 120.0, t_max=1e9)
        labelings = len(calls)
        sim = assert_matches_dense_labeling(start, targets, 120.0, max_speed=10.0, step_s=1.0)
        return sim.subnet_series, labelings

    def test_a_forest_link_breaks(self, monkeypatch):
        # 10 m steps: the one link of the pair is exactly 120 m long after 2
        # steps, still in range, and breaks at the third.
        series, labelings = self.labelings(monkeypatch, [[0.0, 0.0], [100.0, 0.0]],
                                           [[0.0, 0.0], [150.0, 0.0]])
        assert series.tolist() == [1, 1, 1, 2, 2, 2]
        assert labelings == 2

    def test_two_components_merge_with_every_forest_link_kept(self, monkeypatch):
        # Two rigid pairs close in; the gap reaches 120 m after 13 steps.
        series, labelings = self.labelings(
            monkeypatch, [[0.0, 0.0], [50.0, 0.0], [300.0, 0.0], [350.0, 0.0]],
            [[0.0, 0.0], [50.0, 0.0], [150.0, 0.0], [200.0, 0.0]])
        assert series.tolist() == [2] * 13 + [1] * 3
        assert labelings == 2

    def test_coincident_nodes_keep_their_link(self, monkeypatch):
        # Two nodes at one point are linked at distance 0; a forest weighted
        # by distance would drop that link and miss their parting.
        series, labelings = self.labelings(monkeypatch, [[0.0, 0.0], [0.0, 0.0]],
                                           [[0.0, 0.0], [150.0, 0.0]])
        assert series.tolist() == [1] * 13 + [2] * 3
        assert labelings == 2

    def test_a_pair_links_at_the_last_step_of_a_block(self, monkeypatch):
        # Head on, closing 20 m a step: 740 m apart after the block's first
        # step, so r + 2 * reach * (B - 1) away, and exactly in range at step
        # B, where both arrive.  A bound without the factor 2 drops the pair.
        gap = 120.0 + 20.0 * simulate.BLOCK_STEPS
        series, labelings = self.labelings(monkeypatch, [[0.0, 0.0], [gap, 0.0]],
                                           [[gap / 2 - 60.0, 0.0], [gap / 2 + 60.0, 0.0]])
        assert series.tolist() == [2] * simulate.BLOCK_STEPS + [1]
        assert labelings == 2

    def test_a_forest_link_breaks_at_the_first_step_of_a_block(self, monkeypatch):
        # 1 m steps away from a still node: 119.5 m apart at the block's
        # last step, 120.5 m at the next block's first.
        start = [[0.0, 0.0], [119.5 - simulate.BLOCK_STEPS, 0.0]]
        targets = [[0.0, 0.0], [200.0, 0.0]]
        calls = count_calls(monkeypatch, simulate._labeling)
        simulate_recovery(np.asarray(start), plan_to(targets), 1.0, 1.0, 120.0, t_max=1e9)
        assert len(calls) == 2
        sim = assert_matches_dense_labeling(start, targets, 120.0, max_speed=1.0, step_s=1.0)
        assert sim.subnet_series.tolist().index(2) == simulate.BLOCK_STEPS + 1

    def test_a_node_on_its_target_takes_the_target_bits(self):
        # -0.0 == 0.0, but the first step writes every arrived node's target.
        sim = assert_matches_dense_labeling([[-0.0, 0.0], [50.0, 0.0]],
                                            [[0.0, 0.0], [60.0, 0.0]], 120.0)
        assert not np.signbit(sim.final_positions[0, 0])

    def test_history_is_the_same_in_any_block_size(self, monkeypatch):
        topology = generate_swarm(40, 200.0, 120.0, seed=3)
        scenario = apply_damage(topology, 20, seed=4)
        start = topology.positions[scenario.remaining]
        plan = plan_centering(topology, scenario)

        def history():
            return simulate_recovery(start, plan, 10.0, 0.1, topology.comm_range,
                                     t_max=1e9, keep_history=True).history

        default = history()
        monkeypatch.setattr(simulate, "BLOCK_STEPS", 1)
        assert default.shape[0] > 2 * simulate.BLOCK_STEPS
        assert default.tobytes() == history().tobytes()

    def test_few_full_labelings_in_a_centering_trial(self, monkeypatch):
        topology = generate_swarm(200, 200.0, 120.0, seed=1)
        scenario = apply_damage(topology, 100, seed=2)
        plan = plan_centering(topology, scenario)
        calls = count_calls(monkeypatch, simulate._labeling)
        sim = simulate_recovery(topology.positions[scenario.remaining], plan, 10.0, 0.1,
                                topology.comm_range, t_max=1e9)
        steps = len(sim.subnet_series) - 1
        assert steps > 100
        assert len(calls) < steps / 10


class TestTrialSeeds:
    def test_prefix_stability(self):
        assert derive_trial_seeds(7, 3) == derive_trial_seeds(7, 6)[:3]

    def test_distinct_across_trials(self):
        seeds = derive_trial_seeds(7, 10)
        assert len(set(seeds)) == 10


class TestRunExperiment:
    def spec(self, **kwargs):
        defaults = dict(n=20, density_per_km2=200.0, comm_range=120.0,
                        max_speed=10.0, step_s=0.1, damage_sizes=(9,),
                        trials=3, master_seed=5, methods=(METHOD_CENTERING,))
        defaults.update(kwargs)
        return ExperimentSpec(**defaults)

    def test_centering_always_converges(self):
        results = run_experiment(self.spec())
        cell = results.summary[0]
        assert cell.r_c == 1.0
        assert cell.trials == 3
        assert all(t.converged for t in results.trials)

    def test_deterministic(self):
        a = run_experiment(self.spec())
        b = run_experiment(self.spec())
        assert results_to_dict(a) == results_to_dict(b)

    def test_growing_trials_preserves_prefix(self):
        small = run_experiment(self.spec(trials=2))
        big = run_experiment(self.spec(trials=4))
        small_dict = results_to_dict(small)["trials"]
        big_dict = results_to_dict(big)["trials"]
        assert big_dict[:2] == small_dict

    def test_aggregates_match_trial_rows(self):
        results = run_experiment(self.spec(trials=5))
        cell = results.summary[0]
        rows = [t for t in results.trials if not t.skipped]
        converged = [t for t in rows if t.converged]
        times = np.array([t.measured_s for t in converged])
        assert cell.r_c == pytest.approx(len(converged) / len(rows))
        assert cell.mean_t == pytest.approx(times.mean())
        assert cell.std_t == pytest.approx(times.std(ddof=1))
        assert cell.mean_deg == pytest.approx(np.mean([t.mean_degree for t in converged]))
        assert cell.max_deg == pytest.approx(np.mean([t.max_degree for t in converged]))

    def test_infeasible_damage_becomes_recorded_skip(self):
        # destroying n-1 of n can never split the survivors
        results = run_experiment(self.spec(damage_sizes=(19,), trials=2))
        assert all(t.skipped for t in results.trials)
        assert all(t.skip_reason for t in results.trials)
        cell = results.summary[0]
        assert cell.skipped == 2
        assert cell.r_c is None

    def test_learned_method_requires_weights(self):
        # n_d = 19 skips every trial: the check comes before any trial runs.
        for damage_sizes in ((9,), (19,)):
            with pytest.raises(ValueError, match="needs pretrained weights"):
                run_experiment(self.spec(methods=("ml-dagl",), damage_sizes=damage_sizes))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method: 'teleport'"):
            self.spec(methods=("teleport",))

    @pytest.mark.parametrize("field, value, message", [
        ("methods", (), "methods must not be empty"),
        ("damage_sizes", (), "damage_sizes must not be empty"),
        ("damage_sizes", (9, 20), r"damage_sizes entry 20 is not in \[1, n-1\] = \[1, 19\]"),
        ("damage_sizes", (0,), r"damage_sizes entry 0 is not in \[1, n-1\] = \[1, 19\]"),
        ("seeds", (1, 2), "seeds must cover every trial"),
    ], ids=["no-method", "no-damage-size", "damage-size-n", "damage-size-zero", "too-few-seeds"])
    def test_empty_or_out_of_range_entries_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            self.spec(**{field: value})

    def test_planner_speed_must_match_the_experiment(self):
        with pytest.raises(ValueError, match="max_speed"):
            run_experiment(self.spec(max_speed=5.0), config=Hyperparams())

    def test_the_budget_is_the_flight_across_half_the_side(self):
        spec = self.spec()
        side = generate_swarm(spec.n, spec.density_per_km2, spec.comm_range, seed=1).side
        assert spec.side == side
        assert spec.resolve_t_max() == recovery_budget(side, 10.0) == side / 20.0
        assert self.spec(t_max=0.0).resolve_t_max() == recovery_budget(side, 10.0, 0.0) == 0.0

    def test_the_trial_pool_has_no_more_workers_than_tasks(self, monkeypatch):
        # A real pool forks every worker at its first task; this one runs
        # the tasks in this process and records its size.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(simulate, "_WORKER_STATE", {})
        for trials, pools in ((2, [2]), (1, [])):
            sizes.clear()
            spec = self.spec(trials=trials)
            pooled = run_experiment(spec, jobs=512)
            assert sizes == pools
            assert results_to_dict(pooled) == results_to_dict(run_experiment(spec))

    def test_parallel_jobs_match_serial(self):
        spec = self.spec(trials=2)
        serial = run_experiment(spec, jobs=1)
        parallel = run_experiment(spec, jobs=2)
        assert results_to_dict(serial) == results_to_dict(parallel)

        tiny = Hyperparams(hidden_dim=8, blocks=1, pretrain_iters=1, online_iters=3)
        weights = pretrain(20, 200.0, 120.0, seed=3, config=tiny).weights
        spec = self.spec(trials=2, methods=(METHOD_CENTERING, "ml-dagl"))
        serial = run_experiment(spec, weights=weights, config=tiny, jobs=1)
        parallel = run_experiment(spec, weights=weights, config=tiny, jobs=2)
        assert results_to_dict(serial) == results_to_dict(parallel)


class TestExport:
    def test_files_and_schemas(self, tmp_path):
        spec = ExperimentSpec(n=20, damage_sizes=(9,), trials=2, master_seed=5,
                              methods=(METHOD_CENTERING,))
        results = run_experiment(spec)
        paths = export_results(results, tmp_path)
        with open(paths["trials"]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == TRIAL_COLUMNS
        assert len(rows) == 3
        assert all(len(row) == len(TRIAL_COLUMNS) for row in rows)
        with open(paths["summary"]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SUMMARY_COLUMNS
        assert all(len(row) == len(SUMMARY_COLUMNS) for row in rows)
        # Step k of a trial's series is at t_s = k * step_s.
        with open(paths["subnet_series"]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "n", "n_d", "seed", "step", "t_s", "n_subnets"]
        trials = json.loads(paths["json"].read_text())["trials"]
        cells = [(method, int(n), int(n_d), int(seed), int(k), float(t_s), int(count))
                 for method, n, n_d, seed, k, t_s, count in rows[1:]]
        assert cells == [(t["method"], t["n"], t["n_d"], t["seed"], k, k * spec.step_s, count)
                         for t in trials for k, count in enumerate(t["subnet_series"])]
        assert len(cells) > len(trials)

    def test_json_round_trip(self, tmp_path):
        spec = ExperimentSpec(n=20, damage_sizes=(9,), trials=2, master_seed=5,
                              methods=(METHOD_CENTERING,))
        results = run_experiment(spec)
        paths = export_results(results, tmp_path)
        on_disk = json.loads(paths["json"].read_text())
        assert on_disk == results_to_dict(results)
        assert paths["json"].read_text() == json.dumps(
            results_to_dict(results), sort_keys=True, indent=2) + "\n"

    def test_empty_results_write_headers_only(self, tmp_path):
        spec = ExperimentSpec(n=20, damage_sizes=(19,), trials=1, master_seed=5,
                              methods=(METHOD_CENTERING,))
        results = run_experiment(spec)  # every trial skips
        paths = export_results(results, tmp_path)
        with open(paths["trials"]) as fh:
            rows = list(csv.reader(fh))
        assert rows == [TRIAL_COLUMNS]
        # skips are still visible in the JSON record
        on_disk = json.loads(paths["json"].read_text())
        assert on_disk["trials"][0]["skipped"] is True

    def test_summary_recomputable_from_trials_csv(self, tmp_path):
        spec = ExperimentSpec(n=20, damage_sizes=(9,), trials=4, master_seed=5,
                              methods=(METHOD_CENTERING,))
        results = run_experiment(spec)
        paths = export_results(results, tmp_path)
        with open(paths["trials"]) as fh:
            rows = list(csv.DictReader(fh))
        times = [float(r["measured_T_rc_s"]) for r in rows if r["converged"] == "1"]
        cell = results.summary[0]
        assert cell.r_c == pytest.approx(
            sum(r["converged"] == "1" for r in rows) / len(rows))
        assert cell.mean_t == pytest.approx(np.mean(times))
        assert cell.std_t == pytest.approx(np.std(times, ddof=1))
