"""The benchmark workloads: inputs from a seed, one op, and output checks.

Every workload is closed loop: the runner issues the next op only after the
previous one returned.  An op is one ``plan_learned`` call on ``plan-n50``,
one ``pretrain`` call on ``pretrain-n100`` and one Monte-Carlo trial
(``run_experiment`` plus ``export_results``) on ``sweep-centering-n200``.

Op time on the two network workloads grows with the number of dilation
branches K, which the topology decides.  Set-up therefore draws inputs
from the seed until they follow a fixed cycle of K, so runs with different
seeds do the same amount of work.

Each workload has a small pool of inputs that its ops cycle through.  A
pool is small enough that every run covers it, so the quality metrics and
output digests, taken once per input, do not depend on the op count.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from resilinet import damage, damage_graphs, gcn, planner, simulate, swarm

DENSITY = 200.0
COMM_RANGE = 120.0
MAX_SPEED = 10.0
STEP_S = 0.1
# Draws allowed per input before set-up gives up on finding the wanted K.
MAX_DRAWS = 1000


def digest(*arrays) -> str:
    """sha256 of the little-endian float64 bytes of the arrays, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def derived_seeds(seed: int, index: int, count: int) -> list[int]:
    """``count`` independent seeds for input ``index`` of a run seeded ``seed``."""
    state = np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(count)
    return [int(s) for s in state]


def t_max_s(n: int) -> float:
    """Recovery budget: the flight across half the deployment side."""
    return 1000.0 * math.sqrt(n / DENSITY) / (2.0 * MAX_SPEED)


@dataclass
class Outcome:
    """What the checks found for one op."""

    violations: list[str] = field(default_factory=list)
    digest: str = ""
    # Quality values averaged over ops: planned_T_s, measured_T_s,
    # recovered, fallback, final_loss.
    quality: dict = field(default_factory=dict)


@dataclass
class State:
    """Output of one set-up: the op inputs plus what every op shares."""

    inputs: list
    shared: dict
    # Identical for every set-up of one seed.
    digest: str
    # Of the weights pretrained in set-up, where there are any.
    final_loss: float | None = None
    weights_digest: str | None = None


def _check_recovery(outcome: Outcome, planned: float, measured: float | None,
                    converged: bool) -> None:
    if measured is None:
        outcome.violations.append("plan never connected in simulation")
    elif measured > planned + STEP_S + 1e-9:
        outcome.violations.append(
            f"measured time {measured} exceeds planned {planned} + one step")
    outcome.quality["planned_T_s"] = planned
    if measured is not None:
        outcome.quality["measured_T_s"] = measured
    outcome.quality["recovered"] = float(converged)


def _finite(weights: gcn.ModelWeights) -> bool:
    return all(np.all(np.isfinite(m)) for m in weights.matrices)


@dataclass(frozen=True)
class PlanWorkload:
    """``plan_learned`` on split scenarios, from weights pretrained in set-up."""

    name: str = "plan-n50"
    n: int = 50
    n_destroyed: int = 25
    setup_pretrain_iters: int = 10
    branch_cycle: tuple[int, ...] = (4, 5)
    pool: int = 2
    config: gcn.Hyperparams = gcn.Hyperparams()

    def setup(self, seed: int, scratch: Path) -> State:
        pretrain_seed = derived_seeds(seed, 0, 1)[0]
        config = replace(self.config, pretrain_iters=self.setup_pretrain_iters)
        result = gcn.pretrain(self.n, DENSITY, COMM_RANGE, pretrain_seed, config)
        model = scratch / "model.json"
        gcn.save_model(model, result.weights, pretrain_seed, result.metadata)
        weights, _ = gcn.load_model(model)
        weights_digest = digest(*weights.matrices)
        if weights_digest != digest(*result.weights.matrices):
            raise RuntimeError("model file did not round-trip the pretrained weights")
        if not _finite(weights):
            raise RuntimeError("pretrained weights are not finite")

        inputs = []
        draw = 1
        while len(inputs) < self.pool:
            wanted = self.branch_cycle[len(inputs) % len(self.branch_cycle)]
            for _ in range(MAX_DRAWS):
                topo_seed, damage_seed, solve_seed = derived_seeds(seed, draw, 3)
                draw += 1
                topology = swarm.generate_swarm(self.n, DENSITY, COMM_RANGE, topo_seed)
                branches = damage_graphs.choose_branch_count(
                    swarm.diameter_hops(topology.adjacency()), self.config.branch_cap)
                if branches == wanted:
                    break
            else:
                raise RuntimeError(f"no topology with K={wanted} in {MAX_DRAWS} draws")
            scenario = damage.apply_damage(topology, self.n_destroyed, damage_seed)
            inputs.append((topology, scenario, solve_seed))
        pool_digest = digest(*(np.concatenate([t.positions.ravel(), s.destroyed])
                               for t, s, _ in inputs))
        return State(inputs=inputs, shared={"weights": weights},
                     digest=weights_digest + pool_digest,
                     final_loss=result.metadata["final_loss"],
                     weights_digest=weights_digest)

    @property
    def cycle(self) -> int:
        return len(self.branch_cycle)

    def op(self, state: State, item):
        topology, scenario, solve_seed = item
        return planner.plan_learned(topology, scenario, state.shared["weights"],
                                    self.config, seed=solve_seed)

    def check(self, state: State, item, plan) -> Outcome:
        topology, scenario, _ = item
        outcome = Outcome(digest=digest(plan.targets))
        if not planner.verify_plan(plan, topology.comm_range):
            outcome.violations.append("plan is not connected")
        bound = planner.plan_centering(topology, scenario, self.config.max_speed)
        if plan.method == planner.METHOD_LEARNED and plan.planned_time > bound.planned_time:
            outcome.violations.append("learned plan is slower than the centroid bound")
        sim = simulate.simulate_recovery(
            topology.positions[scenario.remaining], plan, self.config.max_speed,
            STEP_S, topology.comm_range, t_max_s(self.n))
        _check_recovery(outcome, plan.planned_time, sim.first_connected_s, sim.converged)
        outcome.quality["fallback"] = float(plan.method == planner.METHOD_FALLBACK)
        return outcome


@dataclass(frozen=True)
class PretrainWorkload:
    """``pretrain`` calls with a fixed iteration count, one seed per op."""

    name: str = "pretrain-n100"
    n: int = 100
    iters: int = 10
    branch_cycle: tuple[int, ...] = (6,)
    pool: int = 6
    config: gcn.Hyperparams = gcn.Hyperparams()

    def setup(self, seed: int, scratch: Path) -> State:
        # pretrain draws its own topology from its seed; a one-iteration run
        # of a one-unit network reports the branch count it will use.
        probe = gcn.Hyperparams(pretrain_iters=1, hidden_dim=1, blocks=1,
                                branch_cap=self.config.branch_cap)
        inputs = []
        draw = 0
        while len(inputs) < self.pool:
            wanted = self.branch_cycle[len(inputs) % len(self.branch_cycle)]
            for _ in range(MAX_DRAWS):
                candidate = derived_seeds(seed, draw, 1)[0]
                draw += 1
                result = gcn.pretrain(self.n, DENSITY, COMM_RANGE, candidate, probe)
                if result.metadata["branches"] == wanted:
                    break
            else:
                raise RuntimeError(f"no pretrain seed with K={wanted} in {MAX_DRAWS} draws")
            inputs.append(candidate)
        config = replace(self.config, pretrain_iters=self.iters)
        return State(inputs=inputs, shared={"config": config},
                     digest=digest(np.asarray(inputs, dtype=float)))

    @property
    def cycle(self) -> int:
        return len(self.branch_cycle)

    def op(self, state: State, item):
        return gcn.pretrain(self.n, DENSITY, COMM_RANGE, item, state.shared["config"])

    def check(self, state: State, item, result) -> Outcome:
        outcome = Outcome(digest=digest(*result.weights.matrices))
        if not _finite(result.weights):
            outcome.violations.append("pretrained weights are not finite")
        final_loss = result.metadata["final_loss"]
        if not math.isfinite(final_loss):
            outcome.violations.append("final pretraining loss is not finite")
        outcome.quality["final_loss"] = final_loss
        return outcome


@dataclass(frozen=True)
class SweepWorkload:
    """One centering trial per ``run_experiment`` call, exported to files."""

    name: str = "sweep-centering-n200"
    n: int = 200
    n_destroyed: int = 100
    pool: int = 24
    cycle: int = 1

    def setup(self, seed: int, scratch: Path) -> State:
        seeds = simulate.derive_trial_seeds(seed, self.pool)
        return State(inputs=list(seeds), shared={"seed": seed, "out": scratch / "export"},
                     digest=digest(np.asarray(seeds, dtype=float)))

    def op(self, state: State, item):
        spec = simulate.ExperimentSpec(
            n=self.n, density_per_km2=DENSITY, comm_range=COMM_RANGE,
            max_speed=MAX_SPEED, step_s=STEP_S, damage_sizes=(self.n_destroyed,),
            trials=1, master_seed=state.shared["seed"], seeds=(item,),
            methods=(planner.METHOD_CENTERING,))
        results = simulate.run_experiment(spec, jobs=1)
        paths = simulate.export_results(results, state.shared["out"])
        return results, paths

    def check(self, state: State, item, result) -> Outcome:
        results, paths = result
        (trial,) = results.trials
        outcome = Outcome(digest=digest(
            [trial.planned_s or 0.0, trial.measured_s or 0.0],
            trial.subnet_series, trial.final_degrees))
        if trial.skipped:
            outcome.violations.append(f"trial skipped: {trial.skip_reason}")
            return outcome
        exported = json.loads(Path(paths["json"]).read_text())["trials"][0]
        if (exported["measured_T_rc_s"], exported["planned_T_rc_s"]) != (
                trial.measured_s, trial.planned_s):
            outcome.violations.append("exported results differ from the trial record")
        _check_recovery(outcome, trial.planned_s, trial.measured_s, trial.converged)
        return outcome


WORKLOADS = {w.name: w for w in (PlanWorkload(), PretrainWorkload(), SweepWorkload())}
