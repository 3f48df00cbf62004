"""Top-level recovery planning: network planner, centering baseline, fallback.

Methods are identified by the wire strings "ml-dagl" (the learned planner),
"centering" (every survivor flies to the swarm centroid), and
"fallback-centroid" (the centroid plan substituted when the learned solver
never produced a feasible branch, or produced one worse than the centroid
bound).  Callers choose one of ``PLAN_METHODS`` through ``plan_recovery``,
which checks that the plan is connected under the communication range, so
downstream simulation always recovers.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .damage import DamageScenario
from .gcn import Hyperparams, ModelWeights, scenario_kernel, solve
from .swarm import SwarmTopology, build_adjacency, count_subnets, read_payload, write_payload

PLAN_VERSION = 1

METHOD_LEARNED = "ml-dagl"
METHOD_CENTERING = "centering"
METHOD_FALLBACK = "fallback-centroid"
# The methods a caller may ask for; a learned plan may come back as a fallback.
PLAN_METHODS = (METHOD_LEARNED, METHOD_CENTERING)
PLAN_FIELDS = {"method": (*PLAN_METHODS, METHOD_FALLBACK), "k_star": "positive integer or null",
               "targets": "non-empty list of finite number pairs",
               "planned_T_rc_s": "finite non-negative number"}


@dataclass(frozen=True)
class RecoveryPlan:
    """Target positions for the surviving nodes, in ascending original order."""

    targets: np.ndarray
    planned_time: float
    method: str
    k_star: int | None = None
    iterations: int = 0


def plan_centering(topology: SwarmTopology, scenario: DamageScenario,
                   max_speed: float = 10.0) -> RecoveryPlan:
    """Every survivor targets the full swarm's centroid; the time is the worst-case bound."""
    center = topology.positions.mean(axis=0)
    start = topology.positions[scenario.remaining]
    planned = float(np.linalg.norm(start - center, axis=1).max()) / max_speed
    return RecoveryPlan(targets=np.tile(center, (scenario.n_remaining, 1)),
                        planned_time=planned, method=METHOD_CENTERING)


def plan_learned(topology: SwarmTopology, scenario: DamageScenario,
                 weights: ModelWeights, config: Hyperparams | None = None,
                 seed: int = 0) -> RecoveryPlan:
    """Plan with the graph-convolution solver, falling back to the centroid.

    Builds the damage-graph sequence with the branch count derived from the
    pre-damage hop diameter and runs the online solver from the given
    pretrained weights (never mutated).  The one choice of the plan is made
    here: the fastest branch (the lowest on a tie) wins if its flight time is
    at most the centroid plan's; otherwise, and whenever no branch ever
    connected (every time is ``inf``), the centroid plan is the fallback.  So
    the result is always connected and never exceeds the worst-case bound.
    """
    config = config or Hyperparams()
    input_graph, seq, kernel = scenario_kernel(topology, scenario, config.branch_cap)
    solution = solve(input_graph, seq, kernel, weights, topology.comm_range,
                     config, seed=seed)
    centroid = plan_centering(topology, scenario, config.max_speed)
    k = int(np.argmin(solution.flight_times))
    if solution.flight_times[k] <= centroid.planned_time:
        return RecoveryPlan(
            targets=solution.branch_targets[k], planned_time=float(solution.flight_times[k]),
            method=METHOD_LEARNED, k_star=k + 1, iterations=solution.iterations,
        )
    return replace(centroid, method=METHOD_FALLBACK, iterations=solution.iterations)


def plan_recovery(method: str, topology: SwarmTopology, scenario: DamageScenario,
                  config: Hyperparams, weights: ModelWeights | None = None,
                  seed: int = 0) -> RecoveryPlan:
    """Plan by one of ``PLAN_METHODS`` at ``config.max_speed``, then verify the plan."""
    if method == METHOD_CENTERING:
        plan = plan_centering(topology, scenario, config.max_speed)
    elif weights is None:
        raise ValueError(f"method {METHOD_LEARNED!r} needs pretrained weights (--model)")
    else:
        plan = plan_learned(topology, scenario, weights, config, seed=seed)
    if not verify_plan(plan, topology.comm_range):
        raise AssertionError(f"{method} produced a disconnected plan")
    return plan


def verify_plan(plan: RecoveryPlan, comm_range: float) -> bool:
    """Hard feasibility gate: the target graph must be a single component."""
    return count_subnets(build_adjacency(plan.targets, comm_range)) == 1


def save_plan(path: str | Path, plan: RecoveryPlan, scenario_ref: str = "") -> None:
    write_payload(path, {
        "version": PLAN_VERSION,
        "scenario_ref": scenario_ref,
        "method": plan.method,
        "k_star": plan.k_star,
        "targets": [[float(x), float(y)] for x, y in plan.targets],
        "planned_T_rc_s": float(plan.planned_time),
    })


def load_plan(path: str | Path) -> RecoveryPlan:
    payload = read_payload(path, "plan", PLAN_VERSION, PLAN_FIELDS)
    return RecoveryPlan(np.asarray(payload["targets"], dtype=float),
                        float(payload["planned_T_rc_s"]), payload["method"], payload["k_star"])
