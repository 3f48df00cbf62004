"""Damage scenarios and the reordered input graph the planner consumes.

A damage scenario splits the node index set into destroyed and remaining
(both 0-based internally; scenario files use 1-based indices).  The input
graph reorders the original topology so that remaining nodes come first,
which is the layout every downstream stage relies on.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .swarm import SwarmTopology, count_subnets, hop_distances, read_payload, write_payload

SCENARIO_VERSION = 1
SCENARIO_FIELDS = {"destroyed": "list of integers"}


class DamageError(RuntimeError):
    """No damage draw produced a network split within the resample budget."""


@dataclass(frozen=True)
class DamageScenario:
    """Destroyed / remaining index split (0-based, each sorted ascending)."""

    destroyed: np.ndarray
    remaining: np.ndarray

    def __post_init__(self):
        destroyed = np.asarray(self.destroyed, dtype=int)
        remaining = np.asarray(self.remaining, dtype=int)
        if destroyed.size < 1:
            raise ValueError("at least one node must be destroyed")
        if remaining.size < 1:
            raise ValueError("remaining is empty: at least one node must survive")
        if (np.unique(destroyed).size != destroyed.size
                or np.unique(remaining).size != remaining.size):
            raise ValueError("node indices must be unique")
        if np.intersect1d(destroyed, remaining).size:
            raise ValueError("destroyed and remaining sets overlap")
        object.__setattr__(self, "destroyed", np.sort(destroyed))
        object.__setattr__(self, "remaining", np.sort(remaining))

    @property
    def n_destroyed(self) -> int:
        return self.destroyed.size

    @property
    def n_remaining(self) -> int:
        return self.remaining.size


@dataclass(frozen=True)
class InputGraph:
    """Original topology with rows/columns permuted to remaining-then-destroyed.

    ``order[i]`` is the original index of row i; the first ``n_remaining``
    rows are the surviving nodes in ascending original order.  ``hops`` is
    the all-pairs hop matrix of ``adjacency`` (``inf`` for unreachable pairs),
    computed once: the branch count and every dilation branch come from it.
    """

    order: np.ndarray
    features: np.ndarray
    adjacency: np.ndarray
    hops: np.ndarray
    n_remaining: int
    n_destroyed: int


def apply_damage(topology: SwarmTopology, n_destroyed: int, seed: int,
                 require_split: bool = True, max_attempts: int = 10_000) -> DamageScenario:
    """Destroy a uniform random subset of nodes.

    With ``require_split`` the draw is resampled until the surviving graph
    has at least two components (the scenarios the planner studies); raises
    DamageError if the budget is spent, e.g. when n_destroyed is too small
    for the topology to ever split.
    """
    n = topology.n
    if not 1 <= n_destroyed <= n - 1:
        raise ValueError("n_destroyed must be in [1, n-1]")
    all_indices = np.arange(n)
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        destroyed = np.sort(rng.choice(n, size=n_destroyed, replace=False))
        remaining = np.setdiff1d(all_indices, destroyed, assume_unique=False)
        scenario = DamageScenario(destroyed=destroyed, remaining=remaining)
        if not require_split or count_subnets(remaining_adjacency(topology, scenario)) >= 2:
            return scenario
    raise DamageError(
        f"no network split obtained destroying {n_destroyed}/{n} nodes "
        f"in {max_attempts} attempts"
    )


def remaining_adjacency(topology: SwarmTopology, scenario: DamageScenario) -> np.ndarray:
    """Induced subgraph of the pre-damage adjacency on the surviving nodes."""
    rem = scenario.remaining
    return topology.adjacency()[np.ix_(rem, rem)]


def build_input_graph(topology: SwarmTopology, scenario: DamageScenario) -> InputGraph:
    """Permute positions and adjacency to remaining-then-destroyed order."""
    order = np.concatenate([scenario.remaining, scenario.destroyed])
    adj = topology.adjacency()[np.ix_(order, order)]
    return InputGraph(
        order=order,
        features=topology.positions[order].copy(),
        adjacency=adj,
        hops=hop_distances(adj),
        n_remaining=scenario.n_remaining,
        n_destroyed=scenario.n_destroyed,
    )


def save_scenario(path: str | Path, scenario: DamageScenario, topology_ref: str = "") -> None:
    """Write a scenario JSON file; destroyed indices are stored 1-based."""
    write_payload(path, {
        "version": SCENARIO_VERSION,
        "topology_ref": topology_ref,
        "destroyed": [int(i) + 1 for i in scenario.destroyed],
    })


def load_scenario(path: str | Path, n: int) -> DamageScenario:
    payload = read_payload(path, "scenario", SCENARIO_VERSION, SCENARIO_FIELDS)
    destroyed = np.asarray(payload["destroyed"], dtype=int) - 1
    if destroyed.size and (destroyed.min() < 0 or destroyed.max() >= n):
        raise ValueError(f"scenario file field 'destroyed' holds an index outside 1..{n}")
    if (distinct := np.unique(destroyed).size) != destroyed.size:
        raise ValueError(f"scenario file field 'destroyed' repeats an index: "
                         f"{destroyed.size} entries, {distinct} distinct")
    remaining = np.setdiff1d(np.arange(n), destroyed, assume_unique=False)
    return DamageScenario(destroyed=destroyed, remaining=remaining)
