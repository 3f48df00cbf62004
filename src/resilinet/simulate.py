"""Time-stepped plan execution and the Monte-Carlo experiment harness.

Execution moves every surviving node straight toward its target at maximum
speed in fixed time steps, recording the sub-net count of the moving swarm
at every step.  The recovery time is the first instant the swarm is a
single component; nodes keep flying until everyone reaches their target, so
the series covers the whole maneuver.

Experiments sweep damage sizes and methods over seeded trials.  Every trial
derives its own random stream from (master seed, trial index), methods
within one trial share the same topology and damage draw (paired
comparison), and aggregation is a deterministic reduce, so a spec plus its
seeds reproduces every number exactly.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

from .damage import DamageError, apply_damage
from .gcn import Hyperparams, ModelWeights
from .planner import (METHOD_CENTERING, METHOD_LEARNED, PLAN_METHODS, RecoveryPlan,
                      plan_recovery)
from .swarm import (DegreeStats, GenerationError, _csr_graph, _pairs_in_range,
                    build_adjacency, check_swarm_params, degree_cdf,
                    degree_stats, generate_swarm, write_csv, write_payload)

RESULTS_VERSION = 1
# The most steps a flight may take; real flights take hundreds to a few
# thousand (about 700 at n = 200 and 1 550 at n = 1000 at the defaults).
MAX_STEPS = 10**6
# Steps flown between two tests of the labeling certificate; each block's
# steps are tested in one vectorised pass.
BLOCK_STEPS = 32

TRIAL_COLUMNS = [
    "method", "n", "n_d", "seed", "converged", "measured_T_rc_s",
    "planned_T_rc_s", "mean_degree", "max_degree", "k_star", "iterations_used",
]
SUMMARY_COLUMNS = [
    "method", "n", "n_d", "R_c", "mean_T", "std_T", "mean_deg", "max_deg",
]
# The results file's names for the record fields it spells differently.
RESULTS_NAMES = {"measured_s": "measured_T_rc_s", "planned_s": "planned_T_rc_s",
                 "iterations": "iterations_used", "r_c": "R_c", "mean_t": "mean_T",
                 "std_t": "std_T"}
# A results file's table: each summary row holds every summary column.
RESULTS_FIELDS = {"summary": [{"method": "string", "n": "number", "n_d": "number",
                               **{c: "finite number or null" for c in SUMMARY_COLUMNS[3:]}}]}


@dataclass(frozen=True)
class SimResult:
    """Outcome of executing one plan.

    ``first_connected_s`` is None when the swarm never became one component
    (possible only for unverified plans); ``converged`` additionally requires
    connecting within the time budget.
    """

    subnet_series: np.ndarray
    first_connected_s: float | None
    converged: bool
    degree: DegreeStats
    final_positions: np.ndarray
    history: np.ndarray | None = None


def recovery_budget(side: float, max_speed: float, t_max: float | None = None) -> float:
    """``t_max`` if given, else the flight across half the deployment side at max_speed."""
    return side / (2.0 * max_speed) if t_max is None else t_max


def _check_flight(max_speed: float, step_s: float, t_max: float | None) -> None:
    for name, value in (("max_speed", max_speed), ("step_s", step_s)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite")
    if t_max is not None and not 0 <= t_max < math.inf:
        raise ValueError("t_max must be a finite non-negative number")


def simulate_recovery(start: np.ndarray, plan: RecoveryPlan, max_speed: float,
                      step_s: float, comm_range: float, t_max: float,
                      keep_history: bool = False) -> SimResult:
    """Advance every node toward its target until the plan completes.

    Per step each node moves min(max_speed * step_s, remaining distance), so
    motion is overshoot-free and distance-to-target is non-increasing.  The
    series keeps going after first connection, to plan completion.  A plan
    that needs more than ``MAX_STEPS`` steps is refused before the flight,
    and so are a non-finite start or target and a start and target whose
    distance overflows.

    Each step's sub-net count is the one a fresh labeling of the disk graph
    would give, but most steps are decided by a certificate kept from the
    last full labeling (the kinetic data structures of Basch, Guibas and
    Hershberger): the count, a spanning forest of that graph and the pairs
    of nodes in different components.  If every forest pair is still in
    range, every old component is still connected, so the new components
    are unions of old ones, joined only by links between different old
    components.  Hence, with the forest intact and no such link, the count
    is unchanged; a broken forest pair or a link between components makes
    the step a full labeling.  The pair test is ``build_adjacency``'s own,
    bit for bit, so the counts are exact.

    The flight runs in blocks of ``BLOCK_STEPS`` steps.  Only the nodes
    still flying are moved, and the certificate is tested at every step of
    a block in one pass; the first failing step is labeled afresh, and the
    rest of the block is tested against the new certificate.  A node moves
    at most max_speed * step_s per step, so a pair closes by at most twice
    that: a pair farther apart than comm_range plus twice the block's flight
    at its first step cannot link within the block, and is not tested.  The
    bound carries a slack of 1e-9 of itself plus the largest coordinate,
    which the rounding of the motion stays far within, so dropping those
    pairs never changes a count.
    """
    _check_flight(max_speed, step_s, t_max)
    positions = np.asarray(start, dtype=float).copy()
    targets = np.asarray(plan.targets, dtype=float)
    if positions.shape != targets.shape:
        raise ValueError("start and plan target shapes differ")
    if not np.isfinite(positions).all():
        raise ValueError("start positions must be finite")
    if not np.isfinite(targets).all():
        raise ValueError("plan targets must be finite")

    reach = max_speed * step_s
    with np.errstate(over="ignore"):
        max_dist = float(np.linalg.norm(targets - positions, axis=1).max())
    if max_dist == math.inf:
        raise ValueError("a start position and its plan target are too far apart: "
                         "their distance overflows float64")
    # A product, not a quotient: a tiny reach would overflow the step count.
    if max_dist > MAX_STEPS * reach:
        raise ValueError(f"step_s={step_s!r} is too small: the plan needs more than "
                         f"{MAX_STEPS} steps at max_speed={max_speed!r}")
    total_steps = int(math.ceil(max_dist / reach - 1e-12)) if max_dist > 0 else 0

    count, forest, across = _labeling(build_adjacency(positions, comm_range))
    series = np.empty(total_steps + 1, dtype=int)
    series[0] = count
    history = [positions[None].copy()] if keep_history else None
    extent = max(np.abs(positions).max(), np.abs(targets).max())
    # The nodes still flying and their coordinates.  Every node starts here:
    # one already on its target arrives, taking the target's bits, at step 1.
    flying = np.arange(len(positions))
    x, y = positions.T.copy()
    to_x, to_y = targets.T.copy()
    xs, ys = positions[:, 0], positions[:, 1]
    block = np.empty((BLOCK_STEPS, *positions.shape))
    for first_step in range(1, total_steps + 1, BLOCK_STEPS):
        frames = block[:min(BLOCK_STEPS, total_steps + 1 - first_step)]
        for frame in frames:
            dx, dy = to_x - x, to_y - y
            dist = np.sqrt(dx * dx + dy * dy)
            arrive = dist <= reach
            if np.count_nonzero(arrive):
                positions[flying[arrive]] = targets[flying[arrive]]
                keep = ~arrive
                flying, x, y, to_x, to_y, dx, dy, dist = (
                    a[keep] for a in (flying, x, y, to_x, to_y, dx, dy, dist))
            scale = reach / dist
            x, y = x + dx * scale, y + dy * scale
            xs[flying], ys[flying] = x, y
            frame[...] = positions
        done = 0
        while done < len(frames):
            held = done + _certified_steps(frames[done:], forest, across, comm_range,
                                           2.0 * reach, extent)
            series[first_step + done:first_step + held] = count
            if held < len(frames):
                count, forest, across = _labeling(build_adjacency(frames[held], comm_range))
                series[first_step + held] = count
            done = held + 1
        if keep_history:
            history.append(frames.copy())

    connected = np.flatnonzero(series == 1)
    first = int(connected[0]) * step_s if connected.size else None
    return SimResult(
        subnet_series=series,
        first_connected_s=first,
        converged=first is not None and first <= t_max + 1e-9,
        degree=degree_stats(build_adjacency(positions, comm_range)),
        final_positions=positions,
        history=np.concatenate(history) if keep_history else None,
    )


def _labeling(adjacency: np.ndarray) -> tuple[int, tuple[np.ndarray, np.ndarray],
                                              tuple[np.ndarray, np.ndarray]]:
    """Component count, a spanning forest and the pairs between components of a graph.

    Both node pair sets are (rows, cols) index arrays.  The components and
    the forest come from one CSR graph, and the forest is taken over its unit
    weights: csgraph drops explicit zeros, so squared-distance weights would
    lose the links between coincident nodes.
    """
    graph = _csr_graph(adjacency)
    count, labels = connected_components(graph, directed=False)
    forest = minimum_spanning_tree(graph).nonzero()
    return int(count), forest, np.nonzero(labels[:, None] < labels[None, :])


def _certified_steps(frames: np.ndarray, forest, across, comm_range: float,
                     closing: float, extent: float) -> int:
    """How many leading frames the certificate (forest, across) holds for.

    ``closing`` is the most a pair closes per step; a pair between
    components farther apart than the block can close is not tested.
    """
    holds = _pairs_in_range(frames, *forest, comm_range).all(axis=1)
    bound = comm_range + closing * len(frames)
    near = _pairs_in_range(frames[0], *across, bound + 1e-9 * (bound + extent))
    holds &= ~_pairs_in_range(frames, across[0][near], across[1][near], comm_range).any(axis=1)
    return len(frames) if holds.all() else int(holds.argmin())


@dataclass(frozen=True)
class ExperimentSpec:
    """Sweep definition: swarm parameters, damage sizes, trials, methods.

    ``t_max`` of None resolves to ``recovery_budget``'s default.  ``seeds`` may pin
    explicit per-trial seeds; otherwise they derive from ``master_seed`` so
    that growing ``trials`` keeps the existing trials identical.
    """

    n: int
    density_per_km2: float = 200.0
    comm_range: float = 120.0
    max_speed: float = 10.0
    step_s: float = 0.1
    damage_sizes: tuple[int, ...] = (100,)
    trials: int = 50
    master_seed: int = 0
    seeds: tuple[int, ...] | None = None
    methods: tuple[str, ...] = (METHOD_CENTERING,)
    t_max: float | None = None

    def __post_init__(self):
        check_swarm_params(self.n, self.density_per_km2, self.comm_range)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        _check_flight(self.max_speed, self.step_s, self.t_max)
        if self.seeds is not None and len(self.seeds) < self.trials:
            raise ValueError("seeds must cover every trial")
        for name in ("methods", "damage_sizes"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must not be empty")
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat an entry")
        for method in self.methods:
            if method not in PLAN_METHODS:
                raise ValueError(f"unknown method: {method!r}")
        for n_d in self.damage_sizes:
            if not 1 <= n_d <= self.n - 1:
                raise ValueError(f"damage_sizes entry {n_d} is not in [1, n-1] = "
                                 f"[1, {self.n - 1}]")

    @property
    def side(self) -> float:
        return check_swarm_params(self.n, self.density_per_km2, self.comm_range)

    def resolve_t_max(self) -> float:
        return recovery_budget(self.side, self.max_speed, self.t_max)

    def trial_seeds(self) -> tuple[int, ...]:
        if self.seeds is not None:
            return tuple(self.seeds[: self.trials])
        return derive_trial_seeds(self.master_seed, self.trials)


def derive_trial_seeds(master_seed: int, count: int) -> tuple[int, ...]:
    """Per-trial seeds keyed by index, stable under growing the count."""
    return tuple(
        int(np.random.SeedSequence(master_seed, spawn_key=(i,)).generate_state(1)[0])
        for i in range(count)
    )


@dataclass(frozen=True)
class TrialRecord:
    method: str
    n: int
    n_d: int
    seed: int
    skipped: bool = False
    skip_reason: str | None = None
    converged: bool = False
    measured_s: float | None = None
    planned_s: float | None = None
    mean_degree: float | None = None
    max_degree: int | None = None
    k_star: int | None = None
    iterations: int = 0
    subnet_series: tuple[int, ...] = ()
    final_degrees: tuple[int, ...] = ()


@dataclass(frozen=True)
class CellSummary:
    method: str
    n: int
    n_d: int
    r_c: float | None
    mean_t: float | None
    std_t: float | None
    mean_deg: float | None
    max_deg: float | None
    trials: int
    skipped: int
    degree_cdf: tuple[float, ...] = ()


@dataclass(frozen=True)
class ExperimentResults:
    spec: ExperimentSpec
    trials: tuple[TrialRecord, ...]
    summary: tuple[CellSummary, ...]


def _run_trial(spec: ExperimentSpec, n_d: int, seed: int,
               weights: ModelWeights | None, config: Hyperparams) -> list[TrialRecord]:
    topo_seed, damage_seed, solve_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(3)
    )
    try:
        topology = generate_swarm(spec.n, spec.density_per_km2, spec.comm_range, topo_seed)
        scenario = apply_damage(topology, n_d, damage_seed, require_split=True)
    except (GenerationError, DamageError) as exc:
        return [
            TrialRecord(method=m, n=spec.n, n_d=n_d, seed=seed, skipped=True,
                        skip_reason=str(exc))
            for m in spec.methods
        ]

    start = topology.positions[scenario.remaining]
    records = []
    for method in spec.methods:
        plan = plan_recovery(method, topology, scenario, config, weights, seed=solve_seed)
        sim = simulate_recovery(start, plan, spec.max_speed, spec.step_s, spec.comm_range,
                                spec.resolve_t_max())
        records.append(TrialRecord(
            method=method, n=spec.n, n_d=n_d, seed=seed,
            converged=sim.converged, measured_s=sim.first_connected_s,
            planned_s=plan.planned_time,
            mean_degree=sim.degree.mean, max_degree=sim.degree.max_degree,
            k_star=plan.k_star, iterations=plan.iterations,
            subnet_series=tuple(sim.subnet_series.tolist()),
            final_degrees=tuple(int(d) for d in sim.degree.degrees),
        ))
    return records


_WORKER_STATE: dict = {}


def _init_worker(spec, weights, config):
    _WORKER_STATE["args"] = (spec, weights, config)


def _worker_trial(task):
    n_d, seed = task
    spec, weights, config = _WORKER_STATE["args"]
    return _run_trial(spec, n_d, seed, weights, config)


def _summarize(spec: ExperimentSpec, trials: list[TrialRecord]) -> list[CellSummary]:
    summary = []
    for n_d in spec.damage_sizes:
        for method in spec.methods:
            cell = [t for t in trials if t.method == method and t.n_d == n_d]
            eligible = [t for t in cell if not t.skipped]
            converged = [t for t in eligible if t.converged]
            times = np.asarray([t.measured_s for t in converged], dtype=float)
            degrees = [d for t in converged for d in t.final_degrees]
            summary.append(CellSummary(
                method=method, n=spec.n, n_d=n_d,
                r_c=(len(converged) / len(eligible)) if eligible else None,
                mean_t=float(times.mean()) if times.size else None,
                std_t=float(times.std(ddof=1)) if times.size > 1 else
                      (0.0 if times.size == 1 else None),
                mean_deg=float(np.mean([t.mean_degree for t in converged]))
                         if converged else None,
                max_deg=float(np.mean([t.max_degree for t in converged]))
                        if converged else None,
                trials=len(eligible),
                skipped=len(cell) - len(eligible),
                degree_cdf=tuple(degree_cdf(degrees).tolist()),
            ))
    return summary


def run_experiment(spec: ExperimentSpec, weights: ModelWeights | None = None,
                   config: Hyperparams | None = None, jobs: int = 1) -> ExperimentResults:
    """Run the full sweep; deterministic for a fixed spec regardless of jobs.

    Generation or damage failures are recorded as skipped trials (with the
    reason) and excluded from the aggregates; they are never silently
    dropped.  Methods share each trial's topology and damage draw, and plan
    and fly at the one speed ``spec.max_speed``, which ``config`` must match.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    config = config or Hyperparams(max_speed=spec.max_speed)
    if config.max_speed != spec.max_speed:
        raise ValueError(f"config max_speed {config.max_speed} != spec's {spec.max_speed}")
    if METHOD_LEARNED in spec.methods and weights is None:
        raise ValueError(f"method {METHOD_LEARNED!r} needs pretrained weights (--model)")
    seeds = spec.trial_seeds()
    tasks = [(n_d, seeds[i]) for n_d in spec.damage_sizes for i in range(spec.trials)]

    # No more workers than tasks: the pool forks every worker at once.
    workers = min(jobs, len(tasks))
    trials: list[TrialRecord] = []
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker,
            initargs=(spec, weights, config),
        ) as pool:
            for records in pool.map(_worker_trial, tasks):
                trials.extend(records)
    else:
        for n_d, seed in tasks:
            trials.extend(_run_trial(spec, n_d, seed, weights, config))

    summary = _summarize(spec, trials)
    return ExperimentResults(spec=spec, trials=tuple(trials), summary=tuple(summary))


def results_to_dict(results: ExperimentResults) -> dict:
    """JSON-ready dict (None for missing values; round-trips exactly)."""
    spec = results.spec
    return {
        "version": RESULTS_VERSION,
        "spec": {
            "n": spec.n, "density_per_km2": spec.density_per_km2,
            "d_tr_m": spec.comm_range, "v_max_mps": spec.max_speed,
            "step_s": spec.step_s, "damage_sizes": list(spec.damage_sizes),
            "trials": spec.trials, "master_seed": spec.master_seed,
            "seeds": list(spec.trial_seeds()), "methods": list(spec.methods),
            "t_max_s": spec.resolve_t_max(),
        },
        "trials": [_row(t) for t in results.trials],
        "summary": [_row(s) for s in results.summary],
    }


def _row(record: TrialRecord | CellSummary) -> dict:
    """A record's fields under their ``RESULTS_NAMES`` names, tuples as lists."""
    row = {}
    for f in fields(record):
        value = getattr(record, f.name)
        row[RESULTS_NAMES.get(f.name, f.name)] = (list(value) if isinstance(value, tuple)
                                                   else value)
    return row


def write_summary_csv(path: str | Path, summary_rows: list[dict],
                      columns: list[str] = SUMMARY_COLUMNS) -> None:
    """Summary CSV of ``columns``; every column but method, n and n_d is written as a float.

    The rows are ``results_to_dict``'s, or those of a results file read
    against ``RESULTS_FIELDS``, so every column is present and typed.
    """
    write_csv(path, columns, [
        [row[key] if key in SUMMARY_COLUMNS[:3] or row[key] is None else float(row[key])
         for key in columns]
        for row in summary_rows
    ])


def _write_series_csv(path: str | Path, rows, step_s: float, key=()) -> None:
    """Per step k of each row's subnet_series: its ``key`` cells, k, k * step_s, the count."""
    write_csv(path, [*key, "step", "t_s", "n_subnets"],
              ([*(row[c] for c in key), step, step * step_s, count]
               for row in rows for step, count in enumerate(row["subnet_series"])))


def export_results(results: ExperimentResults, out_dir: str | Path) -> dict[str, Path]:
    """Write per-trial CSV, summary CSV, JSON, and plot-ready series files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "trials": out / "trials.csv",
        "summary": out / "summary.csv",
        "json": out / "results.json",
        "subnet_series": out / "subnet_series.csv",
        "degree_cdf": out / "degree_cdf.csv",
    }

    payload = results_to_dict(results)
    trials, summary = payload["trials"], payload["summary"]
    write_csv(paths["trials"], TRIAL_COLUMNS,
              ([t[c] for c in TRIAL_COLUMNS] for t in trials if not t["skipped"]))
    write_summary_csv(paths["summary"], summary)
    write_payload(paths["json"], payload)
    _write_series_csv(paths["subnet_series"], trials, results.spec.step_s, TRIAL_COLUMNS[:4])
    write_csv(paths["degree_cdf"], ["method", "n", "n_d", "degree", "cumulative_fraction"],
              ([s["method"], s["n"], s["n_d"], d, frac]
               for s in summary for d, frac in enumerate(s["degree_cdf"])))
    return paths
