"""Command-line pipeline: gen, damage, pretrain, plan, simulate, experiment, report.

Every command is reproducible from (config, seed) and echoes its effective
configuration into the output metadata.
``_options`` resolves every option once: flags over config file over
defaults; the RESILINET_SEED environment variable supplies the seed when
neither a flag nor the config file does.  One ``max_speed`` drives the
planner, the simulator and the recovery budget.

Exit codes: 0 success, 2 configuration or usage error, 3 generation/damage
failure, 4 training divergence, 5 internal error (a plan that fails its own
connectivity check).
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .damage import (DamageError, apply_damage, load_scenario, save_scenario)
from .gcn import (Hyperparams, TrainingDivergence, load_model, pretrain,
                  save_model, write_loss_curve)
from .planner import (METHOD_CENTERING, METHOD_LEARNED, PLAN_METHODS, load_plan,
                      plan_recovery, save_plan)
from .simulate import (RESULTS_FIELDS, RESULTS_VERSION, ExperimentSpec, export_results,
                       run_experiment, simulate_recovery, write_summary_csv)
from .swarm import (GenerationError, generate_swarm, load_topology, read_json, read_payload,
                    require_known_fields, save_topology, write_csv, write_payload)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GENERATION = 3
EXIT_DIVERGENCE = 4
EXIT_INTERNAL = 5

DEFAULTS = {"n": 200, "density": 200.0, "comm_range": 120.0, "max_speed": 10.0, "step_s": 0.1,
            "seed": 0}
# A config file's fields: each option has the JSON type of its default, and
# "hyper" holds the Hyperparams fields but max_speed, a top-level option.
_JSON_TYPE_OF = {int: "integer", float: "number"}
CONFIG_FIELDS = {**{key: _JSON_TYPE_OF[type(default)] for key, default in DEFAULTS.items()},
                 "hyper": "object"}
HYPER_FIELDS = {f.name: _JSON_TYPE_OF[type(f.default)] for f in dataclasses.fields(Hyperparams)
                if f.name != "max_speed"}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    payload = read_json(path, "config")
    require_known_fields(payload, "config file", CONFIG_FIELDS)
    require_known_fields(payload.get("hyper", {}), "config file field 'hyper'", HYPER_FIELDS)
    return payload


def _options(args: argparse.Namespace) -> tuple[dict, Hyperparams]:
    """Every ``DEFAULTS`` option, typed like its default, and the ``Hyperparams``.

    Each option is the flag, else the config file's value, else (seed only)
    RESILINET_SEED, else the default.  The ``Hyperparams`` take the config's
    ``hyper`` object, the hyper flags over it, and the resolved ``max_speed``.
    """
    config = _load_config(args.config)
    options = {}
    for key, default in DEFAULTS.items():
        value = getattr(args, key, None)
        if value is None:
            value = config.get(key)
        if value is None and key == "seed" and os.environ.get("RESILINET_SEED"):
            value = int(os.environ["RESILINET_SEED"])
        options[key] = type(default)(default if value is None else value)
    hyper = dict(config.get("hyper", {}))
    hyper.update((key, getattr(args, key)) for key in HYPER_FIELDS
                 if getattr(args, key, None) is not None)
    return options, Hyperparams(max_speed=options["max_speed"], **hyper)


# Each option flag and each flag that several commands take, declared once:
# its name and ``add_argument`` keywords.  A flag's dest is its option key
# (``DEFAULTS``, ``HYPER_FIELDS``) or the attribute its ``cmd_*`` reads.
FLAGS = {
    "--config": dict(help="JSON config file (flags override it)"),
    "--seed": dict(type=int, help="master seed (or RESILINET_SEED)"),
    "--n": dict(type=int, help="number of nodes"),
    "--density": dict(type=float, help="nodes per km^2"),
    "--comm-range": dict(type=float, help="communication range in meters"),
    "--max-speed": dict(type=float),
    "--step": dict(dest="step_s", type=float),
    "--t-max": dict(type=float),
    "--hidden-dim": dict(type=int),
    "--blocks": dict(type=int),
    "--iters": dict(dest="pretrain_iters", type=int, help="pretraining iterations"),
    "--online-iters": dict(type=int),
    "--dropout": dict(type=float),
    "--lagrange": dict(dest="lagrange_s", type=float),
    "--learning-rate": dict(type=float),
    "--topology": dict(required=True),
    "--scenario": dict(required=True),
    "--model": dict(help="pretrained model file (for ml-dagl)"),
    "--out": dict(required=True),
    "--out-dir": dict(required=True),
}
SWARM_FLAGS = ("--n", "--density", "--comm-range")
SOLVER_FLAGS = ("--online-iters", "--dropout", "--lagrange", "--learning-rate")


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, **FLAGS[name])


def _damage_sizes(text: str) -> tuple[int, ...]:
    sizes = []
    for entry in text.split(","):
        try:
            sizes.append(int(entry))
        except ValueError:
            raise ValueError(f"--nd entry {entry!r} is not an integer") from None
    return tuple(sizes)


def cmd_gen(args: argparse.Namespace) -> int:
    opts, _ = _options(args)
    topology = generate_swarm(opts["n"], opts["density"], opts["comm_range"], opts["seed"])
    save_topology(args.out, topology)
    print(f"wrote topology: n={opts['n']} side={topology.side:.1f} m -> {args.out}")
    return EXIT_OK


def cmd_damage(args: argparse.Namespace) -> int:
    opts, _ = _options(args)
    topology = load_topology(args.topology)
    scenario = apply_damage(topology, args.nd, opts["seed"],
                            require_split=not args.no_require_split)
    save_scenario(args.out, scenario, topology_ref=str(args.topology))
    print(f"wrote scenario: destroyed {scenario.n_destroyed}/{topology.n} -> {args.out}")
    return EXIT_OK


def cmd_pretrain(args: argparse.Namespace) -> int:
    opts, hyper = _options(args)
    result = pretrain(opts["n"], opts["density"], opts["comm_range"], opts["seed"], hyper)
    save_model(args.out, result.weights, init_seed=opts["seed"], metadata=result.metadata)
    if args.loss_curve:
        write_loss_curve(args.loss_curve, result.curve)
    print(f"pretrained: loss {result.metadata['first_loss']:.3f} -> "
          f"{result.metadata['final_loss']:.3f} over {len(result.curve)} iters -> {args.out}")
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    opts, hyper = _options(args)
    topology = load_topology(args.topology)
    scenario = load_scenario(args.scenario, topology.n)
    weights = load_model(args.model)[0] if args.model else None
    plan = plan_recovery(args.method, topology, scenario, hyper, weights, seed=opts["seed"])
    save_plan(args.out, plan, scenario_ref=str(args.scenario))
    print(f"wrote plan: method={plan.method} planned_T={plan.planned_time:.2f} s -> {args.out}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    opts, _ = _options(args)
    topology = load_topology(args.topology)
    scenario = load_scenario(args.scenario, topology.n)
    plan = load_plan(args.plan)
    max_speed, step_s = opts["max_speed"], opts["step_s"]
    t_max = args.t_max if args.t_max is not None else topology.side / (2 * max_speed)
    if len(plan.targets) != scenario.n_remaining:
        raise ValueError(f"plan file field 'targets' has {len(plan.targets)} rows, but the "
                         f"scenario leaves {scenario.n_remaining} survivors")
    start = topology.positions[scenario.remaining]
    sim = simulate_recovery(start, plan, max_speed, step_s, topology.comm_range, t_max)
    write_payload(args.out, {
        "version": 1,
        "plan_ref": str(args.plan),
        "converged": sim.converged,
        "measured_T_rc_s": sim.first_connected_s,
        "t_max_s": t_max,
        "mean_degree": sim.degree.mean,
        "max_degree": sim.degree.max_degree,
        "n_subnets_series": sim.subnet_series.tolist(),
    })
    if args.series:
        write_csv(args.series, ["step", "t_s", "n_subnets"],
                  ([step, step * step_s, ns]
                   for step, ns in enumerate(sim.subnet_series.tolist())))
    measured = "none" if sim.first_connected_s is None else f"{sim.first_connected_s:.2f} s"
    print(f"simulated: converged={sim.converged} measured_T={measured} -> {args.out}")
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    opts, hyper = _options(args)
    spec = ExperimentSpec(
        n=opts["n"], density_per_km2=opts["density"], comm_range=opts["comm_range"],
        max_speed=opts["max_speed"], step_s=opts["step_s"],
        damage_sizes=_damage_sizes(args.nd),
        trials=args.trials,
        master_seed=opts["seed"],
        methods=tuple(args.methods.split(",")),
        t_max=args.t_max,
    )
    weights = load_model(args.model)[0] if args.model else None
    results = run_experiment(spec, weights=weights, config=hyper, jobs=args.jobs)
    paths = export_results(results, args.out_dir)
    for cell in results.summary:
        r_c = "n/a" if cell.r_c is None else f"{cell.r_c:.2f}"
        mean_t = "n/a" if cell.mean_t is None else f"{cell.mean_t:.2f}"
        print(f"{cell.method} n_d={cell.n_d}: R_c={r_c} mean_T={mean_t} s "
              f"({cell.trials} trials, {cell.skipped} skipped)")
    print(f"wrote results -> {paths['json'].parent}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    payload = read_payload(args.results, "results", RESULTS_VERSION, RESULTS_FIELDS)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_summary_csv(out / "summary.csv", payload["summary"])
    write_csv(out / "trc_vs_nd.csv", ["method", "n_d", "mean_T", "std_T"], (
        [s["method"], s["n_d"],
         *(None if s[key] is None else float(s[key]) for key in ("mean_T", "std_T"))]
        for s in payload["summary"]
    ))
    print(f"wrote report -> {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resilinet",
        description="Plan and simulate connectivity recovery for damaged swarm networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a connected swarm topology")
    _add_flags(p, "--config", "--seed", *SWARM_FLAGS, "--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("damage", help="draw a damage scenario")
    _add_flags(p, "--config", "--seed", "--topology", "--out")
    p.add_argument("--nd", type=int, required=True, help="number of destroyed nodes")
    p.add_argument("--no-require-split", action="store_true",
                   help="accept draws that leave the survivors connected")
    p.set_defaults(func=cmd_damage)

    p = sub.add_parser("pretrain", help="pretrain planner weights")
    _add_flags(p, "--config", "--seed", *SWARM_FLAGS, "--hidden-dim", "--blocks", "--iters",
               "--dropout", "--lagrange", "--learning-rate", "--max-speed", "--out")
    p.add_argument("--loss-curve", help="also write the loss curve CSV here")
    p.set_defaults(func=cmd_pretrain)

    # The model file fixes the network's shape, so plan and experiment take
    # only the online solver's knobs.
    p = sub.add_parser("plan", help="plan recovery targets for a scenario")
    _add_flags(p, "--config", "--seed", *SOLVER_FLAGS, "--topology", "--scenario",
               "--model", "--max-speed", "--out")
    p.add_argument("--method", choices=PLAN_METHODS, default=METHOD_LEARNED)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="execute a plan step by step")
    _add_flags(p, "--config", "--topology", "--scenario", "--max-speed", "--step", "--t-max",
               "--out")
    p.add_argument("--plan", required=True)
    p.add_argument("--series", help="also write the sub-net count series CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiment", help="run a seeded Monte-Carlo sweep")
    _add_flags(p, "--config", "--seed", *SWARM_FLAGS, *SOLVER_FLAGS, "--model", "--max-speed",
               "--step", "--t-max", "--out-dir")
    p.add_argument("--nd", required=True, help="damage sizes, comma separated")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--methods", default=METHOD_CENTERING,
                   help="comma separated: centering,ml-dagl")
    p.add_argument("--jobs", type=int, default=1, help="parallel trials")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("report", help="re-derive summary CSVs from a results JSON")
    _add_flags(p, "--out-dir")
    p.add_argument("--results", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GenerationError, DamageError) as exc:
        print(f"generation failure: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    except TrainingDivergence as exc:
        print(f"training divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
