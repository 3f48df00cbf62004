"""End-to-end recovery on one damage case: pretrain, plan, simulate.

Uses a reduced network (32 hidden units, 1 residual block, 120 pretraining
iterations) so the demo finishes in a few seconds; the defaults reproduce
the full-scale experiments.  Compares the learned plan against the
direct-centering baseline on the same scenario.
"""
from resilinet import (Hyperparams, apply_damage, generate_swarm, plan_centering,
                       plan_learned, pretrain, recovery_budget, simulate_recovery,
                       verify_plan)

config = Hyperparams(hidden_dim=32, blocks=1, pretrain_iters=120, online_iters=60)

print("pretraining on a random half-damage case ...")
result = pretrain(n=30, density_per_km2=200.0, comm_range=120.0, seed=11,
                  config=config)
print(f"  loss {result.metadata['first_loss']:.1f} -> "
      f"{result.metadata['final_loss']:.1f}")

topology = generate_swarm(n=30, density_per_km2=200.0, comm_range=120.0, seed=77)
scenario = apply_damage(topology, n_destroyed=15, seed=78)
start = topology.positions[scenario.remaining]
t_max = recovery_budget(topology.side, config.max_speed)

for plan in (plan_learned(topology, scenario, result.weights, config, seed=5),
             plan_centering(topology, scenario)):
    assert verify_plan(plan, topology.comm_range)
    sim = simulate_recovery(start, plan, max_speed=config.max_speed, step_s=0.1,
                            comm_range=topology.comm_range, t_max=t_max)
    print(f"\n{plan.method}: planned flight {plan.planned_time:.2f} s")
    print(f"  connected after {sim.first_connected_s:.1f} s "
          f"(budget {t_max:.0f} s, converged={sim.converged})")
    print(f"  recovered graph: mean degree {sim.degree.mean:.1f}, "
          f"max degree {sim.degree.max_degree}")
    print(f"  sub-net count over time: {[int(v) for v in sim.subnet_series[:12]]} ...")
