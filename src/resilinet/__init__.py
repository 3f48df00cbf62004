"""Connectivity recovery planning and simulation for damaged swarm networks.

The package namespace holds the pipeline the CLI, the demos and the README
use, the file loaders and savers, the error types and the types those
functions return.  Solver internals stay importable from their submodules.
"""

from .damage import (DamageError, DamageScenario, InputGraph, apply_damage,
                     build_input_graph, load_scenario, remaining_adjacency,
                     save_scenario)
from .damage_graphs import (DamageGraphSequence, SparsityReport,
                            build_graph_sequence, choose_branch_count,
                            sparsity_report)
from .gcn import (Hyperparams, ModelWeights, PretrainResult, TrainingDivergence,
                  kernel_flow, load_model, pretrain, save_model, write_loss_curve)
from .planner import (METHOD_CENTERING, METHOD_FALLBACK, METHOD_LEARNED,
                      PLAN_METHODS, RecoveryPlan, load_plan, plan_centering,
                      plan_learned, plan_recovery, save_plan, verify_plan)
from .simulate import (ExperimentResults, ExperimentSpec, SimResult,
                       export_results, run_experiment, simulate_recovery,
                       write_summary_csv)
from .swarm import (DegreeStats, GenerationError, SwarmTopology, count_subnets,
                    degree_stats, diameter_hops, generate_swarm, hop_distances,
                    load_topology, save_topology)

__version__ = "0.1.0"
