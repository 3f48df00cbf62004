"""Self-test of the benchmark on tiny sizes: every workload path, traced and
untraced, emits every metric with a unit and passes its output checks.

    python3 -m pytest benchmarks
"""
import json
import shutil
import subprocess
import sys

import pytest

import run
from resilinet.gcn import Hyperparams
from workloads import PlanWorkload, PretrainWorkload, SweepWorkload

TINY = Hyperparams(hidden_dim=8, blocks=2, online_iters=3)
TINY_WORKLOADS = {
    "plan-n50": PlanWorkload(n=16, n_destroyed=8, setup_pretrain_iters=2,
                             branch_cycle=(2, 3), pool=2, config=TINY),
    "pretrain-n100": PretrainWorkload(n=24, iters=2, branch_cycle=(3,), pool=2,
                                      config=TINY),
    "sweep-centering-n200": SweepWorkload(n=24, n_destroyed=12, pool=4),
}
COMMON = ("ops_per_s", "op_s.p50", "setup_s", "peak_rss_mb", "failed_ratio")
QUALITY = {
    "plan-n50": ("planned_T_s.mean", "measured_T_s.mean", "R_c", "fallback_ratio",
                 "final_loss"),
    "pretrain-n100": ("final_loss",),
    "sweep-centering-n200": ("planned_T_s.mean", "measured_T_s.mean", "R_c"),
}
# Per-layer calls that show which layers each workload exercises.
EXERCISED = {
    "plan-n50": ("gcn.forward_eval", "gcn.per_branch_metrics", "planner.plan_learned"),
    "pretrain-n100": ("gcn.pretrain", "gcn.forward_train", "swarm.generate_swarm"),
    "sweep-centering-n200": ("simulate.simulate_recovery", "simulate.export_results"),
}
BYPASSED = {
    "plan-n50": ("simulate.run_experiment", "gcn.pretrain"),
    "pretrain-n100": ("gcn.forward_eval", "gcn.per_branch_metrics", "gcn.solve"),
    "sweep-centering-n200": ("gcn.forward_train", "gcn.forward_eval", "gcn.backward"),
}


def _run(name, trace, tmp_path):
    return run.run_workload(TINY_WORKLOADS[name], seed=3, seconds=0.0, trace=trace,
                            scratch=tmp_path)


def _has_unit(metric):
    return isinstance(metric["value"], (int, float)) and metric["unit"]


@pytest.mark.parametrize("name", sorted(TINY_WORKLOADS))
def test_workload_untraced_and_traced(name, tmp_path):
    plain = _run(name, False, tmp_path)
    traced = _run(name, True, tmp_path)

    ops = TINY_WORKLOADS[name].cycle
    for report in (plain, traced):
        assert report["attempted"] == ops and report["failed"] == 0, report["failures"]
        for metric in COMMON + QUALITY[name]:
            assert _has_unit(report["metrics"][metric]), metric
    assert plain["digests"] == traced["digests"]
    assert plain["environment"]["blas_threads"] == run.BLAS_THREADS

    layers = traced["per_layer"]
    assert all(_has_unit(m) for m in layers.values())
    for fn in EXERCISED[name]:
        assert layers[f"{fn}.calls"]["value"] > 0, fn
    for fn in BYPASSED[name]:
        assert layers[f"{fn}.calls"]["value"] == 0, fn
    assert layers["trace_overhead_ratio"]["value"] > 0

    for report, trace in ((plain, False), (traced, True)):
        line = run.result_line(report, run.listed_metrics(trace))
        assert line["correct"] and line["attempted"] == ops
        assert len(line["metrics"]) == len(run.listed_metrics(trace))


def test_solver_counts_are_exact(tmp_path):
    layers = _run("plan-n50", True, tmp_path)["per_layer"]
    assert layers["gcn.solve.iterations"]["value"] == TINY.online_iters
    rows, d, blocks = layers["damage_graphs.batch_rows"]["value"], 8, 2
    # Two forward passes and one backward per solver iteration.
    forward = 2 * rows * (4 * d + 2 * blocks * d * d)
    assert layers["gcn.gemm_flop_per_iter"]["value"] == 4 * forward - 4 * rows * d
    assert layers["gcn.adam_bytes_per_step"]["value"] == 56 * (4 * d + 2 * blocks * d * d)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "plan-n50",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""



def test_p90_needs_a_hundred_ops():
    assert "op_s.p90" not in run.timing_metrics([1.0] * 99)
    metrics = run.timing_metrics([float(i) for i in range(1, 101)])
    assert metrics["op_s.p90"] == {"value": 90.9, "unit": "s"}
    assert metrics["ops_per_s"]["value"] == 100 / 5050


def test_repeated_inputs_are_checked_once(tmp_path):
    report = run.run_workload(SweepWorkload(n=24, n_destroyed=12, pool=2), seed=3,
                              seconds=0.3, trace=False, scratch=tmp_path)
    assert report["attempted"] > 2 and report["failed"] == 0, report["failures"]
    assert report["inputs_checked"] == len(report["digests"]["outputs"]) == 2
