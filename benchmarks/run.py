"""Benchmark runner for resilinet.

    python3 benchmarks/run.py --workload plan-n50 --seed 1 --seconds 25 --trace 0

Runs one workload (see ``workloads.py``) in this process, closed loop, until
the ops have taken ``--seconds`` in total.  Set-up runs three times and its
median is reported.  Every op's output is checked.

With ``--trace 0`` the ops run untraced and the end-to-end metrics are
reported.  With ``--trace 1`` each input runs twice, once with every public
function of the library wrapped in a span recorder and once without, in
alternating order.  The per-layer metrics come from the traced half, the
tracing overhead from comparing the halves, and the spans are written to
``benchmarks/out/``.

Standard output gets one JSON line with the full report (environment,
every metric, digests of every plan and weight set, failures) and then, as
its last line, the result: ``correct``, ``attempted``, ``failed`` and the
metrics that ``BENCHMARK.json`` lists for the chosen trace mode.
"""
import os

# Pinned before numpy loads BLAS: one thread is the steadier setting on a
# small machine, and the plain single-threaded baseline.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

_T0 = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if not (SRC / "resilinet" / "__init__.py").is_file():
    raise SystemExit(f"run.py: no resilinet sources under {SRC}")
sys.path[:0] = [str(SRC), str(BENCH_DIR)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import resilinet  # noqa: E402

if Path(resilinet.__file__).resolve().parent != SRC / "resilinet":
    raise SystemExit(f"run.py: imported resilinet from {resilinet.__file__}, not {SRC}")

from tracing import (TOPOLOGY_ADJACENCY, TRACED, Tracer, draws_per_call,  # noqa: E402
                     layer_totals)
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - _T0
SETUP_REPEATS = 3
OUT_DIR = BENCH_DIR / "out"

# Counts computed from array shapes, not measured; they repeat exactly.
COMPUTED_COUNTS = ("gcn.solve.iterations", "gcn.gemm_flop_per_iter",
                   "gcn.adam_bytes_per_step", "gcn.kernel_nnz", "damage_graphs.branches",
                   "damage_graphs.batch_rows", "damage_graphs.batch_nnz")
SPAN_NAMES = sorted(
    {name for _, _, name, _ in TRACED if isinstance(name, str)}
    | {"gcn.forward_train", "gcn.forward_eval", TOPOLOGY_ADJACENCY}
)


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _timed_op(workload, state, item, tracer: Tracer | None):
    """One op; the tracer, if given, is installed only around this op."""
    if tracer is None:
        start = time.perf_counter()
        result = workload.op(state, item)
        return time.perf_counter() - start, result
    with tracer.installed(), tracer.span("op"):
        start = time.perf_counter()
        result = workload.op(state, item)
        elapsed = time.perf_counter() - start
    return elapsed, result


def run_workload(workload, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    """Set up, run ops for ``seconds`` of op time, check them; return the report."""
    tracer = Tracer() if trace else None
    setup_s, setup_digests = [], set()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        if tracer is None:
            state = workload.setup(seed, scratch)
        else:
            with tracer.installed(), tracer.span("setup"):
                state = workload.setup(seed, scratch)
        setup_s.append(time.perf_counter() - start)
        setup_digests.add(state.digest)

    failures = []
    if len(setup_digests) != 1:
        failures.append("set-up gave different inputs on repeats")
    op_s, traced_s, untraced_s = [], [], []
    # Outcome of the first op on each input; later ops repeat the inputs.
    outcomes = {}
    attempted = failed = 0
    # Op time counted against ``seconds``; in a traced run, that of the
    # traced half, so both kinds of run make the same number of ops.
    spent = 0.0
    # Whole cycles of inputs only, so every run has the same input mix.
    while attempted == 0 or spent < seconds or attempted % workload.cycle:
        index = attempted % len(state.inputs)
        item = state.inputs[index]
        # In a traced run each input runs traced and untraced, in turn first.
        modes = [None] if tracer is None else (
            [tracer, None] if attempted % 2 == 0 else [None, tracer])
        attempted += 1
        results = []
        start = time.perf_counter()
        try:
            for mode in modes:
                elapsed, result = _timed_op(workload, state, item, mode)
                results.append((mode, elapsed, workload.check(state, item, result)))
        except Exception as exc:  # a failed op is counted and the loop goes on
            failed += 1
            failures.append(f"op {attempted}: {type(exc).__name__}: {exc}")
            spent += (time.perf_counter() - start) / len(modes)
            continue
        outcome = results[0][2]
        violations = [v for _, _, o in results for v in o.violations]
        if len({o.digest for _, _, o in results}) != 1:
            violations.append("traced and untraced outputs differ")
        if outcomes.setdefault(index, outcome).digest != outcome.digest:
            violations.append("a repeated input gave a different output")
        for mode, elapsed, _ in results:
            (traced_s if mode is not None else untraced_s).append(elapsed)
        spent += (traced_s or untraced_s)[-1]
        op_s.append(untraced_s[-1])
        if violations:
            failed += 1
            failures.extend(f"op {attempted}: {v}" for v in violations)

    metrics = timing_metrics(op_s)
    metrics["setup_s"] = _metric(IMPORT_S + statistics.median(setup_s), "s")
    metrics["peak_rss_mb"] = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    metrics["failed_ratio"] = _metric(failed / attempted, "ratio")
    firsts = [outcomes[i] for i in sorted(outcomes)]
    metrics.update(_quality(firsts, state))

    report = {
        "environment": environment(workload.name, seed, seconds, trace),
        "attempted": attempted, "failed": failed, "failures": failures,
        "op_samples": len(op_s), "op_s": op_s, "setup_repeats_s": setup_s,
        "import_s": IMPORT_S, "metrics": metrics,
        # Quality metrics and digests cover each input once, so they do not
        # depend on how many ops fit in the run.
        "inputs_checked": len(firsts),
        "digests": {"outputs": [o.digest for o in firsts],
                    "set_up_weights": state.weights_digest},
    }
    if tracer is not None:
        report["per_layer"] = per_layer_metrics(tracer, traced_s, untraced_s)
        report["computed_counts"] = {
            name: report["per_layer"][name]["value"] for name in COMPUTED_COUNTS}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.dump(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    return report


def timing_metrics(op_s: list) -> dict:
    """Throughput and op-time percentiles; p90 only with ten samples above it."""
    if not op_s:
        return {}
    metrics = {"ops_per_s": _metric(len(op_s) / sum(op_s), "1/s"),
               "op_s.p50": _metric(statistics.median(op_s), "s")}
    if len(op_s) >= 100:
        metrics["op_s.p90"] = _metric(statistics.quantiles(op_s, n=10)[8], "s")
    return metrics


def _quality(outcomes, state) -> dict:
    """Means of the checked output values; deterministic for a fixed seed."""
    names = {"planned_T_s": ("planned_T_s.mean", "s"),
             "measured_T_s": ("measured_T_s.mean", "s"),
             "recovered": ("R_c", "ratio"),
             "fallback": ("fallback_ratio", "ratio"),
             "final_loss": ("final_loss", "loss")}
    metrics = {}
    for key, (name, unit) in names.items():
        values = [o.quality[key] for o in outcomes if key in o.quality]
        if values:
            metrics[name] = _metric(statistics.fmean(values), unit)
    if state.final_loss is not None:
        metrics["final_loss"] = _metric(state.final_loss, "loss")
    return metrics


def per_layer_metrics(tracer: Tracer, traced_s: list, untraced_s: list) -> dict:
    """Per-op self times and calls of every traced function, plus counts."""
    ops = layer_totals(tracer.spans, "op")
    n_ops = max(ops.roots, 1)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_ms"] = _metric(
            1000.0 * ops.self_s.get(name, 0.0) / n_ops, "ms")
        metrics[f"{name}.calls"] = _metric(ops.calls.get(name, 0) / n_ops, "count")

    def count(name, key):
        return ops.counts.get(name, {}).get(key, 0)

    def per_call(name, key):
        calls = ops.calls.get(name, 0)
        return count(name, key) / calls if calls else 0

    iterations = count("gcn.solve", "iterations") + count("gcn.pretrain", "iterations")
    flop = sum(count(n, "gemm_flop")
               for n in ("gcn.forward_train", "gcn.forward_eval", "gcn.backward"))
    metrics["gcn.solve.iterations"] = _metric(
        count("gcn.solve", "iterations") / n_ops, "count")
    metrics["gcn.gemm_flop_per_iter"] = _metric(
        flop / iterations if iterations else 0, "flop")
    metrics["gcn.adam_bytes_per_step"] = _metric(per_call("gcn.adam_step", "bytes"), "B")
    metrics["gcn.kernel_nnz"] = _metric(per_call("gcn.build_kernel", "nnz"), "count")
    metrics["damage_graphs.branches"] = _metric(
        per_call("damage_graphs.build_graph_sequence", "branches"), "count")
    metrics["damage_graphs.batch_rows"] = _metric(
        per_call("damage_graphs.build_graph_sequence", "rows"), "count")
    metrics["damage_graphs.batch_nnz"] = _metric(
        per_call("damage_graphs.build_graph_sequence", "nnz"), "count")
    metrics["planner.fallbacks"] = _metric(
        count("planner.plan_learned", "fallback") / n_ops, "count")
    steps = count("simulate.simulate_recovery", "steps")
    metrics["simulate.steps"] = _metric(steps / n_ops, "count")
    metrics["simulate.per_step_ms"] = _metric(
        1000.0 * ops.total_s.get("simulate.simulate_recovery", 0.0) / steps
        if steps else 0.0, "ms")
    metrics[f"{TOPOLOGY_ADJACENCY}.calls_per_op"] = metrics.pop(
        f"{TOPOLOGY_ADJACENCY}.calls")

    # Samplers run in set-up on some workloads, so their ratios use every span.
    for sampler in ("swarm.generate_swarm", "damage.apply_damage"):
        calls, draws = draws_per_call(tracer.spans, sampler)
        metrics[f"{sampler}.accept_ratio"] = _metric(calls / draws if draws else 0, "ratio")

    setups = layer_totals(tracer.spans, "setup")
    for name in ("gcn.save_model", "gcn.load_model"):
        metrics[f"{name}.setup_ms"] = _metric(
            1000.0 * setups.self_s.get(name, 0.0) / max(setups.roots, 1), "ms")

    metrics["trace.uncovered_ms"] = _metric(1000.0 * ops.uncovered_s / n_ops, "ms")
    metrics["trace_overhead_ratio"] = _metric(sum(traced_s) / sum(untraced_s), "ratio")
    return metrics


def result_line(report: dict, listed: list) -> dict:
    """The last output line: the metrics BENCHMARK.json lists, in its order."""
    pool = report["per_layer"] if report["environment"]["trace"] else report["metrics"]
    for m in listed:
        if pool.get(m["name"], {}).get("unit") != m["unit"]:
            raise KeyError(f"BENCHMARK.json lists {m['name']} in {m['unit']}, "
                           f"measured {pool.get(m['name'])}")
    return {
        "correct": report["failed"] == 0 and not report["failures"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: pool[m["name"]] for m in listed},
    }


def listed_metrics(trace: bool) -> list:
    """The metrics BENCHMARK.json lists for a traced or an untraced run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    listed = listed_metrics(bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="scratch-") as scratch:
        report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), Path(scratch))
    print(json.dumps({"report": report}))
    print(json.dumps(result_line(report, listed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
