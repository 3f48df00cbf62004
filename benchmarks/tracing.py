"""Span tracing of the resilinet modules from outside the library.

`Tracer.installed()` swaps every traced public function, in every resilinet
module that binds it, for a wrapper that records a span (name, start, end,
parent) plus optional counts taken from the call's arguments or result.
Leaving the block puts the original functions back, so the library itself
carries no tracing code and an untraced call costs nothing.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from resilinet import damage, damage_graphs, gcn, planner, simulate, swarm

import resilinet

# Every namespace that may bind a traced function.  A name imported into
# another module (count_subnets, build_kernel, ...) is a separate binding
# and is patched there too.
MODULES = (resilinet, swarm, damage, damage_graphs, gcn, planner, simulate)


def _forward_name(args, kwargs) -> str:
    train = kwargs.get("train", len(args) > 4 and args[4])
    return "gcn.forward_train" if train else "gcn.forward_eval"


def _dense_gemm_flop(rows: int, hidden: int, blocks: int, backward: bool) -> int:
    """Dense matmul flops (2 per multiply-add) of one network pass.

    Forward: first layer (rows x 2 x d), 2 * blocks layers (rows x d x d) and
    the projection (rows x d x 2).  Backward doubles every layer: one product
    for the weight gradient and one for the input gradient.
    """
    per_pass = 2 * rows * (2 * hidden + 2 * blocks * hidden * hidden + 2 * hidden)
    if backward:
        # The first layer needs no input gradient.
        return 2 * per_pass - 2 * rows * 2 * hidden
    return per_pass


def _forward_counts(args, kwargs, result) -> dict:
    weights, seq = args[0], args[1]
    rows = seq.batch_features.shape[0]
    return {"gemm_flop": _dense_gemm_flop(rows, weights.hidden_dim, weights.blocks, False)}


def _backward_counts(args, kwargs, result) -> dict:
    trace, weights = args[0], args[1]
    rows = trace.output.shape[0]
    return {"gemm_flop": _dense_gemm_flop(rows, weights.hidden_dim, weights.blocks, True)}


def _adam_counts(args, kwargs, result) -> dict:
    # Reads weight, gradient and both moments; writes weight and both moments.
    numel = sum(m.size for m in args[0].matrices)
    return {"bytes": 7 * 8 * numel}


def _sequence_counts(args, kwargs, result) -> dict:
    return {
        "branches": result.branches,
        "rows": result.batch_features.shape[0],
        "nnz": result.batch_adjacency.nnz,
    }


# (module, attribute, span name or name function, counts function or None).
# The module is where the function is defined; its bindings elsewhere are
# found by identity.
TRACED = (
    (swarm, "build_adjacency", "swarm.build_adjacency", None),
    (swarm, "count_subnets", "swarm.count_subnets", None),
    (swarm, "generate_swarm", "swarm.generate_swarm", None),
    (swarm, "diameter_hops", "swarm.diameter_hops", None),
    (swarm, "hop_distances", "swarm.hop_distances", None),
    (damage, "apply_damage", "damage.apply_damage", None),
    (damage, "build_input_graph", "damage.build_input_graph", None),
    (damage_graphs, "build_graph_sequence", "damage_graphs.build_graph_sequence",
     _sequence_counts),
    (gcn, "build_kernel", "gcn.build_kernel", lambda a, k, r: {"nnz": r.nnz}),
    (gcn, "forward", _forward_name, _forward_counts),
    (gcn, "backward", "gcn.backward", _backward_counts),
    (gcn, "adam_step", "gcn.adam_step", _adam_counts),
    (gcn, "loss_head", "gcn.loss_head", None),
    (gcn, "per_branch_metrics", "gcn.per_branch_metrics", None),
    (gcn, "solve", "gcn.solve", lambda a, k, r: {"iterations": r.iterations}),
    (gcn, "pretrain", "gcn.pretrain",
     lambda a, k, r: {"iterations": r.metadata["iterations"]}),
    (gcn, "save_model", "gcn.save_model", None),
    (gcn, "load_model", "gcn.load_model", None),
    (planner, "plan_learned", "planner.plan_learned",
     lambda a, k, r: {"fallback": int(r.method == planner.METHOD_FALLBACK)}),
    (planner, "plan_centering", "planner.plan_centering", None),
    (planner, "verify_plan", "planner.verify_plan", None),
    (simulate, "simulate_recovery", "simulate.simulate_recovery",
     lambda a, k, r: {"steps": len(r.subnet_series) - 1}),
    (simulate, "run_experiment", "simulate.run_experiment", None),
    (simulate, "export_results", "simulate.export_results", None),
)

# SwarmTopology.adjacency is a method, patched on the class.
TOPOLOGY_ADJACENCY = "swarm.topology_adjacency"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; `installed()` turns recording on."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around a block (ops and set-ups of the runner)."""
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name=name, start=time.perf_counter(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counts is not None:
                self.spans[idx].counts = counts(args, kwargs, result)
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every binding of every traced function; restore on exit."""
        originals = {id(getattr(mod, attr)): (getattr(mod, attr), name, counts)
                     for mod, attr, name, counts in TRACED}
        patched = []
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and value is originals[id(value)][0]:
                    fn, name, counts = originals[id(value)]
                    setattr(mod, attr, self._wrap(fn, name, counts))
                    patched.append((mod, attr, value))
        adjacency = swarm.SwarmTopology.adjacency
        swarm.SwarmTopology.adjacency = self._wrap(adjacency, TOPOLOGY_ADJACENCY, None)
        try:
            yield self
        finally:
            swarm.SwarmTopology.adjacency = adjacency
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON row: name, start, end, parent, counts."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.counts]) + "\n")


@dataclass
class LayerTotals:
    """Per-name sums over the descendants of a set of root spans."""

    calls: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    total_s: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    # Root duration minus the time its direct children cover.
    uncovered_s: float = 0.0
    roots: int = 0


def layer_totals(spans: list[Span], root_name: str) -> LayerTotals:
    """Sum calls, self time, total time and counts per span name.

    Only spans below a root span called ``root_name`` are counted.  A span's
    self time is its duration minus the durations of its direct children.
    """
    root_of = [-1] * len(spans)
    child_s = [0.0] * len(spans)
    totals = LayerTotals()
    for idx, s in enumerate(spans):
        if s.parent >= 0:
            child_s[s.parent] += s.duration
            root_of[idx] = root_of[s.parent]
        if s.name == root_name:
            root_of[idx] = idx
    for idx, s in enumerate(spans):
        if root_of[idx] < 0:
            continue
        if root_of[idx] == idx:
            totals.roots += 1
            totals.uncovered_s += s.duration - child_s[idx]
            continue
        totals.calls[s.name] = totals.calls.get(s.name, 0) + 1
        totals.self_s[s.name] = totals.self_s.get(s.name, 0.0) + s.duration - child_s[idx]
        totals.total_s[s.name] = totals.total_s.get(s.name, 0.0) + s.duration
        bucket = totals.counts.setdefault(s.name, {})
        for key, value in s.counts.items():
            bucket[key] = bucket.get(key, 0) + value
    return totals


def draws_per_call(spans: list[Span], name: str) -> tuple[int, int]:
    """(calls, draws) of a rejection sampler, over the whole trace.

    A draw is one connectivity test, i.e. one ``swarm.count_subnets`` child
    of the sampler's span.
    """
    calls = {idx for idx, s in enumerate(spans) if s.name == name}
    draws = sum(1 for s in spans if s.name == "swarm.count_subnets" and s.parent in calls)
    return len(calls), draws
