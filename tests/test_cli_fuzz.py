"""CLI fuzz test: one field of a valid input file goes wrong, and no command tracebacks.

For each file kind, Hypothesis picks one field from the loader's own field
table, or the first element of a list field.  It drops it, nulls it, gives
it another JSON type, nests it in a list or an object, or sets it to NaN, an
infinity or an integer beyond int64 or float64 range.  The command that
reads the file runs in process and must exit 0, 2, 3 or 4: success or a
usage, generation or divergence error, never an uncaught exception.
"""
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from resilinet.cli import CONFIG_FIELDS, DEFAULTS, HYPER_FIELDS, main
from resilinet.damage import SCENARIO_FIELDS
from resilinet.gcn import MODEL_FIELDS, Hyperparams
from resilinet.planner import PLAN_FIELDS
from resilinet.simulate import RESULTS_FIELDS
from resilinet.swarm import TOPOLOGY_FIELDS

DROP = object()
MUTATIONS = {
    "drop": lambda value: DROP,
    "null": lambda value: None,
    "string": lambda value: "text",
    "flag": lambda value: True,
    "empty list": lambda value: [],
    "empty object": lambda value: {},
    "nested in a list": lambda value: [value],
    "nested in an object": lambda value: {"value": value},
    "NaN": lambda value: math.nan,
    "Infinity": lambda value: math.inf,
    "-Infinity": lambda value: -math.inf,
    "beyond int64": lambda value: 2**63,
    "beyond float64": lambda value: -10**400,
}


def field_paths(table, prefix=()):
    """Path of every field a table names, a list-of-objects field's first entry included."""
    for field, json_type in table.items():
        yield (*prefix, field)
        if isinstance(json_type, list):
            yield from field_paths(json_type[0], (*prefix, field, 0))


# Each file kind: the paths of its fields (the loader's table plus the version).
PATHS = {
    "topology": [("version",), *field_paths(TOPOLOGY_FIELDS)],
    "scenario": [("version",), *field_paths(SCENARIO_FIELDS)],
    "plan": [("version",), *field_paths(PLAN_FIELDS)],
    "model": [("version",), *field_paths(MODEL_FIELDS)],
    "results": [("version",), *field_paths(RESULTS_FIELDS)],
    "config": [*field_paths(CONFIG_FIELDS), *field_paths(HYPER_FIELDS, ("hyper",))],
}


def with_elements(payload, paths):
    """Each path, then the paths of its value's first element while that is a list entry."""
    for path in paths:
        value = get(payload, path)
        while True:
            yield path
            if not (isinstance(value, list) and value and not isinstance(value[0], dict)):
                break
            path, value = (*path, 0), value[0]


def get(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def run(*argv):
    """Exit code and stderr of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One valid file of each kind, every table field present, on a 16-node swarm."""
    d = tmp_path_factory.mktemp("valid")
    files = {kind: d / f"{kind}.json" for kind in PATHS}
    steps = [
        ("gen", "--n", 16, "--seed", 1, "--out", files["topology"]),
        ("damage", "--topology", files["topology"], "--nd", 7, "--seed", 2,
         "--out", files["scenario"]),
        ("pretrain", "--n", 16, "--seed", 3, "--hidden-dim", 4, "--blocks", 1, "--iters", 1,
         "--out", files["model"]),
        ("plan", "--method", "centering", "--topology", files["topology"],
         "--scenario", files["scenario"], "--out", files["plan"]),
        ("experiment", "--n", 20, "--nd", 9, "--trials", 1, "--seed", 5,
         "--out-dir", d / "experiment"),
    ]
    for argv in steps:
        assert run(*argv)[0] == 0
    files["results"] = d / "experiment" / "results.json"
    hyper = Hyperparams()
    files["config"].write_text(json.dumps({
        **DEFAULTS, "n": 16, "hyper": {key: getattr(hyper, key) for key in HYPER_FIELDS}}))
    return files


def command(kind, files, path, out):
    """The command that reads ``path`` as a ``kind`` file, the others valid."""
    inputs = {**files, kind: path}
    return {
        "topology": ["damage", "--topology", path, "--nd", 7, "--seed", 2, "--out", out],
        "scenario": ["plan", "--method", "centering", "--topology", inputs["topology"],
                     "--scenario", path, "--out", out],
        "plan": ["simulate", "--topology", inputs["topology"], "--scenario",
                 inputs["scenario"], "--plan", path, "--out", out],
        "model": ["plan", "--method", "ml-dagl", "--online-iters", 1,
                  "--topology", inputs["topology"], "--scenario", inputs["scenario"],
                  "--model", path, "--out", out],
        "results": ["report", "--results", path, "--out-dir", out],
        "config": ["gen", "--config", path, "--out", out],
    }[kind]


def mutate(payload, path, mutation):
    """Change the field at ``path`` of ``payload`` in place by ``mutation``."""
    parent, field = get(payload, path[:-1]), path[-1]
    value = MUTATIONS[mutation](parent[field])
    if value is DROP:
        del parent[field]
    else:
        parent[field] = value


def test_every_file_kind_has_fields():
    assert all(len(paths) >= 2 for paths in PATHS.values())
    assert ("summary", 0, "R_c") in PATHS["results"]
    assert ("hyper", "hidden_dim") in PATHS["config"]


@pytest.mark.parametrize("kind", sorted(PATHS))
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_one_bad_field_never_tracebacks(valid_files, kind, data):
    payload = json.loads(valid_files[kind].read_text())
    path = data.draw(st.sampled_from(list(with_elements(payload, PATHS[kind]))), label="field")
    mutation = data.draw(st.sampled_from(sorted(MUTATIONS)), label="mutation")
    mutate(payload, path, mutation)
    with tempfile.TemporaryDirectory() as scratch:
        bad = Path(scratch) / f"{kind}.json"
        bad.write_text(json.dumps(payload))
        code, err = run(*command(kind, valid_files, bad, Path(scratch) / "out"))
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: "), err
