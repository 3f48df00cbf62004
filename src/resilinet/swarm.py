"""Swarm geometry, adjacency, hop distances, and connectivity statistics.

Positions are (n, 2) float arrays in meters.  Links follow the disk model:
two nodes are connected when their distance is at most the communication
range, boundary inclusive.  Adjacency matrices are dense boolean (n, n)
arrays with zero diagonal; hop matrices are float arrays with ``inf``
marking unreachable pairs.
"""
from __future__ import annotations

import csv
import json
import math
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

TOPOLOGY_VERSION = 1
TOPOLOGY_FIELDS = {"positions": "list of number pairs", "n": "integer", "d_tr_m": "number",
                   "side_m": "number"}


class GenerationError(RuntimeError):
    """No connected swarm was found within the resample budget."""


@dataclass(frozen=True)
class SwarmTopology:
    """Node positions plus the disk-model parameters implying the links.

    ``side`` is the edge length of the square deployment area in meters;
    generated topologies are always connected under ``comm_range``.
    """

    positions: np.ndarray
    comm_range: float
    side: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 2:
            raise ValueError("positions must be an (n, 2) array with n >= 2")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        # A finite sum of magnitudes bounds every sub-swarm's centroid.
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(np.abs(pos).sum(axis=0))):
                raise ValueError("positions are too large: their centroid would overflow")
            # The bounding box's squared diagonal, in _pairwise_sq_distances'
            # elementwise form, bounds every pair's squared distance.
            dx, dy = np.ptp(pos, axis=0)
            if not math.isfinite(dx * dx + dy * dy):
                raise ValueError("positions are too far apart: their squared distances "
                                 "would overflow")
        if not 0 < self.comm_range < math.inf:
            raise ValueError("comm_range (topology file field 'd_tr_m') must be positive "
                             "and finite")
        if not (math.isfinite(self.side) and self.side > 0):
            raise ValueError("side (topology file field 'side_m') must be finite and positive")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "_adjacency", build_adjacency(pos, self.comm_range))
        self._adjacency.flags.writeable = False

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def adjacency(self) -> np.ndarray:
        """The disk-model graph of ``positions``, built once; the array is read-only."""
        return self._adjacency


@dataclass(frozen=True)
class DegreeStats:
    """Per-node degrees and their mean/max; ``degree_cdf`` gives the distribution."""

    mean: float
    max_degree: int
    degrees: np.ndarray


def build_adjacency(positions: np.ndarray, comm_range: float) -> np.ndarray:
    """Disk-model adjacency: a_ij = 1 iff i != j and ||p_i - p_j|| <= comm_range.

    The comparison is on squared distances, so the boundary case
    ||p_i - p_j|| == comm_range counts as connected.
    """
    if not comm_range > 0:
        raise ValueError("comm_range must be positive")
    adj = _pairwise_sq_distances(positions) <= comm_range * comm_range
    np.fill_diagonal(adj, False)
    return adj


def _pairwise_sq_distances(positions: np.ndarray) -> np.ndarray:
    """(n, n) squared distances, dx*dx + dy*dy, without an (n, n, 2) tensor."""
    pos = np.asarray(positions, dtype=float)
    dist_sq = np.subtract.outer(pos[:, 0], pos[:, 0])
    np.multiply(dist_sq, dist_sq, out=dist_sq)
    dy = np.subtract.outer(pos[:, 1], pos[:, 1])
    np.multiply(dy, dy, out=dy)
    dist_sq += dy
    return dist_sq


def _pairs_in_range(positions: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                    comm_range: float) -> np.ndarray:
    """Link test of the pairs (rows[k], cols[k]), bit for bit ``build_adjacency``'s.

    The squared distance is the same elementwise dx*dx + dy*dy as
    ``_pairwise_sq_distances`` computes, so a pair is linked here exactly
    when its adjacency entry is set.  ``positions`` has shape (..., m, 2),
    so one call tests the pairs in one frame (m, 2) or in a stack of frames,
    and the result has shape (..., len(rows)).
    """
    pos = np.asarray(positions, dtype=float)
    dist_sq = pos[..., rows, 0] - pos[..., cols, 0]
    np.multiply(dist_sq, dist_sq, out=dist_sq)
    dy = pos[..., rows, 1] - pos[..., cols, 1]
    np.multiply(dy, dy, out=dy)
    dist_sq += dy
    return dist_sq <= comm_range * comm_range


def check_swarm_params(n: int, density_per_km2: float, comm_range: float) -> float:
    """The deployment side in meters; a ValueError names the first parameter out of domain."""
    if n < 2:
        raise ValueError("n must be at least 2")
    # n / density must be finite too, or the side of the area overflows.
    if not (0 < density_per_km2 < math.inf and math.isfinite(n / density_per_km2)):
        raise ValueError("density_per_km2 must be finite and positive")
    if not 0 < comm_range < math.inf:
        raise ValueError("comm_range must be positive and finite")
    return 1000.0 * math.sqrt(n / density_per_km2)


def generate_swarm(n: int, density_per_km2: float, comm_range: float,
                   seed: int, max_attempts: int = 1000) -> SwarmTopology:
    """Sample a connected swarm of n nodes uniformly on a square area.

    The side length follows from the density: side = 1000 * sqrt(n / density)
    meters.  Draws are resampled until the disk-model graph is connected;
    raises GenerationError once the attempt budget is spent, which signals
    an infeasible (n, density, comm_range) combination rather than looping
    forever.  Deterministic for a fixed seed.
    """
    side = check_swarm_params(n, density_per_km2, comm_range)
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        topology = SwarmTopology(rng.uniform(0.0, side, size=(n, 2)), comm_range, side)
        if count_subnets(topology.adjacency()) == 1:
            return topology
    raise GenerationError(
        f"no connected swarm with n={n}, density={density_per_km2}/km^2, "
        f"comm_range={comm_range} m in {max_attempts} attempts"
    )


def _csr_graph(adj: np.ndarray) -> csr_matrix:
    """CSR form of a dense adjacency, built directly from its nonzero pattern.

    Row-major order gives each row's column indices already sorted.  The
    data are float64 ones, the dtype the csgraph routines work in, so they
    copy nothing.
    """
    a = np.asarray(adj, dtype=bool)
    n = a.shape[0]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(a.sum(axis=1), out=indptr[1:])
    indices = (np.flatnonzero(a) % n).astype(np.int32)
    return csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))


def hop_distances(adj: np.ndarray) -> np.ndarray:
    """All-pairs minimum hop counts; unreachable pairs are ``inf``."""
    return shortest_path(_csr_graph(adj), method="D", directed=False, unweighted=True)


def component_labels(adj: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of an undirected adjacency: (count, labels)."""
    count, labels = connected_components(_csr_graph(adj), directed=False)
    return int(count), labels


def count_subnets(adj: np.ndarray) -> int:
    """Number of connected components (sub-nets) of the graph."""
    return component_labels(adj)[0]


def degree_stats(adj: np.ndarray) -> DegreeStats:
    """Degree summary of a graph."""
    deg = np.asarray(adj).sum(axis=1).astype(int)
    return DegreeStats(mean=float(deg.mean()), max_degree=int(deg.max(initial=0)), degrees=deg)


def degree_cdf(degrees: np.ndarray) -> np.ndarray:
    """Fraction of nodes with degree <= d, for d = 0..max degree (empty for no nodes)."""
    deg = np.asarray(degrees, dtype=int)
    return np.cumsum(np.bincount(deg)) / deg.size


def diameter_from_hops(hops: np.ndarray) -> int:
    """Largest entry of a hop matrix; raises ValueError if a pair is unreachable."""
    if np.isinf(hops).any():
        raise ValueError("graph is disconnected; hop diameter undefined")
    return int(hops.max())


def diameter_hops(adj: np.ndarray) -> int:
    """Maximum finite hop distance; raises ValueError on disconnected graphs."""
    return diameter_from_hops(hop_distances(adj))


def save_topology(path: str | Path, topology: SwarmTopology) -> None:
    """Write a topology JSON file (positions at 1e-6 m precision, index order)."""
    write_payload(path, {
        "version": TOPOLOGY_VERSION,
        "n": topology.n,
        "d_tr_m": float(topology.comm_range),
        "side_m": float(topology.side),
        "positions": [[round(float(x), 6), round(float(y), 6)] for x, y in topology.positions],
    })


def write_payload(path: str | Path, payload: dict) -> None:
    """Write a JSON file: sorted keys, two-space indent, trailing newline.

    A NaN or infinite value raises ValueError: standard JSON has no such number.
    """
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _csv_cell(value):
    if type(value) in (int, str):  # most cells; skips the checks below
        return value
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


def write_csv(path: str | Path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write a CSV file under one cell rule for every column.

    None is an empty cell, a bool is 0 or 1, a Python or NumPy float is
    ``repr(float(v))``, and anything else is written as ``csv`` writes it.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(map(_csv_cell, row) for row in rows)


# Parsed JSON values have exact types, so a bool (an int subclass) is never a number.
def _is(json_type):
    return lambda value: type(value) is json_type


def _list_of(element, size=None):
    return lambda value: (type(value) is list and size in (None, len(value))
                          and all(map(element, value)))


def _within(types, limit, finite=False):
    # JSON integers are unbounded; one beyond ``limit`` overflows its numpy
    # dtype.  A finite number is within ``limit`` too, so not NaN or infinite.
    return lambda value: type(value) in types and (
        (type(value) is float and not finite) or abs(value) <= limit)


# A number fits a float64 and an integer an int64.
_NUMBER = _within((int, float), sys.float_info.max)
_FINITE = _within((int, float), sys.float_info.max, finite=True)
_INTEGER = _within((int,), np.iinfo(np.int64).max)
_FINITE_PAIRS = _list_of(_list_of(_FINITE, 2))
# Each JSON type name maps to the test a parsed value must pass.
_JSON_TYPES = {
    "object": _is(dict), "list": _is(list), "string": _is(str),
    "integer": _INTEGER, "number": _NUMBER,
    "positive integer": lambda value: _INTEGER(value) and value > 0,
    "positive integer or null": lambda value: value is None or _INTEGER(value) and value > 0,
    "finite non-negative number": lambda value: _FINITE(value) and value >= 0,
    "finite number or null": lambda value: value is None or _FINITE(value),
    "list of integers": _list_of(_INTEGER),
    "list of strings": _list_of(_is(str)),
    "list of integer pairs": _list_of(_list_of(_INTEGER, 2)),
    "list of number pairs": _list_of(_list_of(_NUMBER, 2)),
    "non-empty list of finite number pairs": lambda value: value != [] and _FINITE_PAIRS(value),
}


def require_fields(payload: object, kind: str, fields: Mapping) -> None:
    """Raise ValueError naming ``kind`` and the first field missing or mistyped.

    ``fields`` maps each required field to its JSON type, a key of
    ``_JSON_TYPES``; to the tuple of values the field may hold; or to
    ``[table]``, a list whose entries are objects with ``table``'s fields.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{kind} must be a JSON object")
    for field, json_type in fields.items():
        if field not in payload:
            raise ValueError(f"{kind} lacks required field {field!r}")
        value = payload[field]
        if isinstance(json_type, list):
            require_fields(payload, kind, {field: "list"})
            for i, entry in enumerate(value):
                require_fields(entry, f"{kind} field {field!r} entry {i}", json_type[0])
        elif isinstance(json_type, tuple):
            if value not in json_type:
                raise ValueError(f"{kind} field {field!r} must be one of "
                                 f"{', '.join(map(repr, json_type))}")
        elif not _JSON_TYPES[json_type](value):
            raise ValueError(f"{kind} field {field!r} must be a JSON {json_type}")


def require_known_fields(payload: object, kind: str, fields: Mapping) -> None:
    """``require_fields`` for an object whose ``fields`` are optional and its only keys."""
    require_fields(payload, kind, {})
    unknown = sorted(payload.keys() - fields.keys())
    if unknown:
        raise ValueError(f"{kind} has unknown field {unknown[0]!r} "
                         f"(known: {', '.join(sorted(fields))})")
    require_fields(payload, kind, {key: fields[key] for key in payload})


def read_json(path: str | Path, kind: str) -> object:
    """Parsed content of a ``kind`` JSON file; bad JSON names the kind and the path."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{kind} file {path} is not valid JSON: {exc}") from exc


def read_payload(path: str | Path, kind: str, version: int, fields: Mapping) -> dict:
    """JSON object of a ``kind`` file with the given version and typed fields."""
    payload = read_json(path, kind)
    require_fields(payload, f"{kind} file", {"version": "number"})
    if payload["version"] != version:
        raise ValueError(f"unsupported {kind} file version: {payload['version']!r}")
    require_fields(payload, f"{kind} file", fields)
    return payload


def load_topology(path: str | Path) -> SwarmTopology:
    payload = read_payload(path, "topology", TOPOLOGY_VERSION, TOPOLOGY_FIELDS)
    positions = np.asarray(payload["positions"], dtype=float)
    if positions.shape[0] != payload["n"]:
        raise ValueError("topology file is inconsistent: n does not match positions")
    return SwarmTopology(positions=positions, comm_range=float(payload["d_tr_m"]),
                         side=float(payload["side_m"]))
