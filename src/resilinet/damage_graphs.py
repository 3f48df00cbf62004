"""Bipartite damage-attention graphs with multi-hop dilation.

Each branch k dilates the input graph's links to hop distance <= k and then
keeps only remaining-to-destroyed links, producing a bipartite graph stored
as an (n_remaining, n_destroyed) biadjacency.  The sequence of branches for
k = 1..K, plus the block-diagonal batch the convolution network consumes,
comes out of the input graph's one hop matrix (hop thresholding, not
repeated matrix powers).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .damage import InputGraph
from .swarm import _csr_graph, count_subnets


@dataclass(frozen=True)
class BipartiteDamageGraph:
    """One dilation branch: remaining-to-destroyed links within ``hop_limit`` hops."""

    hop_limit: int
    biadjacency: np.ndarray

    @property
    def nnz(self) -> int:
        """Nonzeros of the full symmetric adjacency (twice the biadjacency's)."""
        return 2 * int(self.biadjacency.sum())

    def full_adjacency(self) -> np.ndarray:
        """Materialize the full (n, n) adjacency [[0, B], [B^T, 0]]."""
        n_r, n_d = self.biadjacency.shape
        full = np.zeros((n_r + n_d, n_r + n_d), dtype=bool)
        full[:n_r, n_r:] = self.biadjacency
        full[n_r:, :n_r] = self.biadjacency.T
        return full

    def is_connected(self) -> bool:
        """True iff the bipartite graph on all n_r + n_d nodes is one component."""
        return count_subnets(self.full_adjacency()) == 1


@dataclass(frozen=True)
class DamageGraphSequence:
    """Branches k = 1..K plus their block-diagonal batch structures.

    ``batch_adjacency`` is the (KN, KN) sparse block diagonal of the full
    per-branch adjacencies; ``batch_features`` stacks the input features
    K times to match.
    """

    graphs: tuple[BipartiteDamageGraph, ...]
    batch_adjacency: sparse.csr_matrix
    batch_features: np.ndarray
    n_remaining: int
    n_destroyed: int

    @property
    def branches(self) -> int:
        return len(self.graphs)

    @property
    def n(self) -> int:
        return self.n_remaining + self.n_destroyed


@dataclass(frozen=True)
class SparsityReport:
    """Structural nonzero accounting for the batch convolution kernel."""

    nnz_per_branch: tuple[int, ...]
    kernel_nnz: int
    density: float
    density_bound: float


def dilate_adjacency(hops: np.ndarray, hop_limit: int) -> np.ndarray:
    """k-hop dilation: link i, j iff 0 < hops_ij <= hop_limit.

    Unreachable pairs (inf) are never linked; the diagonal stays zero.
    """
    if hop_limit < 1:
        raise ValueError("hop_limit must be at least 1")
    h = np.asarray(hops)
    return (h > 0) & (h <= hop_limit)


def bipartite_damage_graph(dilated: np.ndarray, n_remaining: int, n_destroyed: int,
                           hop_limit: int) -> BipartiteDamageGraph:
    """Mask a dilated adjacency to its remaining/destroyed cross block.

    Equivalent to the element-wise product with the mask that keeps only
    remaining-to-destroyed links, followed by extraction of the upper-right
    biadjacency block.
    """
    dil = np.asarray(dilated, dtype=bool)
    if dil.shape != (n_remaining + n_destroyed,) * 2:
        raise ValueError("dilated adjacency shape does not match n_remaining + n_destroyed")
    biadjacency = dil[:n_remaining, n_remaining:].copy()
    return BipartiteDamageGraph(hop_limit=hop_limit, biadjacency=biadjacency)


def choose_branch_count(hop_diameter: int, cap: int = 12) -> int:
    """Number of dilation branches: floor((hop_diameter + 1) / 2), capped.

    The cap bounds the memory of the (KN, KN) batch, which grows linearly
    in the branch count.
    """
    return min((hop_diameter + 1) // 2, cap)


def build_graph_sequence(input_graph: InputGraph, branches: int) -> DamageGraphSequence:
    """Build branches k = 1..K from the input graph's hop matrix, plus the batch."""
    if branches < 1:
        raise ValueError("branches must be at least 1")
    n_r, n_d = input_graph.n_remaining, input_graph.n_destroyed
    graphs = tuple(
        bipartite_damage_graph(dilate_adjacency(input_graph.hops, k), n_r, n_d, k)
        for k in range(1, branches + 1)
    )
    blocks = [_csr_graph(g.full_adjacency()) for g in graphs]
    batch_adjacency = sparse.block_diag(blocks, format="csr")
    batch_features = np.tile(input_graph.features, (branches, 1))
    return DamageGraphSequence(
        graphs=graphs,
        batch_adjacency=batch_adjacency,
        batch_features=batch_features,
        n_remaining=n_r,
        n_destroyed=n_d,
    )


def sparsity_report(seq: DamageGraphSequence) -> SparsityReport:
    """Report structural nonzeros of the batch kernel against its bound.

    The kernel I - L/n has every diagonal entry structurally nonzero plus
    the adjacency pattern, so its count is sum(nnz per branch) plus KN.  A
    branch links at most n_r * n_d <= n**2 / 4 pairs, so its nnz is at most
    n**2 / 2, and the density can never exceed 1/(2K) + 1/(KN).
    """
    k = seq.branches
    n_total = k * seq.n
    nnz_per_branch = tuple(g.nnz for g in seq.graphs)
    kernel_nnz = sum(nnz_per_branch) + n_total
    return SparsityReport(
        nnz_per_branch=nnz_per_branch,
        kernel_nnz=kernel_nnz,
        density=kernel_nnz / float(n_total * n_total),
        density_bound=1.0 / (2 * k) + 1.0 / n_total,
    )
