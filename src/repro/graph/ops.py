"""Structural graph operations: subgraphs, relabeling, unions, complement.

``edge_subgraph`` is the operation that materialises the paper's output —
the maximal chordal subgraph ``G' = (V, EC)`` — from the chordal edge set
returned by Algorithm 1.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.builder import _best_index_dtype, from_edge_array
from repro.graph.csr import CSRGraph

__all__ = [
    "edge_subgraph",
    "induced_subgraph",
    "relabel",
    "union_edges",
    "complement",
    "degree_histogram",
]


def edge_subgraph(graph: CSRGraph, edges: np.ndarray | Iterable[tuple[int, int]]) -> CSRGraph:
    """Subgraph on the *same vertex set* keeping only ``edges``.

    This matches the paper's definition of a chordal subgraph
    ``G' = (V, EC)`` — all vertices are retained, including isolated ones.
    """
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    sub = from_edge_array(graph.num_vertices, arr)
    # Sanity: every requested edge must exist in the parent graph.
    for u, v in sub.edge_array():
        if not graph.has_edge(int(u), int(v)):
            raise GraphFormatError(f"edge ({u}, {v}) not present in parent graph")
    return sub


def induced_subgraph(graph: CSRGraph, vertices: Iterable[int]) -> tuple[CSRGraph, np.ndarray]:
    """Subgraph induced by ``vertices``, relabelled to ``0..k-1``.

    Returns ``(subgraph, mapping)`` where ``mapping[i]`` is the original id
    of new vertex ``i``.
    """
    keep = np.asarray(sorted(set(int(v) for v in vertices)), dtype=np.int64)
    if keep.size and (keep[0] < 0 or keep[-1] >= graph.num_vertices):
        raise GraphFormatError("vertex ids out of range")
    new_id = np.full(graph.num_vertices, -1, dtype=np.int64)
    new_id[keep] = np.arange(keep.size)
    edges = graph.edge_array()
    if edges.size:
        mask = (new_id[edges[:, 0]] >= 0) & (new_id[edges[:, 1]] >= 0)
        sub_edges = np.column_stack((new_id[edges[mask, 0]], new_id[edges[mask, 1]]))
    else:
        sub_edges = np.empty((0, 2), dtype=np.int64)
    return from_edge_array(keep.size, sub_edges), keep


def relabel(graph: CSRGraph, new_of_old: np.ndarray) -> CSRGraph:
    """Relabel vertices by the permutation ``new_of_old`` (old id -> new id).

    Relabeling is how the paper controls vertex-id order, which Algorithm 1's
    lowest-parent structure is sensitive to (e.g. BFS numbering guarantees a
    connected chordal subgraph, Theorem 2 corollary).
    """
    perm = np.asarray(new_of_old, dtype=np.int64)
    n = graph.num_vertices
    if perm.shape != (n,):
        raise GraphFormatError(f"permutation must have shape ({n},), got {perm.shape}")
    if not np.array_equal(np.sort(perm), np.arange(n)):
        raise GraphFormatError("new_of_old is not a permutation of 0..n-1")
    # edge_array() lists each edge once (u < v), so the permuted arcs
    # need no dedupe: one sort of their scalar keys orders the new CSR.
    edges = graph.edge_array()
    src = perm[edges[:, 0]]
    dst = perm[edges[:, 1]]
    keys = np.concatenate((src * n + dst, dst * n + src))
    keys.sort()
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    indices = (keys % n).astype(_best_index_dtype(n))
    return CSRGraph(indptr, indices, sorted_adjacency=True, validate=False)


def union_edges(graph_a: CSRGraph, graph_b: CSRGraph) -> CSRGraph:
    """Union of the edge sets of two graphs over the same vertex set."""
    if graph_a.num_vertices != graph_b.num_vertices:
        raise GraphFormatError(
            f"vertex-set mismatch: {graph_a.num_vertices} vs {graph_b.num_vertices}"
        )
    edges = np.vstack((graph_a.edge_array(), graph_b.edge_array()))
    return from_edge_array(graph_a.num_vertices, edges)


def complement(graph: CSRGraph) -> CSRGraph:
    """Complement graph (only sensible for small n; used in tests)."""
    n = graph.num_vertices
    if n > 4096:
        raise ValueError(f"complement limited to n <= 4096, got n={n}")
    dense = np.zeros((n, n), dtype=bool)
    edges = graph.edge_array()
    if edges.size:
        dense[edges[:, 0], edges[:, 1]] = True
        dense[edges[:, 1], edges[:, 0]] = True
    comp = ~dense
    np.fill_diagonal(comp, False)
    uu, vv = np.nonzero(np.triu(comp, k=1))
    return from_edge_array(n, np.column_stack((uu, vv)))


def degree_histogram(graph: CSRGraph) -> np.ndarray:
    """Histogram ``h`` with ``h[d]`` = number of vertices of degree ``d``."""
    degs = graph.degrees()
    if degs.size == 0:
        return np.zeros(1, dtype=np.int64)
    return np.bincount(degs.astype(np.int64))
