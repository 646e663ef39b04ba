"""Breadth-first search kernels.

BFS plays three roles in the reproduction:

1. *Vertex renumbering* — the paper notes (end of Section III) that
   numbering vertices in BFS order guarantees Algorithm 1 returns a
   *connected* chordal subgraph on connected inputs, which is the hypothesis
   of the maximality theorem.  :func:`bfs_renumber` implements that.
2. *Connected components* — for the component-stitching corollary and for
   analysis.
3. *Shortest-path distributions* — Figure 3 of the paper.

The frontier loop is vectorised: each level expands all frontier vertices'
adjacency slices at once via ``indptr`` gather + ``np.repeat``/``arange``,
which keeps the per-level Python overhead constant (guide: push loops into
NumPy).  Renumbering and component labelling share one BFS forest over a
single ``seen`` array: no per-component length-n allocation, isolated
vertices placed in bulk, and one Python loop turn per non-trivial
component, so both cost O(n + m) plus the per-level sorts.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["bfs_levels", "bfs_order", "connected_components", "bfs_renumber"]


def _expand_frontier(graph: CSRGraph, frontier: np.ndarray) -> np.ndarray:
    """All neighbors of all frontier vertices (with duplicates)."""
    starts = graph.indptr[frontier]
    lengths = graph.indptr[frontier + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=graph.indices.dtype)
    # Output slot k of frontier entry j reads indices[starts[j] + k - first[j]],
    # first[j] being j's first output slot.
    first = np.cumsum(lengths) - lengths
    return graph.indices[np.arange(total) + np.repeat(starts - first, lengths)]


def _check_source(graph: CSRGraph, source: int) -> None:
    n = graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for n={n}")


def _levels_from(graph: CSRGraph, seed: int, seen: np.ndarray) -> list[np.ndarray]:
    """Level-synchronous BFS from ``seed`` over the vertices not yet ``seen``.

    Marks every vertex it reaches in ``seen`` and returns the levels in
    order, each sorted by id.
    """
    seen[seed] = True
    frontier = np.asarray([seed], dtype=np.int64)
    levels = []
    while frontier.size:
        levels.append(frontier)
        nbrs = _expand_frontier(graph, frontier)
        frontier = np.unique(nbrs[~seen[nbrs]])
        seen[frontier] = True
    return levels


def _next_unseen(cands: np.ndarray, seen: np.ndarray, i: int) -> int:
    """Index of the first ``cands[j]`` (``j >= i``) not yet seen, else
    ``cands.size``.  Probes doubling windows, so finding every seed of a
    forest costs O(n) plus one 64-wide probe per component."""
    width = 64
    while i < cands.size:
        hit = np.flatnonzero(~seen[cands[i:i + width]])
        if hit.size:
            return i + int(hit[0])
        i += width
        width *= 2
    return int(cands.size)


def _bfs_forest(graph: CSRGraph, source: int) -> tuple[np.ndarray, np.ndarray]:
    """Every vertex in BFS-forest order, with the component boundaries.

    Returns ``(order, starts)``: component ``c`` is
    ``order[starts[c]:starts[c + 1]]``.  The source's component comes
    first, then the others in order of smallest id; each is ordered by
    BFS level from its first vertex (``source``, else its smallest id)
    and by id within a level.  One ``seen`` array is shared by all the
    searches, and isolated vertices are placed in bulk.
    """
    n = graph.num_vertices
    seen = graph.degrees() == 0
    isolated = np.flatnonzero(seen)
    cands = np.flatnonzero(~seen)
    pieces: list[np.ndarray] = []
    keys: list[np.ndarray] = []
    seed = source if not seen[source] else -1
    i = 0
    while True:
        if seed < 0:
            i = _next_unseen(cands, seen, i)
            if i == cands.size:
                break
            seed = int(cands[i])
        comp = np.concatenate(_levels_from(graph, seed, seen))
        pieces.append(comp)
        keys.append(np.full(comp.size, -1 if seed == source else seed))
        seed = -1
    # An isolated vertex is its own component, keyed by its id.  Later
    # components were found in order of smallest id, so a stable sort by
    # key (-1 for the source's) interleaves the two sorted runs.
    iso_keys = np.where(isolated == source, -1, isolated)
    key = np.concatenate(keys + [iso_keys])
    perm = np.argsort(key, kind="stable")
    order = np.concatenate(pieces + [isolated])[perm]
    key = key[perm]
    starts = np.concatenate(([0], np.flatnonzero(key[1:] != key[:-1]) + 1, [n]))
    return order, starts


def bfs_levels(graph: CSRGraph, source: int) -> np.ndarray:
    """BFS level (hop distance) of every vertex from ``source``.

    Unreachable vertices get level ``-1``.
    """
    _check_source(graph, source)
    n = graph.num_vertices
    levels = np.full(n, -1, dtype=np.int64)
    for depth, frontier in enumerate(_levels_from(graph, source, np.zeros(n, bool))):
        levels[frontier] = depth
    return levels


def bfs_order(graph: CSRGraph, source: int) -> np.ndarray:
    """Vertices reachable from ``source`` in BFS visitation order.

    Within a level, vertices appear in increasing id order (deterministic).
    """
    _check_source(graph, source)
    seen = np.zeros(graph.num_vertices, dtype=bool)
    return np.concatenate(_levels_from(graph, source, seen))


def connected_components(graph: CSRGraph) -> tuple[int, np.ndarray]:
    """Label connected components.

    Returns ``(num_components, labels)`` where ``labels[v]`` is the
    component id of ``v``; components are numbered by their smallest vertex
    id in increasing order (so component 0 contains vertex 0).
    """
    n = graph.num_vertices
    labels = np.empty(n, dtype=np.int64)
    if n == 0:
        return 0, labels
    order, starts = _bfs_forest(graph, 0)
    count = starts.size - 1
    labels[order] = np.repeat(np.arange(count), np.diff(starts))
    return count, labels


def bfs_renumber(graph: CSRGraph, source: int = 0) -> tuple[CSRGraph, np.ndarray]:
    """Relabel vertices in BFS order from ``source``.

    Vertices of later components (if any) are appended in id order after the
    source's component, each component itself BFS-ordered.  Returns
    ``(renumbered_graph, new_of_old)``.

    The paper: "if the original graph G is itself connected then numbering
    the vertices in the order they appear in a breadth first search will
    ensure that at the end of Algorithm 1, EC will produce a connected
    subgraph."
    """
    from repro.graph.ops import relabel  # local import avoids cycle

    n = graph.num_vertices
    if n == 0:
        return graph, np.empty(0, dtype=np.int64)
    _check_source(graph, source)
    order, _ = _bfs_forest(graph, source)
    new_of_old = np.empty(n, dtype=np.int64)
    new_of_old[order] = np.arange(n)
    return relabel(graph, new_of_old), new_of_old
