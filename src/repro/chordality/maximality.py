"""Maximality validation for extracted chordal subgraphs (Theorem 2).

A chordal subgraph ``G' = (V, EC)`` of ``G = (V, E)`` is *maximal* when
adding any edge of ``E \\ EC`` to ``EC`` destroys chordality.

Fast addability criterion
-------------------------
For a chordal graph ``H`` and a non-edge ``(u, v)``, ``H + uv`` is chordal
iff ``H`` contains **no induced u–v path with two or more internal
vertices** (any chordless cycle of ``H + uv`` must use the new edge, and
the rest of such a cycle is exactly such a path).  That in turn holds iff
``u`` and ``v`` lie in *different components* of ``H - (N(u) ∩ N(v))``:

* if a path survives the removal of the common neighbors, the shortest
  surviving path is induced and has length >= 3 (a length-2 path would go
  through a removed common neighbor), so ``uv`` is not addable;
* conversely, every induced u–v path through a common neighbor ``c`` is
  forced to be exactly ``u-c-v`` (the chords ``uc``, ``cv`` would shortcut
  anything longer), so if removal of common neighbors disconnects them no
  long induced path exists and ``uv`` is addable.

This turns each addability test into at most one early-exit BFS instead of
a full chordality re-check; :mod:`repro.chordality.addability` implements
it once for every caller, and the test suite cross-validates it against
the rebuild-and-recognise oracle :func:`addable_edges_slow`.

Reproduction note (paper erratum)
---------------------------------
The paper's Theorem 2 claims connectivity of ``EC`` implies maximality;
its proof ends by exhibiting a cycle of length > 3 through the added edge
and declaring chordality destroyed — but that cycle can be *chorded*.
Algorithm 1's output is indeed occasionally non-maximal (a concrete
counterexample lives in ``tests/test_theorem2_gap.py``); the library
provides :func:`repro.core.maximalize.maximalize_chordal_edges` to close
the gap, and the experiment ``maximality_gap`` quantifies how small it is
in practice.
"""

from __future__ import annotations

import numpy as np

from repro.chordality.addability import AddabilityOracle, linked_avoiding
from repro.chordality.recognition import is_chordal
from repro.chordality.verify import verify_extraction
from repro.errors import GraphFormatError
from repro.graph.builder import from_edge_array
from repro.graph.csr import CSRGraph

__all__ = [
    "edge_addable",
    "addable_edges",
    "addable_edges_slow",
    "missing_edges",
    "is_maximal_chordal_subgraph",
    "assert_valid_extraction",
]


def edge_addable(adj: list[set[int]], u: int, v: int) -> bool:
    """Can ``(u, v)`` be added to the chordal graph ``adj`` keeping it chordal?

    ``adj`` is an adjacency-set list of a **chordal** graph; ``(u, v)``
    must currently be a non-edge.  Implements the component criterion from
    the module docstring with a bidirectional BFS between ``u`` and ``v``
    avoiding ``N(u) ∩ N(v)``.  Callers testing many edges against one
    graph should hold an :class:`~repro.chordality.addability.AddabilityOracle`,
    which decides most of them without a BFS.
    """
    if v in adj[u]:
        raise ValueError(f"({u}, {v}) is already an edge")
    return not linked_avoiding(adj, u, v, adj[u] & adj[v])


def missing_edges(graph: CSRGraph, subgraph: CSRGraph) -> list[tuple[int, int]]:
    """Edges of ``graph`` absent from ``subgraph``, in ``(u, v)``
    lexicographic order with ``u < v``.

    This is the independent candidate order of the reference
    :func:`addable_edges_slow`.  Every other scan (:func:`addable_edges`,
    :func:`~repro.chordality.verify.verify_extraction`, the completion
    pass in :mod:`repro.core.maximalize`) iterates
    :meth:`AddabilityOracle.missing
    <repro.chordality.addability.AddabilityOracle.missing>`, which must
    produce the same sequence: a fixed one, so a report that stops after
    a few hits names the same counterexample edges on every run.
    """
    return sorted(graph.edge_set() - subgraph.edge_set())


def addable_edges(
    graph: CSRGraph,
    subgraph: CSRGraph,
    *,
    limit: int | None = None,
) -> list[tuple[int, int]]:
    """Edges of ``graph`` absent from ``subgraph`` whose addition keeps the
    subgraph chordal.

    For a *maximal* chordal subgraph this list is empty.  ``limit`` stops
    the scan after the given number of hits (fail-fast in property tests).
    ``subgraph`` must be chordal (checked).
    """
    if graph.num_vertices != subgraph.num_vertices:
        raise GraphFormatError(
            f"vertex sets differ: {graph.num_vertices} vs {subgraph.num_vertices}"
        )
    if not is_chordal(subgraph):
        raise ValueError("subgraph must be chordal to test edge addability")
    return AddabilityOracle(graph.num_vertices, subgraph.edge_array()).scan(graph, limit)


def addable_edges_slow(
    graph: CSRGraph, subgraph: CSRGraph, *, limit: int | None = None
) -> list[tuple[int, int]]:
    """Oracle version of :func:`addable_edges`: rebuild + full chordality
    recognition per candidate.  Kept for cross-validation in tests."""
    if graph.num_vertices != subgraph.num_vertices:
        raise GraphFormatError(
            f"vertex sets differ: {graph.num_vertices} vs {subgraph.num_vertices}"
        )
    base_edges = subgraph.edge_array()
    found: list[tuple[int, int]] = []
    for u, v in missing_edges(graph, subgraph):
        candidate = np.vstack((base_edges, np.asarray([[u, v]], dtype=np.int64)))
        if is_chordal(from_edge_array(graph.num_vertices, candidate)):
            found.append((u, v))
            if limit is not None and len(found) >= limit:
                break
    return found


def is_maximal_chordal_subgraph(graph: CSRGraph, subgraph: CSRGraph) -> bool:
    """True iff ``subgraph`` is chordal, is a subgraph of ``graph``, and no
    edge of ``graph`` can be added without breaking chordality."""
    if graph.num_vertices != subgraph.num_vertices:
        return False
    if not subgraph.edge_set() <= graph.edge_set():
        return False
    if not is_chordal(subgraph):
        return False
    return not AddabilityOracle(graph.num_vertices, subgraph.edge_array()).scan(graph, 1)


def assert_valid_extraction(
    graph: CSRGraph, subgraph: CSRGraph, *, check_maximal: bool = True
) -> None:
    """Raise ``AssertionError`` with a specific diagnosis if ``subgraph`` is
    not a (maximal, when requested) chordal subgraph of ``graph``.

    Used by integration tests and the examples' ``--verify`` mode.
    """
    if graph.num_vertices != subgraph.num_vertices:
        raise AssertionError(
            f"vertex count mismatch: {graph.num_vertices} != {subgraph.num_vertices}"
        )
    verify_extraction(graph, subgraph, check_maximal=check_maximal).raise_if_invalid()
