"""Maximality completion pass (closes the Theorem 2 gap).

The paper's Theorem 2 asserts that a connected output of Algorithm 1 is
maximal, but its proof is incomplete and the claim fails on real inputs:
the subset test ``C[w] ⊆ C[v]`` evaluates *while ``C[v]`` is still
growing*, so an edge can be rejected that would have passed against the
final sets (see ``tests/test_theorem2_gap.py`` for a machine-checked
counterexample).

:func:`maximalize_chordal_edges` greedily re-offers every rejected edge to
the chordal subgraph through the exact addability oracle of
:mod:`repro.chordality.addability` and accepts those that keep the graph
chordal, yielding a certified-maximal chordal subgraph containing the
algorithm's output.  With ``weights`` given, candidates are offered
heaviest-first (the weight-greedy completion the ``weighted`` engine
runs), biasing the closed gap toward maximum retained weight.
"""

from __future__ import annotations

import numpy as np

from repro.chordality.addability import AddabilityOracle
from repro.graph.csr import CSRGraph

__all__ = ["maximalize_chordal_edges"]


def maximalize_chordal_edges(
    graph: CSRGraph,
    chordal_edges: np.ndarray,
    *,
    weights: dict[tuple[int, int], float] | None = None,
) -> tuple[np.ndarray, int]:
    """Greedily extend ``chordal_edges`` to a truly maximal chordal edge set.

    Parameters
    ----------
    graph:
        The original graph ``G``.
    chordal_edges:
        ``(k, 2)`` chordal edge set (must induce a chordal subgraph; this
        is guaranteed for Algorithm 1 output by Theorem 1).
    weights:
        Optional ``{(u, v): weight}`` over ``u < v`` edges of ``graph``
        (see :func:`repro.graph.weights.edge_weight_mapping`).  When
        given, rejected edges are re-offered in descending weight order
        (ties by ``(u, v)``), so the completion prefers heavy edges.
        Candidate order never affects *whether* the result is maximal,
        only *which* maximal superset is reached.

    Returns
    -------
    ``(edges, added)`` — the extended ``(k + added, 2)`` edge array and the
    number of edges the pass added.  ``added`` is the paper's "maximality
    gap" for this input.

    Notes
    -----
    Greedy is safe: after each accepted edge the graph is still chordal,
    and an edge rejected now stays unaddable only *for the current graph*;
    the oracle therefore sweeps until a full pass adds nothing.
    """
    base = np.asarray(chordal_edges, dtype=np.int64).reshape(-1, 2)
    oracle = AddabilityOracle(graph.num_vertices, base)
    candidates = oracle.missing(graph)
    if weights is not None:
        pairs = [tuple(e) for e in candidates.tolist()]
        order = sorted(range(len(pairs)), key=lambda i: (-weights.get(pairs[i], 1.0), i))
        candidates = candidates[np.asarray(order, dtype=np.int64)]
    accepted, _rejected, _rounds = oracle.saturate(candidates)
    if not accepted:
        return base, 0
    return np.vstack((base, candidates[accepted])), len(accepted)
