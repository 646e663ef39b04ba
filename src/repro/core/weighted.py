"""Weighted maximal chordal extraction (Dearing–Shier–Warner, weighted).

The paper's Algorithm 1 maximises nothing — it returns *a* maximal
chordal subgraph.  This module is the quality-directed serial
counterpart: a weighted variant of the MAXCHORD algorithm of Dearing,
Shier & Warner (1988) that biases the retained edge set toward maximum
total edge weight, exposed through the engine registry as
``engine="weighted"`` (see :mod:`repro.core.engines`).

Algorithm
---------
As in :func:`repro.baselines.dearing.dearing_max_chordal`, every
unselected vertex ``w`` carries a label ``L(w)`` — the set of selected
neighbors it may connect to while preserving chordality (``L(w)`` is
always a clique of the current subgraph, so accepting all of ``L(w)``'s
edges keeps the subgraph chordal).  The unweighted pass selects the
vertex with the *largest* label; the weighted pass selects the vertex
whose label has the largest **total edge weight** (chompack's
``maxchord`` is the bucketed form of the same idea), breaking ties by
label cardinality and then by smaller vertex id — so under uniform
positive (or all-zero) weights the selection order, and hence the edge
set, is *identical* to the unweighted baseline (pinned in
``tests/test_weighted_engine.py``).

Weight-directed selection preserves chordality (the label-clique
invariant is selection-order independent) but not the maximality proof
of Dearing et al., which leans on max-cardinality selection.  The pass
therefore finishes with the weight-greedy completion
(:func:`repro.core.maximalize.maximalize_chordal_edges` with heaviest-
first candidates), so the engine's contract is a **certified-maximal**,
weight-greedy chordal subgraph: ``verify_extraction(...,
check_maximal=True)`` passes on the raw engine output.

Portfolio floor
---------------
Greedy weight-directed selection is a heuristic and on some inputs a
*cardinality*-directed extraction followed by weight-greedy completion
retains more weight.  The engine (:func:`weighted_portfolio`) therefore
evaluates a small deterministic portfolio — the weighted pass, the
unweighted MAXCHORD pass, and the paper's Algorithm 1 under both
schedules, each closed by weight-greedy *and* plain completion — and
returns the heaviest candidate.  Because the portfolio contains the
exact edge set the unweighted pipeline (``engine="superstep"``,
``maximalize=True``) produces, the weighted engine retains **at least
as much weight as the unweighted extraction on every input, by
construction** — the invariant ``BENCH_quality.json`` guards.

Weights come from the graph (:func:`repro.graph.weights.
attach_edge_weights`); an unweighted graph runs under uniform weight 1.0
and degenerate weights (zero, negative) are legal preferences — see
:mod:`repro.graph.weights`.

Complexity: ``O(|E| * Δ)`` for the labelled pass (lazy max-heap) plus
the completion's addability sweep over the initially-rejected edges.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.baselines.dearing import dearing_max_chordal
from repro.core.maximalize import maximalize_chordal_edges
from repro.graph.csr import CSRGraph
from repro.graph.weights import edge_weight_mapping, retained_weight

__all__ = ["weighted_max_chordal", "weighted_portfolio"]


def weighted_max_chordal(
    graph: CSRGraph, start: int = 0, *, complete: bool = True
) -> tuple[np.ndarray, list[int]]:
    """Extract a maximal chordal edge set maximising retained weight greedily.

    Parameters
    ----------
    graph:
        Input graph; per-edge weights are read from
        :attr:`CSRGraph.arc_weights` (uniform 1.0 when absent).
    start:
        The initially selected vertex (ties thereafter break toward
        larger label weight, then larger label size, then smaller id —
        fully deterministic).
    complete:
        Run the weight-greedy completion pass, making the output
        certified maximal.  ``False`` returns the raw labelled pass
        (used by tests to exhibit the maximality gap the completion
        closes).

    Returns
    -------
    ``(edges, queue_sizes)`` — the ``(k, 2)`` chordal edge array and a
    single-element ``[n]`` profile (the pass is one serial sweep over
    all ``n`` vertices; there is no per-iteration parallelism to
    profile).
    """
    n = graph.num_vertices
    if n == 0:
        return np.empty((0, 2), dtype=np.int64), []
    if not 0 <= start < n:
        raise ValueError(f"start {start} out of range for n={n}")
    arc_weights = graph.arc_weights

    labels: list[set[int]] = [set() for _ in range(n)]
    label_weight = [0.0] * n
    selected = np.zeros(n, dtype=bool)
    edges: list[tuple[int, int]] = []

    # Lazy max-heap of (-label weight, -|L|, vertex); stale entries are
    # skipped on pop (the stored snapshot no longer matches the live
    # label).  Weight comparisons are exact: both sides accumulate the
    # identical float additions in the identical order.
    heap: list[tuple[float, int, int]] = []

    def push(w: int) -> None:
        heapq.heappush(heap, (-label_weight[w], -len(labels[w]), w))

    def neighbors_with_weights(v: int):
        lo, hi = graph.indptr[v], graph.indptr[v + 1]
        row = graph.indices[lo:hi]
        if arc_weights is None:
            return ((int(w), 1.0) for w in row)
        return zip((int(w) for w in row), arc_weights[lo:hi])

    selected[start] = True
    for w, wt in neighbors_with_weights(start):
        labels[w].add(start)
        label_weight[w] += float(wt)
        push(w)
    for v in range(n):
        if v != start and not labels[v]:
            push(v)  # zero-label vertices must still be selected eventually

    remaining = n - 1
    while remaining:
        neg_weight, neg_size, w_star = heapq.heappop(heap)
        if (
            selected[w_star]
            or -neg_size != len(labels[w_star])
            or -neg_weight != label_weight[w_star]
        ):
            continue  # stale heap entry
        selected[w_star] = True
        remaining -= 1
        lbl = labels[w_star]
        for u in sorted(lbl):
            edges.append((u, w_star))
        for w, wt in neighbors_with_weights(w_star):
            if selected[w]:
                continue
            if labels[w] <= lbl:
                labels[w].add(w_star)
                label_weight[w] += float(wt)
                push(w)

    edge_array = (
        np.asarray(edges, dtype=np.int64)
        if edges
        else np.empty((0, 2), dtype=np.int64)
    )
    if complete:
        edge_array, _gap = maximalize_chordal_edges(
            graph, edge_array, weights=edge_weight_mapping(graph)
        )
    return edge_array, [n]


def weighted_portfolio(graph: CSRGraph) -> tuple[np.ndarray, list[int]]:
    """Best-of extraction over the deterministic candidate portfolio.

    Candidates, in tie-breaking order (the first heaviest wins):

    1. the weighted MAXCHORD pass (weight-greedily completed);
    2. the unweighted MAXCHORD pass, weight-greedily completed;
    3. Algorithm 1 (``superstep``) under the synchronous then the
       asynchronous schedule, each closed by *plain* completion (the
       exact unweighted-pipeline edge set — the portfolio's floor) and
       by weight-greedy completion.

    Every candidate is maximal and deterministic, so the winner is too.
    Returns ``(edges, [n])`` like :func:`weighted_max_chordal`.  On an
    unweighted graph weight is edge count, so this degenerates to
    "most retained edges" with the MAXCHORD pass winning ties.
    """
    if graph.num_vertices == 0:
        return np.empty((0, 2), dtype=np.int64), []
    # Deferred to dodge the engines -> weighted -> engines import cycle.
    from repro.core.config import ExtractionConfig
    from repro.core.engines import get_engine

    weight_map = edge_weight_mapping(graph)
    candidates: list[np.ndarray] = []
    edges, _profile = weighted_max_chordal(graph)
    candidates.append(edges)
    base = np.asarray(dearing_max_chordal(graph), dtype=np.int64).reshape(-1, 2)
    edges, _gap = maximalize_chordal_edges(graph, base, weights=weight_map)
    candidates.append(edges)
    superstep = get_engine("superstep")
    for schedule in ("synchronous", "asynchronous"):
        cfg = ExtractionConfig(engine="superstep", schedule=schedule)
        raw, _queues, _trace = superstep.run(graph, cfg, None)
        raw = np.asarray(raw, dtype=np.int64).reshape(-1, 2)
        plain, _gap = maximalize_chordal_edges(graph, raw)
        candidates.append(plain)
        heavy, _gap = maximalize_chordal_edges(graph, raw, weights=weight_map)
        candidates.append(heavy)
    best = max(candidates, key=lambda e: retained_weight(graph, e))
    return best, [graph.num_vertices]
