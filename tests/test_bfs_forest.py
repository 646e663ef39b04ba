"""Pins of the shared-``seen`` BFS forest against the per-component code
it replaced.

:func:`repro.graph.bfs.bfs_renumber` and
:func:`~repro.graph.bfs.connected_components` walk every component in
one BFS forest, and :func:`repro.graph.ops.relabel` sorts permuted arc
keys straight into a CSR.  The ``_old_*`` functions below are the
earlier implementations — a BFS from every unlabelled seed and a
relabel through ``from_edge_array`` — kept here as the specification:
the new code must return identical ``new_of_old`` permutations,
component labels and CSR arrays (dtype included).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.bfs import bfs_levels, bfs_order, bfs_renumber, connected_components
from repro.graph.builder import build_graph, from_edge_array
from repro.graph.generators.classic import disjoint_cliques, path_graph, star_graph
from repro.graph.generators.rmat import rmat_b, rmat_er, rmat_g
from repro.graph.ops import relabel


def _old_bfs_levels(graph, source):
    n = graph.num_vertices
    levels = np.full(n, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        nbrs = np.concatenate(
            [graph.indices[graph.indptr[v]:graph.indptr[v + 1]] for v in frontier]
        )
        if nbrs.size == 0:
            break
        nbrs = np.unique(nbrs)
        new = nbrs[levels[nbrs] < 0]
        if new.size == 0:
            break
        levels[new] = depth
        frontier = new
    return levels


def _old_bfs_order(graph, source):
    levels = _old_bfs_levels(graph, source)
    reached = np.flatnonzero(levels >= 0)
    return reached[np.argsort(levels[reached], kind="stable")]


def _old_connected_components(graph):
    n = graph.num_vertices
    labels = np.full(n, -1, dtype=np.int64)
    comp = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        members = np.flatnonzero(_old_bfs_levels(graph, start) >= 0)
        labels[members[labels[members] < 0]] = comp
        comp += 1
    return comp, labels


def _old_relabel(graph, new_of_old):
    perm = np.asarray(new_of_old, dtype=np.int64)
    edges = graph.edge_array()
    if edges.size:
        edges = np.column_stack((perm[edges[:, 0]], perm[edges[:, 1]]))
    return from_edge_array(graph.num_vertices, edges)


def _old_bfs_renumber(graph, source=0):
    n = graph.num_vertices
    if n == 0:
        return graph, np.empty(0, dtype=np.int64)
    new_of_old = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for seed in [source] + [v for v in range(n) if v != source]:
        if new_of_old[seed] >= 0:
            continue
        order = _old_bfs_order(graph, seed)
        order = order[new_of_old[order] < 0]
        new_of_old[order] = np.arange(next_id, next_id + order.size)
        next_id += order.size
    return _old_relabel(graph, new_of_old), new_of_old


GRAPHS = {
    "empty": lambda: build_graph(0, []),
    "single": lambda: build_graph(1, []),
    "edgeless": lambda: build_graph(5, []),
    "isolated": lambda: build_graph(7, [(1, 2), (2, 4), (5, 6)]),
    "isolated_first": lambda: build_graph(6, [(3, 5), (1, 4)]),
    "path": lambda: path_graph(9),
    "star": lambda: star_graph(8),
    "cliques": lambda: disjoint_cliques(4, 3),
    "rmat_er": lambda: rmat_er(9, seed=4),
    "rmat_g": lambda: rmat_g(9, seed=5),
    "rmat_b": lambda: rmat_b(10, seed=6),
}


def _sources(graph):
    n = graph.num_vertices
    return sorted({0, n // 2, n - 1}) if n else [0]


def _same_csr(a, b):
    return (
        np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and a.indices.dtype == b.indices.dtype
        and a.sorted_adjacency == b.sorted_adjacency
    )


@pytest.mark.parametrize("name", GRAPHS)
def test_bfs_renumber_matches_old(name):
    graph = GRAPHS[name]()
    for source in _sources(graph):
        got_graph, got = bfs_renumber(graph, source)
        want_graph, want = _old_bfs_renumber(graph, source)
        assert np.array_equal(got, want), source
        assert got.dtype == np.int64
        assert _same_csr(got_graph, want_graph), source


@pytest.mark.parametrize("name", GRAPHS)
def test_connected_components_matches_old(name):
    graph = GRAPHS[name]()
    count, labels = connected_components(graph)
    want_count, want_labels = _old_connected_components(graph)
    assert count == want_count
    assert np.array_equal(labels, want_labels)


@pytest.mark.parametrize("name", [n for n in GRAPHS if n != "empty"])
def test_levels_and_order_match_old(name):
    graph = GRAPHS[name]()
    for source in _sources(graph):
        assert np.array_equal(bfs_levels(graph, source), _old_bfs_levels(graph, source))
        assert np.array_equal(bfs_order(graph, source), _old_bfs_order(graph, source))


@pytest.mark.parametrize("name", GRAPHS)
def test_relabel_matches_old(name):
    graph = GRAPHS[name]()
    rng = np.random.default_rng(7)
    perm = rng.permutation(graph.num_vertices)
    assert _same_csr(relabel(graph, perm), _old_relabel(graph, perm))


def test_renumber_source_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        bfs_renumber(path_graph(3), 3)


@pytest.mark.parametrize(
    "perm", ([0, 0, 1, 2], [0, 1, 2, 4], [-1, 0, 1, 2], [3, 2, 1]), ids=str
)
def test_relabel_rejects_non_permutations(perm):
    with pytest.raises(GraphFormatError):
        relabel(path_graph(4), np.asarray(perm))
