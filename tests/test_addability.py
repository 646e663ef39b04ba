"""The exact addability oracle (:mod:`repro.chordality.addability`).

Three layers of evidence:

* **differential** — the oracle against the rebuild-and-recognise
  oracle :func:`~repro.chordality.maximality.addable_edges_slow` on
  Hypothesis-drawn chordal graphs and on R-MAT extraction outputs;
* **pinned outputs** — the completion pass (plain and weighted), the
  shard stitcher and the ``verify_extraction`` counterexamples produce
  exactly what the single-source ascending-BFS loops they replaced
  produced (copied below as test-local references);
* **decision counters** — each rule (cross, empty, bfs, skipped) has a
  named case, and a deterministic guard fails when the completion pass
  falls back to the BFS for more than 1% of its candidates — a
  regression to the slow path fails with no timing assertion.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.maximalize as maximalize_mod
from repro.chordality.addability import AddabilityOracle, linked_avoiding
from repro.chordality.maximality import addable_edges, addable_edges_slow, missing_edges
from repro.chordality.verify import verify_extraction
from repro.core.config import ExtractionConfig
from repro.core.maximalize import maximalize_chordal_edges
from repro.core.session import Extractor
from repro.graph.builder import build_graph, from_edge_array
from repro.graph.generators.chordal import ktree, random_chordal
from repro.graph.generators.random import gnp_random_graph
from repro.graph.generators.rmat import rmat_b, rmat_er, rmat_g
from repro.graph.io import save_graph
from repro.shard import (
    build_plan,
    load_boundary_edges,
    load_shard_result,
    run_shards,
    stitch_shards,
)

FAMILIES = {"er": rmat_er, "g": rmat_g, "b": rmat_b}


def _raw_edges(graph):
    """Algorithm 1 output without the completion pass."""
    with Extractor(ExtractionConfig()) as ex:
        return ex.extract(graph).edges


# -- test-local references: the loops the oracle replaced -------------------


def _ref_addable(adj, u, v):
    """Single-source early-exit BFS from u avoiding N(u) ∩ N(v),
    neighbours in ascending order."""
    common = adj[u] & adj[v]
    seen = {u} | common
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if v in adj[x]:
            return False
        for y in sorted(adj[x]):
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return True


def _ref_adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in np.asarray(edges, dtype=np.int64).reshape(-1, 2).tolist():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _ref_maximalize(graph, chordal_edges, weights=None):
    base = np.asarray(chordal_edges, dtype=np.int64).reshape(-1, 2)
    adj = _ref_adjacency(graph.num_vertices, base)
    have = {(min(u, v), max(u, v)) for u, v in base.tolist()}
    candidates = sorted(graph.edge_set() - have)
    if weights is not None:
        candidates.sort(key=lambda e: (-weights.get(e, 1.0), e))
    added = []
    while True:
        progress = False
        remaining = []
        for u, v in candidates:
            if _ref_addable(adj, u, v):
                adj[u].add(v)
                adj[v].add(u)
                added.append((u, v))
                progress = True
            else:
                remaining.append((u, v))
        candidates = remaining
        if not progress or not candidates:
            break
    if not added:
        return base, 0
    return np.vstack((base, np.asarray(added, dtype=np.int64))), len(added)


def _ref_addable_edges(graph, subgraph, limit=None):
    adj = _ref_adjacency(graph.num_vertices, subgraph.edge_array())
    found = []
    for u, v in sorted(graph.edge_set() - subgraph.edge_set()):
        if _ref_addable(adj, u, v):
            found.append((u, v))
            if limit is not None and len(found) >= limit:
                break
    return found


def _ref_stitch(n, shard_edges, boundary):
    """The boundary fixpoint as the shard driver ran it: union-find,
    per-component stamps, the empty-common reject and the BFS above."""
    adj = [set() for _ in range(n)]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
        return ra

    stamp = [0] * n
    for edges in shard_edges:
        for u, v in edges.tolist():
            adj[u].add(v)
            adj[v].add(u)
            union(u, v)
    tested_at = [-1] * boundary.shape[0]
    alive = list(range(boundary.shape[0]))
    admitted = []
    version = rounds = 0
    while alive:
        rounds += 1
        before = len(admitted)
        still = []
        for row in alive:
            u, v = (int(x) for x in boundary[row])
            ru = find(u)
            if ru != find(v):
                ok = True
            elif tested_at[row] >= stamp[ru]:
                still.append(row)
                continue
            elif not (adj[u] & adj[v]):
                ok = False
            else:
                ok = _ref_addable(adj, u, v)
            if ok:
                adj[u].add(v)
                adj[v].add(u)
                version += 1
                stamp[union(u, v)] = version
                admitted.append(row)
            else:
                tested_at[row] = stamp[ru]
                still.append(row)
        alive = still
        if len(admitted) == before:
            break
    return admitted, alive, rounds


# -- differential: oracle vs rebuild-and-recognise ---------------------------


def _with_extra_edges(h, extra_p, seed):
    """``h`` plus random non-edges: the parent graph whose missing edges
    the scans offer."""
    noise = gnp_random_graph(h.num_vertices, extra_p, seed=seed)
    edges = np.vstack((h.edge_array(), noise.edge_array()))
    return from_edge_array(h.num_vertices, edges)


@st.composite
def chordal_graphs(draw):
    """A chordal graph: random-chordal, a k-tree, or a disjoint union."""
    kind = draw(st.sampled_from(["random_chordal", "ktree", "union"]))
    seed = draw(st.integers(0, 10_000))
    if kind == "random_chordal":
        return random_chordal(draw(st.integers(2, 14)), 0.35, seed=seed)
    if kind == "ktree":
        k = draw(st.integers(1, 3))
        return ktree(draw(st.integers(k + 1, 14)), k, seed=seed)
    a = random_chordal(draw(st.integers(1, 7)), 0.4, seed=seed)
    b = ktree(draw(st.integers(3, 7)), 2, seed=seed + 1)
    edges = np.vstack((a.edge_array(), b.edge_array() + a.num_vertices))
    return from_edge_array(a.num_vertices + b.num_vertices, edges)


@settings(max_examples=80, deadline=None)
@given(h=chordal_graphs(), extra=st.floats(0.1, 0.6), seed=st.integers(0, 10_000))
def test_oracle_matches_slow_oracle_on_chordal_graphs(h, extra, seed):
    g = _with_extra_edges(h, extra, seed)
    oracle = AddabilityOracle(g.num_vertices, h.edge_array())
    assert oracle.scan(g) == addable_edges_slow(g, h)
    assert addable_edges(g, h) == addable_edges_slow(g, h)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("scale", [6, 7, 8])
def test_oracle_matches_slow_oracle_on_rmat_outputs(family, scale):
    g = FAMILIES[family](scale, seed=scale)
    h = from_edge_array(g.num_vertices, _raw_edges(g))
    if scale == 8:
        # Every candidate costs the slow oracle a full recognition: offer
        # a seeded sample of H's missing edges instead of all of them.
        missing = AddabilityOracle(g.num_vertices, h.edge_array()).missing(g)
        pick = np.random.default_rng(scale).choice(missing.shape[0], 200, replace=False)
        g = from_edge_array(g.num_vertices, np.vstack((h.edge_array(), missing[pick])))
    assert addable_edges(g, h) == addable_edges_slow(g, h), (family, scale)


# -- pinned outputs ----------------------------------------------------------

SEEDS_S8 = range(1, 11)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_maximalize_identical_to_reference(family):
    for seed in SEEDS_S8:
        g = FAMILIES[family](8, seed=seed)
        raw = _raw_edges(g)
        edges, gap = maximalize_chordal_edges(g, raw)
        ref_edges, ref_gap = _ref_maximalize(g, raw)
        assert gap == ref_gap, (family, seed)
        assert np.array_equal(edges, ref_edges), (family, seed)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_weighted_maximalize_identical_to_reference(family):
    for seed in SEEDS_S8:
        g = FAMILIES[family](8, seed=seed)
        raw = _raw_edges(g)
        rng = np.random.default_rng(seed)
        # Coarse weights force ties, so the (u, v) tie-break is pinned too.
        weights = {e: float(rng.integers(0, 4)) for e in sorted(g.edge_set())}
        edges, gap = maximalize_chordal_edges(g, raw, weights=weights)
        ref_edges, ref_gap = _ref_maximalize(g, raw, weights=weights)
        assert gap == ref_gap, (family, seed)
        assert np.array_equal(edges, ref_edges), (family, seed)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_verify_counterexamples_identical_to_reference(family):
    for seed in SEEDS_S8:
        g = FAMILIES[family](8, seed=seed)
        raw = _raw_edges(g)
        report = verify_extraction(g, raw, check_maximal=True)
        expected = _ref_addable_edges(g, from_edge_array(g.num_vertices, raw), 3)
        assert report.addable == expected, (family, seed)
        assert report.maximal is (not expected)


def test_stitch_identical_to_reference(tmp_path):
    """A plan shaped like the sharded benchmark: R-MAT ER scale 12, 8 shards."""
    path = tmp_path / "g.txt"
    save_graph(rmat_er(12, seed=1), path)
    plan, _ = build_plan(path, 8, tmp_path / "spill")
    run_shards(plan)
    result = stitch_shards(plan)
    cfg = ExtractionConfig(maximalize=True).resolved()
    shard_edges = [load_shard_result(plan, s, cfg)[0] for s in range(plan.num_shards)]
    boundary = load_boundary_edges(plan)
    admitted, rejected, rounds = _ref_stitch(plan.num_vertices, shard_edges, boundary)
    assert result.rounds == rounds
    assert np.array_equal(result.admitted, boundary[np.asarray(admitted, dtype=np.int64)])
    assert np.array_equal(result.rejected, boundary[np.asarray(rejected, dtype=np.int64)])
    assert result.admitted_boundary > 0


# -- decision rules and counters ---------------------------------------------


def _decide(n, h_edges, u, v):
    oracle = AddabilityOracle(n, np.asarray(h_edges, dtype=np.int64))
    answer = oracle.addable(u, v)
    return answer, (oracle.cross, oracle.empty, oracle.bfs)


def test_cross_component_accept():
    # Two disjoint paths: joining them closes no cycle.
    assert _decide(4, [(0, 1), (2, 3)], 1, 2) == (True, (1, 0, 0))


def test_empty_common_reject():
    # Path 0-1-2-3: 0 and 3 share no neighbour, so 0-3 closes a 4-cycle.
    assert _decide(4, [(0, 1), (1, 2), (2, 3)], 0, 3) == (False, (0, 1, 0))


def test_bfs_accept():
    # Path 0-1-2: removing the common neighbour 1 separates 0 from 2.
    assert _decide(3, [(0, 1), (1, 2)], 0, 2) == (True, (0, 0, 1))


def test_bfs_reject():
    # A fan: 1 is adjacent to every vertex of the path 0-3-4-2.  0 and 2
    # share only 1, and 0-3-4-2 survives its removal (0-2 would close
    # the hole 0-3-4-2).
    h = [(1, 0), (1, 3), (1, 4), (1, 2), (0, 3), (3, 4), (4, 2)]
    assert _decide(5, h, 0, 2) == (False, (0, 0, 1))


def test_stamp_skip():
    # Paths 0-1-2-3 and 5-6-7.  Round 1 rejects 0-3 (no common
    # neighbour) and accepts 5-7, so a second round runs; 5-7 touched
    # neither 0 nor 3, so round 2 skips 0-3 without a test.
    h = np.array([(0, 1), (1, 2), (2, 3), (5, 6), (6, 7)], dtype=np.int64)
    oracle = AddabilityOracle(8, h)
    accepted, rejected, rounds = oracle.saturate(np.array([(0, 3), (5, 7)]))
    assert (accepted, rejected.tolist(), rounds) == ([1], [0], 2)
    assert oracle.skipped == 1
    assert (oracle.cross, oracle.empty, oracle.bfs) == (0, 1, 1)


def test_touched_rejection_is_retested():
    # Path 0-1-2-3.  Round 1 rejects 0-3 and accepts 1-3, which touches
    # 3; round 2 re-tests 0-3, now addable (its only link is via 1).
    oracle = AddabilityOracle(4, np.array([(0, 1), (1, 2), (2, 3)]))
    accepted, rejected, rounds = oracle.saturate(np.array([(0, 3), (1, 3)]))
    assert (accepted, rejected.tolist(), rounds) == ([1, 0], [], 2)
    assert oracle.skipped == 0


def test_linked_avoiding_respects_banned():
    adj = [set() for _ in range(4)]
    for u, v in [(0, 1), (1, 2), (2, 3)]:
        adj[u].add(v)
        adj[v].add(u)
    assert linked_avoiding(adj, 0, 3, set())
    assert not linked_avoiding(adj, 0, 3, {2})


class _Recording(AddabilityOracle):
    made: list[AddabilityOracle] = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _Recording.made.append(self)


@pytest.fixture
def recorded(monkeypatch):
    _Recording.made = []
    monkeypatch.setattr(maximalize_mod, "AddabilityOracle", _Recording)
    return _Recording.made


def test_maximalize_rarely_needs_the_bfs(recorded):
    """No-timing guard: on R-MAT ER the fast rules decide >= 99% of the
    completion pass's candidates."""
    g = rmat_er(10, seed=1)
    raw = _raw_edges(g)
    maximalize_chordal_edges(g, raw)
    (oracle,) = recorded
    candidates = g.num_edges - raw.shape[0]
    assert candidates > 1000
    assert oracle.cross + oracle.empty + oracle.bfs >= candidates
    assert oracle.bfs <= 0.01 * candidates, (oracle.bfs, candidates)


def test_stamp_skip_fires_on_resweep(recorded):
    g = rmat_b(8, seed=1)
    maximalize_chordal_edges(g, _raw_edges(g))
    (oracle,) = recorded
    assert oracle.skipped > 0


def test_missing_is_lexicographic_and_excludes_h():
    g = build_graph(5, [(3, 4), (0, 4), (0, 1), (1, 3), (0, 2)])
    oracle = AddabilityOracle(5, np.array([(0, 1), (3, 4)], dtype=np.int64))
    assert oracle.missing(g).tolist() == [[0, 2], [0, 4], [1, 3]]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_missing_matches_reference_order(family):
    # The oracle's candidate order must equal missing_edges, the order
    # of the reference addable_edges_slow.
    g = FAMILIES[family](8, seed=3)
    h = from_edge_array(g.num_vertices, _raw_edges(g))
    oracle = AddabilityOracle(g.num_vertices, h.edge_array())
    assert [tuple(e) for e in oracle.missing(g).tolist()] == missing_edges(g, h)
