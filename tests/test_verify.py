"""Unit tests for :mod:`repro.chordality.verify` (verify_extraction).

The certifier is the trust anchor for every any-valid (asynchronous)
extraction, so its own failure modes are pinned here: each broken-input
shape must come back as a diagnosing report — never a raise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chordality.verify import VerificationReport, verify_extraction
from repro.core.extract import extract_maximal_chordal_subgraph
from repro.graph.builder import build_graph
from repro.graph.generators.classic import cycle_graph
from repro.graph.generators.random import gnp_random_graph


@pytest.fixture
def graph():
    return gnp_random_graph(20, 0.3, seed=5)


class TestAcceptedShapes:
    def test_accepts_chordal_result(self, graph):
        result = extract_maximal_chordal_subgraph(graph, maximalize=True)
        report = verify_extraction(graph, result)
        assert report.ok and report.chordal and report.maximal
        assert "chordal + maximal" in str(report)

    def test_accepts_edge_array_and_subgraph(self, graph):
        result = extract_maximal_chordal_subgraph(graph, maximalize=True)
        assert verify_extraction(graph, result.edges).ok
        assert verify_extraction(graph, result.subgraph).ok

    def test_check_maximal_false_skips_certificate(self, graph):
        result = extract_maximal_chordal_subgraph(graph)
        report = verify_extraction(graph, result, check_maximal=False)
        assert report.ok and report.maximal is None
        assert "maximal" not in str(report)

    def test_vertex_count_mismatch_on_subgraph_raises(self, graph):
        with pytest.raises(ValueError, match="vertex sets"):
            verify_extraction(graph, build_graph(3, []))


class TestDiagnosedFailures:
    def test_non_chordal_output_reports_hole(self):
        square = cycle_graph(4)
        report = verify_extraction(square, square.edge_array())
        assert not report.ok and not report.chordal
        assert report.hole is not None and len(report.hole) >= 4
        assert "hole" in str(report)

    def test_invented_edge_reported_not_raised(self, graph):
        report = verify_extraction(
            graph,
            np.array([[0, 0], [0, graph.num_vertices], [-1, 3]], dtype=np.int64),
            check_maximal=False,
        )
        assert not report.ok and not report.edges_valid
        assert (0, 0) in report.invented_edges
        assert (0, graph.num_vertices) in report.invented_edges
        assert (-1, 3) in report.invented_edges
        assert "invents" in str(report)

    def test_edge_absent_from_input_reported(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        report = verify_extraction(
            g, np.array([[0, 2]], dtype=np.int64), check_maximal=False
        )
        assert not report.edges_valid and (0, 2) in report.invented_edges

    def test_invented_edges_match_tuple_set_diff(self):
        """The key diff returns the sorted tuple-set difference, truncated
        to the counterexample bound, and a zero bound still fails."""
        from repro.graph.builder import from_edge_array

        g = gnp_random_graph(30, 0.2, seed=4)
        rng = np.random.default_rng(4)
        rows = rng.integers(0, g.num_vertices, size=(60, 2))
        rows = rows[rows[:, 0] != rows[:, 1]]  # self-loops are reported first
        sub = from_edge_array(g.num_vertices, rows)
        want = sorted(sub.edge_set() - g.edge_set())
        assert len(want) > 5
        for limit in (1, 5, len(want) + 3):
            report = verify_extraction(g, rows, check_maximal=False, max_counterexamples=limit)
            assert report.invented_edges == want[:limit]
            assert not report.edges_valid
        assert not verify_extraction(g, rows, max_counterexamples=0).edges_valid

    def test_non_maximal_output_reports_addable(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        report = verify_extraction(g, np.array([[0, 1]], dtype=np.int64))
        assert report.chordal and report.maximal is False
        assert report.addable  # e.g. (0, 2) or (1, 2)
        assert "not maximal" in str(report)

    def test_invalid_output_cannot_be_maximal(self):
        square = cycle_graph(4)
        report = verify_extraction(square, square.edge_array(), check_maximal=True)
        assert report.maximal is False  # not even a valid chordal subgraph

    def test_raise_if_invalid(self):
        square = cycle_graph(4)
        report = verify_extraction(square, square.edge_array())
        with pytest.raises(AssertionError, match="hole"):
            report.raise_if_invalid()
        ok = VerificationReport(edges_valid=True, chordal=True, maximal=True)
        ok.raise_if_invalid()  # no-op


def _spanning_forest(g):
    """Lexicographic-greedy spanning forest of ``g`` (chordal, and far
    from a maximal chordal subgraph on any dense-enough input)."""
    parent = list(range(g.num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rows = []
    for u, v in g.edge_array():
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            parent[ru] = rv
            rows.append((int(u), int(v)))
    return np.asarray(rows, dtype=np.int64).reshape(-1, 2)


class TestDeterministicReports:
    def test_counterexamples_reproduce_across_runs(self):
        """Failure reports must name the same counterexamples on every
        run: the maximality scan iterates ``missing_edges`` in
        lexicographic order and the addability BFS expands neighbors in
        ascending vertex order, so a pasted failure message replays."""
        from repro.chordality.maximality import missing_edges
        from repro.graph.builder import from_edge_array

        for seed in range(6):
            g = gnp_random_graph(24, 0.3, seed=seed)
            # A deliberately non-maximal chordal subgraph: the spanning
            # forest (forests are chordal; at this density far from maximal).
            partial = _spanning_forest(g)
            reports = [
                verify_extraction(g, partial, max_counterexamples=5)
                for _ in range(3)
            ]
            first = reports[0]
            assert first.maximal is False
            for other in reports[1:]:
                assert other.addable == first.addable, f"seed={seed}"
                assert other.invented_edges == first.invented_edges
            # And the candidate order itself is the documented one.
            sub = from_edge_array(g.num_vertices, partial)
            cand = missing_edges(g, sub)
            assert cand == sorted(cand), f"seed={seed}"

    def test_addable_scans_agree_between_fast_and_oracle(self):
        """The deterministic fast scan and the rebuild-and-recognise
        oracle walk the same candidate order, so their outputs are
        comparable element-for-element."""
        from repro.chordality.maximality import addable_edges, addable_edges_slow
        from repro.graph.builder import from_edge_array

        g = gnp_random_graph(18, 0.35, seed=7)
        partial = _spanning_forest(g)
        sub = from_edge_array(g.num_vertices, partial)
        assert addable_edges(g, sub) == addable_edges_slow(g, sub)


class TestDegenerate:
    def test_empty_graph_empty_output(self):
        g = build_graph(0, [])
        report = verify_extraction(g, np.empty((0, 2), dtype=np.int64))
        assert report.ok

    def test_isolated_vertices(self):
        g = build_graph(5, [])
        assert verify_extraction(g, np.empty((0, 2), dtype=np.int64)).ok
