"""Incremental re-extraction for dynamic graphs: :class:`IncrementalExtractor`.

The paper extracts a maximal chordal subgraph of a *static* graph; the
serving path (ROADMAP item 5) sees the same graph mutate between
requests.  Re-running Algorithm 1 from scratch on every edge flip wastes
almost all of its work: a single mutation only perturbs the chordal
subgraph locally.  This module keeps the extraction state — the retained
chordal edge set as an adjacency-set mirror of the engines' ``LocalState``,
plus the rejected-candidate pool — alive across calls and maintains the
library-wide invariant

    ``H`` is a **maximal chordal subgraph** of the current graph ``G``

after every mutation, built on the same certified addability criterion
as the completion pass (:mod:`repro.core.maximalize`): ``H + uv`` is
chordal iff ``u`` and ``v`` are disconnected in ``H − (N_H(u) ∩ N_H(v))``.

Locality arguments (why the incremental steps are sound)
--------------------------------------------------------
Every rejected candidate caches a **witness path**: the ``u``–``v`` path
through ``H − (N_H(u) ∩ N_H(v))`` its addability BFS found.  The witness
is a standing certificate of unaddability, and the two mutation kinds
interact with it asymmetrically:

* **Edge additions to H** (a retained insert, or a re-offer acceptance
  of edge ``pq``) never remove witness edges, and they change ``N_H(x)``
  only for ``x ∈ {p, q}`` — so only candidates *incident to* ``p`` or
  ``q`` can flip to addable (their banned set can grow); all other
  witnesses stay valid.  Each acceptance therefore re-offers exactly the
  rejected candidates incident to its endpoints, recursively.
* **Edge removals from H** (deleting a retained edge, or a hole-repair
  eviction) only *shrink* banned sets — which can never disconnect — so
  a candidate can flip to addable only when a removed edge lies **on its
  witness path**.  Deletions re-test exactly the candidates indexed
  under the removed edges (plus the evicted edges themselves, which join
  the pool).
* Deleting a *non-retained* edge is O(1): the candidate pool shrinks,
  ``H`` is untouched, no witness references it (witnesses are H-paths).

When deleting a retained edge ``uv`` breaks chordality, every new hole
was chorded by ``uv`` in ``H`` — the repair loop
(:func:`~repro.chordality.recognition.find_hole` + deterministic edge
eviction) is anchored at the deletion site.  ``full_rebuild_threshold``
is the escape hatch: a deletion whose repair evicts more than this many
retained edges abandons local patching and re-runs the full driver
(:class:`~repro.core.session.Extractor`) on the current graph.

Quality guards: after every mutation the result can be certified with
:func:`repro.chordality.verify.verify_extraction` and must meet the
certified floor :func:`repro.chordality.quality.maximal_chordal_floor`
(the property suite in ``tests/test_incremental.py`` does exactly that);
``benchmarks/bench_incremental.py`` records the updates/sec advantage
over full re-extraction into the guarded ``BENCH_incremental.json``.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

import numpy as np

from repro.chordality.addability import avoiding_path
from repro.chordality.recognition import find_hole, is_chordal
from repro.core.config import ExtractionConfig
from repro.core.session import ChordalResult, Extractor
from repro.errors import ConfigError
from repro.graph.builder import from_edge_array
from repro.graph.csr import CSRGraph

__all__ = ["IncrementalExtractor"]

#: Mutation-op spellings accepted by :meth:`IncrementalExtractor.apply_batch`.
INSERT_OPS = ("insert", "+")
DELETE_OPS = ("delete", "-")


class IncrementalExtractor:
    """Maintain a maximal chordal subgraph of a mutating graph.

    Parameters
    ----------
    graph:
        The initial (unweighted) graph.  The vertex set is fixed for the
        session; mutations are edge-level.
    config:
        Regime for the initial extraction and for full rebuilds;
        ``maximalize`` is forced on (the incremental invariant *is*
        maximality).  Default: ``ExtractionConfig(maximalize=True)``.
    full_rebuild_threshold:
        When one deletion's hole repair evicts more than this many
        retained edges, fall back to a fresh full extraction instead of
        local patching.  ``None`` disables the fallback.

    Notes
    -----
    Fully deterministic: for a given ``(graph, mutation sequence)`` the
    retained edge set is bit-identical run to run (candidates are always
    offered in ``(u, v)`` lexicographic order, acceptances re-offer
    incident candidates FIFO, witness BFS visits neighbors ascending).
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        config: ExtractionConfig | None = None,
        full_rebuild_threshold: int | None = 64,
    ) -> None:
        if graph.has_weights:
            raise ConfigError(
                "IncrementalExtractor does not support weighted graphs; "
                "strip weights with graph.without_weights()"
            )
        if full_rebuild_threshold is not None and full_rebuild_threshold < 0:
            raise ConfigError(
                f"full_rebuild_threshold must be >= 0 or None, "
                f"got {full_rebuild_threshold}"
            )
        if config is None:
            config = ExtractionConfig(maximalize=True)
        elif not config.maximalize:
            # Maximality is the invariant being maintained; a non-maximal
            # seed would certify nothing.
            config = config.replace(maximalize=True)
        self._config = config
        self.full_rebuild_threshold = full_rebuild_threshold
        self._n = graph.num_vertices
        self._graph_adj: list[set[int]] = [
            set(int(x) for x in graph.neighbors(v)) for v in range(self._n)
        ]
        self._chordal_adj: list[set[int]] = [set() for _ in range(self._n)]
        self._rejected: set[tuple[int, int]] = set()
        # Incident index of the rejected pool (per endpoint).
        self._rej_inc: list[set[tuple[int, int]]] = [set() for _ in range(self._n)]
        # Witness certificates: candidate -> H-edges of its avoiding
        # path, and the inverted index H-edge -> candidates whose
        # witness uses it (the deletion re-test set).
        self._witness: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        self._witness_inc: dict[tuple[int, int], set[tuple[int, int]]] = {}
        self._graph_cache: CSRGraph | None = graph
        self.stats: dict[str, int] = {
            "inserts": 0,
            "deletes": 0,
            "retained_inserts": 0,
            "rejected_inserts": 0,
            "reoffer_accepts": 0,
            "repair_evictions": 0,
            "full_rebuilds": 0,
            "witness_retests": 0,
        }
        self._seed_from(self._extract_full(graph))

    # -- public surface -------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        """Edge count of the *current* graph ``G``."""
        return sum(len(nbrs) for nbrs in self._graph_adj) // 2

    @property
    def num_chordal_edges(self) -> int:
        """Edge count of the retained chordal subgraph ``H``."""
        return sum(len(nbrs) for nbrs in self._chordal_adj) // 2

    @property
    def graph(self) -> CSRGraph:
        """The current graph ``G`` as an immutable CSR snapshot (cached
        until the next mutation)."""
        if self._graph_cache is None:
            self._graph_cache = from_edge_array(
                self._n, self._edge_array(self._graph_adj)
            )
        return self._graph_cache

    @property
    def edges(self) -> np.ndarray:
        """The retained chordal edge set, canonical ``(k, 2)`` int64
        (``u < v`` rows in lexicographic order)."""
        return self._edge_array(self._chordal_adj)

    def insert_edge(self, u: int, v: int) -> bool:
        """Add edge ``(u, v)`` to the graph; returns True when it was
        retained in the chordal subgraph.

        Raises ``ValueError`` on a self-loop, an out-of-range endpoint,
        or an edge already present.
        """
        u, v = self._pair(u, v)
        if v in self._graph_adj[u]:
            raise ValueError(f"({u}, {v}) is already an edge of the graph")
        self._graph_adj[u].add(v)
        self._graph_adj[v].add(u)
        self._graph_cache = None
        self.stats["inserts"] += 1
        path = avoiding_path(self._chordal_adj, u, v)
        if path is None:
            self._retain(u, v)
            self.stats["retained_inserts"] += 1
            # H grew: only rejected candidates incident to u or v can
            # have flipped to addable (module docstring).
            self.stats["reoffer_accepts"] += self._offer(
                self._rej_inc[u] | self._rej_inc[v]
            )
            return True
        self._reject(u, v)
        self._set_witness((u, v), path)
        self.stats["rejected_inserts"] += 1
        return False

    def delete_edge(self, u: int, v: int) -> None:
        """Remove edge ``(u, v)`` from the graph, repairing the retained
        subgraph locally (or via a full rebuild past the threshold).

        Raises ``ValueError`` when ``(u, v)`` is not a current edge.
        """
        u, v = self._pair(u, v)
        if v not in self._graph_adj[u]:
            raise ValueError(f"({u}, {v}) is not an edge of the graph")
        self.stats["deletes"] += 1
        self._graph_cache = None
        self._graph_adj[u].discard(v)
        self._graph_adj[v].discard(u)
        if v not in self._chordal_adj[u]:
            # Non-retained edge: the candidate pool shrinks, H untouched,
            # and no witness references a non-H edge.
            self._unreject(u, v)
            return
        # Retained edge: drop it, repair chordality, then re-offer
        # exactly the candidates whose witness used a removed edge.
        self._chordal_adj[u].discard(v)
        self._chordal_adj[v].discard(u)
        removed: list[tuple[int, int]] = [(u, v)]
        if not self._repair_holes(removed):  # threshold exceeded
            self.stats["full_rebuilds"] += 1
            self._seed_from(self._extract_full(self.graph))
            return
        self.stats["repair_evictions"] += len(removed) - 1
        affected: set[tuple[int, int]] = set(removed[1:])  # evicted edges
        for edge in removed:
            affected |= self._witness_inc.pop(edge, set())
        affected &= self._rejected
        self.stats["witness_retests"] += len(affected)
        self.stats["reoffer_accepts"] += self._offer(affected)

    def apply_batch(
        self, mutations: Iterable[tuple[str, int, int]]
    ) -> dict[str, int]:
        """Apply ``(op, u, v)`` mutations in order (``op`` is ``"insert"``
        / ``"+"`` or ``"delete"`` / ``"-"``); returns per-batch counts
        ``{"applied", "inserted", "retained", "deleted"}``.
        """
        applied = inserted = retained = deleted = 0
        for index, row in enumerate(mutations):
            try:
                op, u, v = row
            except (TypeError, ValueError):
                raise ValueError(
                    f"mutation #{index} must be an (op, u, v) triple, "
                    f"got {row!r}"
                ) from None
            if op in INSERT_OPS:
                inserted += 1
                retained += bool(self.insert_edge(u, v))
            elif op in DELETE_OPS:
                deleted += 1
                self.delete_edge(u, v)
            else:
                raise ValueError(
                    f"mutation #{index}: unknown op {op!r} (expected one of "
                    f"{INSERT_OPS + DELETE_OPS})"
                )
            applied += 1
        return {
            "applied": applied,
            "inserted": inserted,
            "retained": retained,
            "deleted": deleted,
        }

    def result(self) -> ChordalResult:
        """The current extraction as a :class:`ChordalResult` (canonical
        edges, ``engine="incremental"``) against a CSR snapshot of the
        current graph."""
        return ChordalResult(
            edges=self.edges,
            queue_sizes=[],
            variant=self._config.variant,
            engine="incremental",
            graph=self.graph,
            schedule="incremental",
        )

    # -- internals ------------------------------------------------------

    def _pair(self, u: int, v: int) -> tuple[int, int]:
        u, v = int(u), int(v)
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise ValueError(
                f"edge ({u}, {v}) out of range for {self._n} vertices"
            )
        if u == v:
            raise ValueError(f"self-loop ({u}, {u}) is not a valid edge")
        return (u, v) if u < v else (v, u)

    def _retain(self, u: int, v: int) -> None:
        self._chordal_adj[u].add(v)
        self._chordal_adj[v].add(u)

    def _reject(self, u: int, v: int) -> None:
        edge = (u, v)
        self._rejected.add(edge)
        self._rej_inc[u].add(edge)
        self._rej_inc[v].add(edge)

    def _unreject(self, u: int, v: int) -> None:
        edge = (u, v)
        self._rejected.discard(edge)
        self._rej_inc[u].discard(edge)
        self._rej_inc[v].discard(edge)
        self._clear_witness(edge)

    def _set_witness(
        self, candidate: tuple[int, int], path: list[int]
    ) -> None:
        self._clear_witness(candidate)
        path_edges = tuple(
            (path[i], path[i + 1]) if path[i] < path[i + 1]
            else (path[i + 1], path[i])
            for i in range(len(path) - 1)
        )
        self._witness[candidate] = path_edges
        for edge in path_edges:
            self._witness_inc.setdefault(edge, set()).add(candidate)

    def _clear_witness(self, candidate: tuple[int, int]) -> None:
        for edge in self._witness.pop(candidate, ()):
            holders = self._witness_inc.get(edge)
            if holders is not None:
                holders.discard(candidate)
                if not holders:
                    del self._witness_inc[edge]

    def _offer(self, candidates: Iterable[tuple[int, int]]) -> int:
        """Greedily offer rejected candidates to ``H`` in deterministic
        lexicographic order; each acceptance re-offers the rejected
        candidates incident to its endpoints (FIFO worklist).  Rejected
        offers record a fresh witness.  Returns the acceptance count."""
        queue = deque(sorted(candidates))
        accepted = 0
        while queue:
            edge = queue.popleft()
            if edge not in self._rejected:
                continue  # accepted earlier on this worklist
            a, b = edge
            path = avoiding_path(self._chordal_adj, a, b)
            if path is None:
                self._unreject(a, b)
                self._retain(a, b)
                accepted += 1
                queue.extend(sorted(self._rej_inc[a] | self._rej_inc[b]))
            else:
                self._set_witness(edge, path)
        return accepted

    def _evict(
        self, victim: tuple[int, int], removed: list[tuple[int, int]]
    ) -> None:
        self._chordal_adj[victim[0]].discard(victim[1])
        self._chordal_adj[victim[1]].discard(victim[0])
        self._reject(*victim)
        removed.append(victim)

    def _broken_pair(self, p: int, q: int) -> tuple[int, int] | None:
        """The lexicographically smallest non-adjacent pair in
        ``N_H(p) ∩ N_H(q)``, or None when the common neighborhood is a
        clique."""
        common = sorted(self._chordal_adj[p] & self._chordal_adj[q])
        for i, x in enumerate(common):
            adj_x = self._chordal_adj[x]
            for y in common[i + 1 :]:
                if y not in adj_x:
                    return (x, y)
        return None

    def _repair_holes(self, removed: list[tuple[int, int]]) -> bool:
        """Evict retained edges until ``H`` is chordal again, appending
        each eviction to ``removed``.  Returns False when the eviction
        count exceeds ``full_rebuild_threshold``.

        The workhorse is a sharpening of Ibarra's removability criterion
        (fully dynamic chordal graphs): after deleting ``pq`` from a
        *chordal* graph, **every** hole is a 4-hole ``p-x-q-y`` with
        ``x, y`` a non-adjacent pair in ``N(p) ∩ N(q)``.  (A longer hole
        would contain ``p`` and ``q`` with ``pq`` as its only chord in
        the pre-deletion graph, and the sub-cycle it closes through
        ``pq`` would be a chordless ≥4-cycle of the chordal original.)
        A worklist over removed-edge endpoint pairs therefore fixes the
        damage directly: evict one of the four cycle edges, requeue both
        pairs.  The victim is the wing edge whose endpoints share the
        smallest common neighborhood (ties lexicographic) — the choice
        that tends to stop, not feed, the eviction cascade.

        When the worklist finishes without evicting anything the end
        state is chordal *by the lemma* — no check needed.  Otherwise
        intermediate states were not chordal and the lemma alone does
        not certify the composition, so an O(n + m) MCS pass
        (:func:`is_chordal`) verifies; only on the rare failure does the
        expensive hole *locator* (:func:`find_hole`) run to restart the
        worklist at a surviving longer hole.
        """
        evicted = 0
        worklist = deque(removed)
        while True:
            while worklist:
                p, q = worklist[0]
                broken = self._broken_pair(p, q)
                if broken is None:
                    worklist.popleft()
                    continue
                x, y = broken
                wings = sorted(
                    (min(a, b), max(a, b))
                    for a, b in ((p, x), (x, q), (p, y), (y, q))
                )
                victim = min(
                    wings,
                    key=lambda e: (
                        len(self._chordal_adj[e[0]] & self._chordal_adj[e[1]]),
                        e,
                    ),
                )
                self._evict(victim, removed)
                worklist.append(victim)
                evicted += 1
                if (
                    self.full_rebuild_threshold is not None
                    and evicted > self.full_rebuild_threshold
                ):
                    return False
            if evicted == 0:
                return True  # certified chordal by the 4-hole lemma
            snapshot = from_edge_array(
                self._n, self._edge_array(self._chordal_adj)
            )
            if is_chordal(snapshot):
                return True
            hole = find_hole(snapshot)
            k = len(hole)
            victim = min(
                (min(hole[i], hole[(i + 1) % k]), max(hole[i], hole[(i + 1) % k]))
                for i in range(k)
            )
            self._evict(victim, removed)
            worklist.append(victim)
            evicted += 1
            if (
                self.full_rebuild_threshold is not None
                and evicted > self.full_rebuild_threshold
            ):
                return False

    def _extract_full(self, graph: CSRGraph) -> np.ndarray:
        with Extractor(self._config) as extractor:
            return extractor.extract(graph).edges

    def _seed_from(self, chordal_edges: np.ndarray) -> None:
        """Reset ``H``, the candidate pool, and every witness from a
        full extraction."""
        for v in range(self._n):
            self._chordal_adj[v].clear()
            self._rej_inc[v].clear()
        self._rejected.clear()
        self._witness.clear()
        self._witness_inc.clear()
        for u, v in np.asarray(chordal_edges, dtype=np.int64).reshape(-1, 2):
            self._retain(int(min(u, v)), int(max(u, v)))
        for u in range(self._n):
            for v in self._graph_adj[u]:
                if v > u and v not in self._chordal_adj[u]:
                    self._reject(u, v)
        for edge in sorted(self._rejected):
            path = avoiding_path(self._chordal_adj, *edge)
            if path is None:
                # The seed extraction was not maximal here (possible when
                # a custom engine under-maximalizes): adopt the edge.
                self._unreject(*edge)
                self._retain(*edge)
            else:
                self._set_witness(edge, path)

    @staticmethod
    def _edge_array(adj: list[set[int]]) -> np.ndarray:
        rows = [(u, v) for u in range(len(adj)) for v in adj[u] if v > u]
        if not rows:
            return np.empty((0, 2), dtype=np.int64)
        return np.asarray(sorted(rows), dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IncrementalExtractor(n={self._n}, m={self.num_edges}, "
            f"chordal={self.num_chordal_edges}, "
            f"rejected={len(self._rejected)})"
        )
