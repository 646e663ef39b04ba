"""The exact edge-addability oracle for chordal graphs.

Every maximality question in the library is one question: can the
non-edge ``uv`` join the chordal graph ``H`` and keep it chordal?  Yes
iff ``u`` and ``v`` are disconnected in ``H − (N(u) ∩ N(v))`` (proof in
:mod:`repro.chordality.maximality`).  :class:`AddabilityOracle` owns
``H``, a union-find over its components and per-vertex change stamps,
and decides each candidate by the first rule that applies:

* **cross** — different components: accept (no path to keep);
* **empty** — same component, ``N(u) ∩ N(v)`` empty: reject
  (``H − ∅ = H``, where the endpoints are connected);
* **bfs** — otherwise a bidirectional BFS in ``H − (N(u) ∩ N(v))``;
* **skipped** (:meth:`~AddabilityOracle.saturate` only) — a rejected
  candidate is re-tested only after an accepted edge touches ``u`` or
  ``v``: an accepted ``xy`` with ``{x, y} ∩ {u, v} = ∅`` leaves
  ``N(u) ∩ N(v)`` unchanged and only adds edges, so the blocking path
  survives.

Every decision is exact, so no answer depends on which rule fired or on
the order a BFS visits vertices.  Order matters only where a *path* is
returned: :func:`avoiding_path`, the witness search of
:class:`repro.core.incremental.IncrementalExtractor`, is single-source
and ascending so witnesses replay bit-identically.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["AddabilityOracle", "avoiding_path", "linked_avoiding"]

#: Candidate rows converted to Python ints per :meth:`saturate` chunk: a
#: full ``.tolist()`` would transiently cost ~50 bytes per candidate.
_CHUNK = 1 << 16


def linked_avoiding(adj: list[set[int]], u: int, v: int, banned: set[int]) -> bool:
    """True iff ``u`` and ``v`` are connected in ``adj − banned``.

    Bidirectional BFS that always grows the smaller frontier; ``u`` and
    ``v`` must not be in ``banned``.
    """
    near, far = {u}, {v}
    front, back = {u}, {v}
    while front and back:
        if len(front) > len(back):
            near, far, front, back = far, near, back, front
        grown: set[int] = set()
        for x in front:
            if not far.isdisjoint(adj[x]):
                return True
            grown |= adj[x]
        grown -= near
        grown -= banned
        near |= grown
        front = grown
    return False


def avoiding_path(adj: list[set[int]], u: int, v: int) -> list[int] | None:
    """Deterministic BFS for a ``u``–``v`` path in
    ``adj − (N(u) ∩ N(v))``; returns the vertex path ``[u, …, v]``, or
    ``None`` when the endpoints are disconnected — i.e. the edge is
    addable.  The witness-path form of :meth:`AddabilityOracle.addable`."""
    banned = adj[u] & adj[v]
    parent = {u: u}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in sorted(adj[x]):  # ascending order: deterministic paths
            if y == v:
                path = [v, x]
                while path[-1] != u:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            if y in banned or y in parent:
                continue
            parent[y] = x
            queue.append(y)
    return None


class AddabilityOracle:
    """A chordal graph ``H`` that answers and applies edge additions.

    ``edges`` is the initial ``(k, 2)`` edge set of ``H``, which must be
    chordal.  ``adj`` is ``H``'s adjacency-set list (read it, change it
    only through :meth:`add`).  The counters ``cross``, ``empty``,
    ``bfs`` and ``skipped`` count decisions by the rule that made them.
    """

    def __init__(self, num_vertices: int, edges=()) -> None:
        self.adj: list[set[int]] = [set() for _ in range(num_vertices)]
        self._parent = list(range(num_vertices))  # union-find, path halving
        # Version of the last accepted edge touching each vertex.
        self._stamp = np.zeros(num_vertices, dtype=np.int64)
        self._version = 0
        self.cross = self.empty = self.bfs = self.skipped = 0
        self.load(edges)

    def load(self, edges) -> None:
        """Add ``(k, 2)`` edges to ``H`` without testing them."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        for u, v in zip(edges[:, 0].tolist(), edges[:, 1].tolist()):
            self.adj[u].add(v)
            self.adj[v].add(u)
            self._parent[self._find(v)] = self._find(u)

    def _find(self, x: int) -> int:
        parent = self._parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def addable(self, u: int, v: int) -> bool:
        """Can the non-edge ``uv`` join ``H`` keeping it chordal?"""
        if self._find(u) != self._find(v):
            self.cross += 1
            return True
        common = self.adj[u] & self.adj[v]
        if not common:
            self.empty += 1
            return False
        self.bfs += 1
        return not linked_avoiding(self.adj, u, v, common)

    def add(self, u: int, v: int) -> None:
        """Insert ``uv`` into ``H`` (the caller checked :meth:`addable`)."""
        self.adj[u].add(v)
        self.adj[v].add(u)
        self._parent[self._find(v)] = self._find(u)
        self._version += 1
        self._stamp[u] = self._stamp[v] = self._version

    def missing(self, graph: CSRGraph) -> np.ndarray:
        """Edges of ``graph`` absent from ``H`` as ``u < v`` rows in
        lexicographic order — the candidate order of every sweep."""
        edges = graph.edge_array()
        edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
        adj = self.adj
        keep = [v not in adj[u] for u, v in zip(edges[:, 0].tolist(), edges[:, 1].tolist())]
        return edges[np.asarray(keep, dtype=bool)].astype(np.int64, copy=False)

    def scan(self, graph: CSRGraph, limit: int | None = None) -> list[tuple[int, int]]:
        """The edges of :meth:`missing` that could join ``H`` (each tested
        alone, none added), in candidate order; stops after ``limit``."""
        found: list[tuple[int, int]] = []
        missing = self.missing(graph)
        for u, v in zip(missing[:, 0].tolist(), missing[:, 1].tolist()):
            if self.addable(u, v):
                found.append((u, v))
                if limit is not None and len(found) >= limit:
                    break
        return found

    def saturate(self, candidates: np.ndarray) -> tuple[list[int], np.ndarray, int]:
        """Greedily add the ``(k, 2)`` candidate rows to ``H``.

        Rows are offered in order; rounds over the rejected rows repeat
        until one accepts nothing, so every survivor is certified
        non-addable against the final ``H``.  Returns ``(accepted,
        rejected, rounds)``: accepted row indices in acceptance order,
        rejected row indices ascending, and the number of rounds.
        """
        candidates = np.asarray(candidates, dtype=np.int64).reshape(-1, 2)
        stamp = self._stamp
        # Index-aligned with ``candidates``: version at the last rejection.
        tested_at = np.full(candidates.shape[0], -1, dtype=np.int64)
        alive = np.arange(candidates.shape[0], dtype=np.int64)
        accepted: list[int] = []
        rounds = 0
        while alive.size:
            rounds += 1
            accepted_before = len(accepted)
            still = np.empty(alive.size, dtype=np.int64)
            num_still = 0
            for start in range(0, alive.size, _CHUNK):
                chunk = alive[start : start + _CHUNK]
                us = candidates[chunk, 0].tolist()
                vs = candidates[chunk, 1].tolist()
                seen = tested_at[chunk].tolist()
                for row, u, v, t in zip(chunk.tolist(), us, vs, seen):
                    if t >= 0 and stamp[u] <= t and stamp[v] <= t:
                        self.skipped += 1
                    elif self.addable(u, v):
                        self.add(u, v)
                        accepted.append(row)
                        continue
                    else:
                        tested_at[row] = self._version
                    still[num_still] = row
                    num_still += 1
            alive = still[:num_still].copy()
            if len(accepted) == accepted_before:
                break
        return accepted, alive, rounds
