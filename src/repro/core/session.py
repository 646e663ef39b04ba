"""The session API: :class:`Extractor` and :class:`ChordalResult`.

An :class:`Extractor` binds one validated
:class:`~repro.core.config.ExtractionConfig` to owned execution resources
— for the process engine, one persistent
:class:`~repro.core.procpool.ProcessPool` spawned lazily on first use and
reused for every subsequent extraction — and exposes the three ways to
run it:

* :meth:`Extractor.extract` — one graph, one :class:`ChordalResult`;
* :meth:`Extractor.extract_many` — a batch, materialised in input order;
* :meth:`Extractor.stream` — a lazy generator yielding each result as it
  finishes, so a million-graph batch never materialises a list (and the
  input iterable itself is consumed one graph at a time).

Use it as a context manager (or call :meth:`Extractor.close`) so the
worker team is torn down deterministically::

    with Extractor(ExtractionConfig(engine="process", num_workers=4)) as ex:
        for result in ex.stream(graphs):          # one pool spawn total
            print(result.num_chordal_edges)

The legacy functions ``extract_maximal_chordal_subgraph`` /
``extract_many`` (:mod:`repro.core.extract`) are thin shims that create a
one-call session, so their outputs are bit-identical to going through
:class:`Extractor` directly.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.config import ExtractionConfig
from repro.core.connect import stitch_components
from repro.core.engines import registered_engines
from repro.core.instrument import WorkTrace
from repro.core.maximalize import maximalize_chordal_edges
from repro.core.procpool import ProcessPool
from repro.core.runtime.driver import record_kernel_path
from repro.errors import ConfigError, SessionClosedError
from repro.graph.bfs import bfs_renumber
from repro.graph.csr import CSRGraph
from repro.graph.ops import edge_subgraph
from repro.graph.weights import attach_edge_weights, edge_weight_mapping
from repro.graph.weights import retained_weight as _edge_set_weight

__all__ = ["ChordalResult", "Extractor"]


@dataclass
class ChordalResult:
    """Result of one maximal-chordal-subgraph extraction.

    Attributes
    ----------
    edges:
        Chordal edge set ``EC`` as an ``(k, 2)`` array, canonicalised to
        ``u < v`` rows in lexicographic order (engine-independent).
    queue_sizes:
        ``|Q1|`` per iteration — the paper's parallelism profile (Fig 7).
    num_iterations:
        Number of supersteps executed.
    variant / engine:
        How the extraction was run.
    trace:
        Work trace for the machine models (``None`` unless requested).
    graph:
        The input graph the edges refer to (original ids, even when
        BFS renumbering was applied internally).
    kernel_path:
        Which kernels actually ran: ``"native"`` when the driver
        dispatched the compiled sweep or compiled round bodies,
        ``"numpy"`` otherwise (including the fallback on a
        toolchain-less host, traced runs and engines without a compiled
        path).
    """

    edges: np.ndarray
    queue_sizes: list[int]
    variant: str
    engine: str
    graph: CSRGraph
    schedule: str = "asynchronous"
    trace: WorkTrace | None = None
    renumbered: bool = False
    stitched_bridges: int = 0
    maximality_gap: int = 0
    kernel_path: str = "numpy"
    _subgraph: CSRGraph | None = field(default=None, repr=False)

    @property
    def num_iterations(self) -> int:
        return len(self.queue_sizes)

    @property
    def num_chordal_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def chordal_fraction(self) -> float:
        """|EC| / |E| — the statistic the paper reports in Section V."""
        m = self.graph.num_edges
        return self.num_chordal_edges / m if m else 1.0

    @property
    def subgraph(self) -> CSRGraph:
        """The chordal subgraph ``G' = (V, EC)`` (built lazily, cached)."""
        if self._subgraph is None:
            self._subgraph = edge_subgraph(self.graph, self.edges)
        return self._subgraph

    @property
    def total_weight(self) -> float:
        """Total edge weight of the *input* graph (edge count when
        unweighted, so weighted and unweighted runs are comparable)."""
        return float(self.graph.total_weight)

    @property
    def retained_weight(self) -> float:
        """Total weight of the retained chordal edge set ``EC``."""
        return _edge_set_weight(self.graph, self.edges)

    @property
    def weight_fraction(self) -> float:
        """``retained_weight / total_weight`` — the weighted analogue of
        :attr:`chordal_fraction` (1.0 on an edgeless / zero-weight graph)."""
        total = self.total_weight
        return self.retained_weight / total if total else 1.0


def _canonical_edges(edges: np.ndarray) -> np.ndarray:
    """Normalise rows to (min, max) and sort lexicographically."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if e.size == 0:
        return e
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    order = np.lexsort((hi, lo))
    return np.column_stack((lo[order], hi[order]))


class Extractor:
    """Reusable extraction session: one config, one set of resources.

    Parameters
    ----------
    config:
        The regime to run; ``None`` means ``ExtractionConfig()``.
    pool:
        An open caller-owned :class:`~repro.core.procpool.ProcessPool`
        to run on (pool-capable engines only).  The caller keeps
        ownership: :meth:`close` leaves it open.  Without one, a
        pool-capable engine lazily spawns a pool sized
        ``config.num_workers`` on first use, owned (and closed) by this
        session — N extractions cost one worker-team spawn.
    **overrides:
        Convenience: ``Extractor(engine="process", num_workers=2)`` is
        ``Extractor(ExtractionConfig(engine="process", num_workers=2))``;
        with ``config`` given, overrides are applied on top via
        :meth:`ExtractionConfig.replace`.

    Raises
    ------
    ConfigError
        On any invalid field, a pool with a pool-incapable engine, or a
        ``num_workers`` conflicting with the supplied pool's size — all
        at construction time, before any resource is spawned.
    """

    def __init__(
        self,
        config: ExtractionConfig | None = None,
        *,
        pool: ProcessPool | None = None,
        **overrides: Any,
    ) -> None:
        if config is None:
            config = ExtractionConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.config = config.resolved(pool)
        self._spec = self.config.engine_spec
        self._external_pool = pool
        self._own_pool: ProcessPool | None = None
        self._closed = False

    @property
    def pool(self) -> ProcessPool | None:
        """The pool this session runs on (``None`` until one exists)."""
        return self._external_pool if self._external_pool is not None else self._own_pool

    def _ensure_pool(self) -> ProcessPool:
        if self._external_pool is not None:
            return self._external_pool
        if self._own_pool is None:
            self._own_pool = ProcessPool(num_workers=self.config.num_workers)
        return self._own_pool

    def extract(self, graph: CSRGraph) -> ChordalResult:
        """Run one extraction under this session's config."""
        if self._closed:
            raise SessionClosedError("Extractor is closed")
        cfg = self.config
        if graph.has_weights and not getattr(self._spec, "supports_weights", False):
            capable = tuple(
                e.name
                for e in registered_engines()
                if getattr(e, "supports_weights", False)
            )
            raise ConfigError(
                f"graph carries edge weights but engine {cfg.engine!r} is not "
                f"weight-aware (weights would be silently ignored); use a "
                f"weight-capable engine {capable} or strip them with "
                f"graph.without_weights()"
            )
        pool = self._ensure_pool() if self._spec.supports_pool else None

        work_graph = graph
        old_of_new: np.ndarray | None = None
        if cfg.renumber == "bfs":
            work_graph, new_of_old = bfs_renumber(graph)
            old_of_new = np.empty_like(new_of_old)
            old_of_new[new_of_old] = np.arange(new_of_old.size)
            if graph.has_weights:
                # bfs_renumber rebuilds the CSR without weights; re-express
                # the weight map in renumbered ids so the engine sees them.
                work_graph = attach_edge_weights(
                    work_graph,
                    {
                        (int(new_of_old[u]), int(new_of_old[v])): w
                        for (u, v), w in edge_weight_mapping(graph).items()
                    },
                )

        with record_kernel_path() as ran:
            edges, queue_sizes, trace = self._spec.run(work_graph, cfg, pool)

        if old_of_new is not None and edges.size:
            edges = np.column_stack((old_of_new[edges[:, 0]], old_of_new[edges[:, 1]]))

        stitched = 0
        if cfg.stitch:
            before = edges.shape[0]
            edges = stitch_components(graph, edges)
            stitched = edges.shape[0] - before

        gap = 0
        if cfg.maximalize:
            weights = edge_weight_mapping(graph) if graph.has_weights else None
            edges, gap = maximalize_chordal_edges(graph, edges, weights=weights)

        return ChordalResult(
            edges=_canonical_edges(edges),
            queue_sizes=queue_sizes,
            variant=cfg.variant,
            engine=cfg.engine,
            graph=graph,
            schedule=cfg.schedule,
            trace=trace,
            renumbered=cfg.renumber == "bfs",
            stitched_bridges=stitched,
            maximality_gap=gap,
            kernel_path=ran.path,
        )

    def extract_many(self, graphs: Iterable[CSRGraph]) -> list[ChordalResult]:
        """Extract every graph, materialised as a list in input order."""
        return list(self.stream(graphs))

    def stream(self, graphs: Iterable[CSRGraph]) -> Iterator[ChordalResult]:
        """Lazily extract ``graphs``, yielding each result as it finishes.

        Pulls one graph at a time from the iterable, so arbitrarily
        large (even unbounded) inputs run in O(one graph) memory and the
        first result is available before later inputs are generated.

        Closing the session (or its caller-supplied pool) while the
        generator is mid-iteration makes the next ``next()`` raise
        :class:`~repro.errors.SessionClosedError` — a clean
        :class:`~repro.errors.ReproError`, never a half-torn-down
        ``AttributeError`` from inside the pool machinery.
        """
        for graph in graphs:
            if self._closed:
                raise SessionClosedError(
                    "Extractor was closed while a stream() generator was "
                    "mid-iteration; create a new session to keep extracting"
                )
            yield self.extract(graph)

    def close(self) -> None:
        """Release owned resources (idempotent).

        Closes the session-owned pool, if one was spawned; a caller-
        supplied pool is left open.  Further :meth:`extract` calls raise
        ``RuntimeError``.
        """
        if self._closed:
            return
        self._closed = True
        if self._own_pool is not None:
            try:
                self._own_pool.close()
            finally:
                self._own_pool = None

    def __enter__(self) -> "Extractor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"Extractor({self.config!r}, {state})"
