"""Engine protocol and registry for the extraction engines.

The paper's contribution is *one* algorithm run under many execution
regimes, and this module is where those regimes become data: every engine
registers an :class:`EngineSpec` describing its capabilities — supported
schedules, which of them are deterministic, whether it can produce a
:class:`~repro.core.instrument.WorkTrace`, whether it runs on a
:class:`~repro.core.procpool.ProcessPool` — plus a ``run`` callable with a
uniform signature.  Dispatch, validation, error messages and the CLI's
``--engine`` / ``--schedule`` choices are all derived from the registry,
so a third-party engine registered with :func:`register_engine` plugs into
:class:`~repro.core.session.Extractor`, the legacy shims and ``repro
extract`` without touching any of them.

The legacy module-level tuples ``repro.core.extract.ENGINES`` /
``SCHEDULES`` are live views over this registry (see
:class:`RegistryView`).

Built-in engines
----------------
All four are pairings of the unified runtime's backends
(:mod:`repro.core.runtime`): one schedule driver over a StateBackend ×
ExecutorBackend choice.

``superstep``
    ``LocalState`` × ``SerialExecutor``; deterministic under both
    schedules; collects work traces.  The asynchronous schedule (the
    default) runs the maximal-progress sweep as one compiled call when
    the native backend resolves (``supports_native``), bit-identical to
    the Python sweep that traced runs and toolchain-less hosts use; the
    synchronous rounds run the vectorized NumPy kernels.
``threaded``
    ``LocalState`` × ``ThreadTeamExecutor`` — real threads with
    per-iteration barriers (GIL-bound); asynchronous output may differ
    run to run; collects work traces (its synchronous trace is identical
    to ``superstep``'s, the trace being a property of the schedule).
``native``
    ``LocalState(edge_claims=True)`` × ``NativeThreadTeamExecutor`` —
    the same thread team dispatching the *compiled* round bodies
    (:mod:`repro.core.native`), which release the GIL: genuinely
    parallel threads over shared arrays with no fork, segment or
    barrier-agent machinery.  Falls back to the NumPy bodies (same
    results, GIL-bound) when no compiled backend is available
    (``supports_native`` flags the capability; availability is a
    runtime question — ``repro --version`` reports it).
``process``
    ``SharedSegmentState`` × ``ProcessTeamExecutor`` — worker processes
    over shared memory, real core-level speedup; runs on a reusable
    :class:`~repro.core.procpool.ProcessPool` (``supports_pool``);
    synchronous output is bit-identical to ``superstep`` for any worker
    count.
``reference``
    Literal pseudocode transcription; deterministic under both
    schedules; the readable spec (kept loop-for-loop with the paper, so
    deliberately *not* rewritten over the runtime).

One engine implements a *different algorithm* (``algorithm="maxchord"``
rather than the paper's ``"algorithm1"``):

``weighted``
    Serial weighted MAXCHORD (Dearing–Shier–Warner) with weight-greedy
    completion (:mod:`repro.core.weighted`); the only engine with
    ``supports_weights`` — quality-directed, synchronous-only,
    deterministic.  Cross-engine equivalence sweeps filter on
    ``algorithm`` (different algorithms legitimately produce different
    maximal chordal subgraphs of the same graph).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

import numpy as np

from repro.core.instrument import WorkTrace
from repro.core.procpool import ProcessPool
from repro.core.reference import reference_max_chordal
from repro.core.runtime import (
    LocalState,
    NativeThreadTeamExecutor,
    SerialExecutor,
    ThreadTeamExecutor,
    backend_run_fn,
)
from repro.errors import ConfigError
from repro.graph.csr import CSRGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (type hints only)
    from repro.core.config import ExtractionConfig

__all__ = [
    "Engine",
    "EngineSpec",
    "RegistryView",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "engine_names",
    "schedule_names",
    "registered_engines",
]

#: Canonical schedule ordering for derived views (matches the historical
#: ``SCHEDULES`` tuple; registry-introduced schedules sort after these).
_CANONICAL_SCHEDULES = ("asynchronous", "synchronous")


@runtime_checkable
class Engine(Protocol):
    """What the dispatcher needs from an engine.

    Any object with these attributes and a :meth:`run` method can be
    handed to :func:`register_engine`; :class:`EngineSpec` is the
    dataclass the built-in engines use.
    """

    name: str
    description: str
    schedules: tuple[str, ...]
    default_schedule: str
    deterministic_schedules: tuple[str, ...]
    supports_trace: bool
    supports_pool: bool

    def run(
        self,
        graph: CSRGraph,
        config: "ExtractionConfig",
        pool: ProcessPool | None = None,
    ) -> tuple[np.ndarray, list[int], WorkTrace | None]:
        """Run one extraction; return ``(edges, queue_sizes, trace)``."""
        ...  # pragma: no cover - protocol stub


@dataclass(frozen=True)
class EngineSpec:
    """Capability record + run callable for one registered engine.

    Attributes
    ----------
    name:
        Registry key (the public ``engine=`` value).
    run_fn:
        ``(graph, config, pool) -> (edges, queue_sizes, trace | None)``
        with the graph already BFS-renumbered when requested; the
        session layer owns renumber/stitch/maximalize/canonicalisation.
    description:
        One line for ``--engine`` help and API docs.
    schedules:
        Schedules this engine accepts (requesting another one is a
        :class:`~repro.errors.ConfigError` naming this tuple).
    default_schedule:
        What ``ExtractionConfig(schedule=None)`` resolves to — the
        engine's natural schedule (``synchronous`` for ``process``,
        whose deterministic outputs make batches reproducible;
        ``asynchronous`` elsewhere, matching the paper).
    deterministic_schedules:
        Schedules under which the edge set is bit-reproducible across
        runs and thread/worker counts.
    supports_trace:
        Whether ``collect_trace=True`` is accepted.
    supports_pool:
        Whether extraction runs on (and can reuse) a
        :class:`~repro.core.procpool.ProcessPool`.
    supports_native:
        Whether the engine dispatches compiled kernels
        (:mod:`repro.core.native`: the nogil round bodies or the serial
        sweep) when they are available.  This is a
        *capability* flag: whether the compiled path actually runs on a
        given host is a runtime question, answered by
        :func:`repro.core.native.native_status` and surfaced as
        ``kernel_path`` on :class:`~repro.core.session.ChordalResult`.
    supports_weights:
        Whether the engine consumes per-edge weights
        (:func:`repro.graph.weights.attach_edge_weights`).  Extracting
        from a weighted graph with a non-weight-aware engine is a
        :class:`~repro.errors.ConfigError` (weights would be silently
        ignored otherwise).
    algorithm:
        Which extraction algorithm the engine implements —
        ``"algorithm1"`` (the paper's) or ``"maxchord"``
        (Dearing–Shier–Warner).  Engines sharing an algorithm are
        expected to agree bit-for-bit under deterministic schedules;
        engines with different algorithms only share the
        maximal-chordal-subgraph contract.

    ``supports_weights`` and ``algorithm`` are optional for plain
    Protocol-conforming engine objects; consumers read them with
    ``getattr(engine, "supports_weights", False)`` /
    ``getattr(engine, "algorithm", "algorithm1")``.
    """

    name: str
    run_fn: Callable[..., tuple[np.ndarray, list[int], WorkTrace | None]] = field(
        repr=False
    )
    description: str = ""
    schedules: tuple[str, ...] = _CANONICAL_SCHEDULES
    default_schedule: str = "asynchronous"
    deterministic_schedules: tuple[str, ...] = ()
    supports_trace: bool = False
    supports_pool: bool = False
    supports_native: bool = False
    supports_weights: bool = False
    algorithm: str = "algorithm1"

    def __post_init__(self) -> None:
        _check_engine_invariants(self)

    def is_deterministic(self, schedule: str) -> bool:
        """Whether ``schedule`` yields bit-reproducible edge sets."""
        return schedule in self.deterministic_schedules

    def run(
        self,
        graph: CSRGraph,
        config: "ExtractionConfig",
        pool: ProcessPool | None = None,
    ) -> tuple[np.ndarray, list[int], WorkTrace | None]:
        return self.run_fn(graph, config, pool)


def _check_engine_invariants(engine: Engine) -> None:
    """Reject inconsistent capability declarations with a ConfigError.

    Shared by :meth:`EngineSpec.__post_init__` (fail-fast at
    construction) and :func:`register_engine` (so plain
    Protocol-conforming objects are held to the same contract at
    registration time, not at some distant extract-time resolution).
    """
    name = getattr(engine, "name", None)
    if not name or not isinstance(name, str):
        raise ConfigError(f"engine name must be a non-empty string, got {name!r}")
    missing = [
        attr
        for attr in (
            "description",
            "schedules",
            "default_schedule",
            "deterministic_schedules",
            "supports_trace",
            "supports_pool",
        )
        if not hasattr(engine, attr)
    ]
    if missing:
        raise ConfigError(
            f"engine {name!r} is missing required Engine-protocol "
            f"attribute(s) {missing}"
        )
    if not callable(getattr(engine, "run", None)):
        raise ConfigError(
            f"engine {name!r} must have a callable run(graph, config, pool)"
        )
    schedules = tuple(engine.schedules)
    if not schedules:
        raise ConfigError(f"engine {name!r} must support at least one schedule")
    if engine.default_schedule not in schedules:
        raise ConfigError(
            f"engine {name!r}: default_schedule {engine.default_schedule!r} "
            f"is not among its schedules {schedules}"
        )
    unknown = set(engine.deterministic_schedules) - set(schedules)
    if unknown:
        raise ConfigError(
            f"engine {name!r}: deterministic_schedules {sorted(unknown)} "
            f"not among its schedules {schedules}"
        )


_REGISTRY: dict[str, Engine] = {}


def register_engine(engine: Engine, *, replace: bool = False) -> Engine:
    """Add ``engine`` to the registry (and return it).

    Registered engines immediately appear in :func:`engine_names`, the
    derived ``ENGINES``/``SCHEDULES`` views, `repro extract --engine`
    choices, and become valid ``ExtractionConfig.engine`` values.  Pass
    ``replace=True`` to swap an existing registration (e.g. to wrap a
    built-in engine); otherwise duplicate names raise
    :class:`~repro.errors.ConfigError`.
    """
    _check_engine_invariants(engine)
    if engine.name in _REGISTRY and not replace:
        raise ConfigError(
            f"engine {engine.name!r} is already registered; "
            "pass replace=True to override it"
        )
    _REGISTRY[engine.name] = engine
    return engine


def unregister_engine(name: str) -> None:
    """Remove ``name`` from the registry (ConfigError if absent)."""
    if name not in _REGISTRY:
        raise ConfigError(f"unknown engine {name!r}; expected one of {engine_names()}")
    del _REGISTRY[name]


def get_engine(name: str) -> Engine:
    """Look up a registered engine by name.

    Raises
    ------
    ConfigError
        Listing the registered engine names — the error message is
        derived from the registry, so it stays correct as engines come
        and go.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown engine {name!r}; expected one of {engine_names()}"
        ) from None


def engine_names() -> tuple[str, ...]:
    """Registered engine names, in registration order."""
    return tuple(_REGISTRY)


def registered_engines() -> tuple[Engine, ...]:
    """The registered engine objects, in registration order."""
    return tuple(_REGISTRY.values())


def schedule_names() -> tuple[str, ...]:
    """Every schedule some registered engine supports.

    Canonical schedules keep their historical order; schedules
    introduced by third-party engines follow in first-seen order.
    """
    seen: set[str] = set()
    for engine in _REGISTRY.values():
        seen.update(engine.schedules)
    names = [s for s in _CANONICAL_SCHEDULES if s in seen]
    for engine in _REGISTRY.values():
        names.extend(s for s in engine.schedules if s not in names)
    return tuple(names)


class RegistryView(Sequence):
    """Immutable, *live* tuple-like view over a registry-derived tuple.

    ``repro.core.extract.ENGINES`` / ``SCHEDULES`` are instances: they
    compare, iterate, index and ``in``-test like the historical tuples,
    but re-read the registry on every access so engines registered after
    import show up (argparse ``choices=`` included).
    """

    __slots__ = ("_source",)

    def __init__(self, source: Callable[[], tuple[str, ...]]) -> None:
        self._source = source

    def __getitem__(self, index):
        return self._source()[index]

    def __len__(self) -> int:
        return len(self._source())

    def __contains__(self, item: object) -> bool:
        return item in self._source()

    def __iter__(self):
        return iter(self._source())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RegistryView):
            return self._source() == other._source()
        if isinstance(other, (tuple, list)):
            return self._source() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._source())

    def __repr__(self) -> str:
        return repr(self._source())


# ---------------------------------------------------------------------------
# Built-in engine registrations.  ``run_fn`` receives the (possibly
# renumbered) work graph plus the *resolved* ExtractionConfig; resource
# ownership (pool lifecycle) lives in repro.core.session.
#
# The in-process engines are pure backend pairings over the unified
# runtime (:mod:`repro.core.runtime`): a StateBackend factory plus an
# ExecutorBackend factory, glued by ``backend_run_fn``.  The process
# engine pairs SharedSegmentState with ProcessTeamExecutor through the
# pool the session supplies (the pool owns the segment/team lifecycle).

_run_superstep = backend_run_fn(
    lambda graph, num_slices, config: LocalState(graph, num_slices),
    lambda config: SerialExecutor(),
)

_run_threaded = backend_run_fn(
    lambda graph, num_slices, config: LocalState(graph, num_slices),
    lambda config: ThreadTeamExecutor(config.num_threads),
)

# edge_claims=True: the native pairing runs the asynchronous schedule as
# lock-free live rounds in process, so the local state carries real
# edge-claim words (the sweep-based engines never read them).
_run_native = backend_run_fn(
    lambda graph, num_slices, config: LocalState(graph, num_slices, edge_claims=True),
    lambda config: NativeThreadTeamExecutor(config.num_threads),
)


def _run_process(graph, config, pool):
    # The dispatcher always supplies the pool for supports_pool engines
    # (Extractor._ensure_pool sized it with config.num_workers); variant
    # is validated config-side and does not change the pooled kernels'
    # edge sets (see process_max_chordal).
    edges, queue_sizes = pool.extract(
        graph, schedule=config.schedule, max_iterations=config.max_iterations
    )
    return edges, queue_sizes, None


def _run_reference(graph, config, pool):
    # The reference engine has no Opt/Unopt cost asymmetry; the two
    # variants differ only in cost, so the edge set is identical.
    edges, queue_sizes = reference_max_chordal(
        graph, schedule=config.schedule, max_iterations=config.max_iterations
    )
    return edges, queue_sizes, None


def _run_weighted(graph, config, pool):
    # Best-of portfolio over weighted/unweighted MAXCHORD and Algorithm 1,
    # all weight-greedily completed; contains the unweighted pipeline's
    # exact edge set, so retained weight dominates it by construction.
    # Import deferred to keep the registry import-light and cycle-free.
    from repro.core.weighted import weighted_portfolio

    edges, queue_sizes = weighted_portfolio(graph)
    return edges, queue_sizes, None


register_engine(
    EngineSpec(
        name="superstep",
        run_fn=_run_superstep,
        description="serial engine: compiled sweep (asynchronous, when the "
        "native backend resolves), vectorized kernels otherwise (default)",
        deterministic_schedules=("asynchronous", "synchronous"),
        supports_trace=True,
        supports_native=True,
    )
)
register_engine(
    EngineSpec(
        name="threaded",
        run_fn=_run_threaded,
        description="real thread team with per-iteration barriers (GIL-bound)",
        deterministic_schedules=("synchronous",),
        supports_trace=True,
    )
)
register_engine(
    EngineSpec(
        name="native",
        run_fn=_run_native,
        description="compiled nogil round bodies on a real thread team "
        "(NumPy fallback when no toolchain)",
        deterministic_schedules=("synchronous",),
        supports_native=True,
    )
)
register_engine(
    EngineSpec(
        name="process",
        run_fn=_run_process,
        description="worker processes over shared memory (real multi-core speedup)",
        default_schedule="synchronous",
        deterministic_schedules=("synchronous",),
        supports_pool=True,
    )
)
register_engine(
    EngineSpec(
        name="reference",
        run_fn=_run_reference,
        description="literal pseudocode transcription (the readable spec)",
        deterministic_schedules=("asynchronous", "synchronous"),
    )
)
register_engine(
    EngineSpec(
        name="weighted",
        run_fn=_run_weighted,
        description="weight-greedy MAXCHORD portfolio, maximises retained weight",
        schedules=("synchronous",),
        default_schedule="synchronous",
        deterministic_schedules=("synchronous",),
        supports_weights=True,
        algorithm="maxchord",
    )
)
