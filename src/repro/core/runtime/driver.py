"""The schedule driver: Algorithm 1's loop, implemented once.

The paper describes *one* algorithm with two intra-iteration schedules;
this module is the one place the repo runs it.  :func:`drive` owns the
outer loop — active-set discovery, queue-size accounting, the iteration
budget, edge gathering, work-trace collection — and delegates each
round's compute to a (:class:`~repro.core.runtime.state.StateBackend`,
executor) pairing:

* ``schedule="synchronous"`` — barrier rounds against a frozen snapshot
  (:func:`~repro.core.runtime.rounds.run_sync_slice`).  Every subset test
  is evaluated against the same snapshot regardless of slice count or
  timing, so the edge set is **bit-identical** across every backend
  pairing — serial, thread team and process team all reproduce the same
  rows.
* ``schedule="asynchronous"`` on an in-process executor — the paper's
  maximal-progress sweep: ascending turns over a live children map, where
  a vertex whose next parent is a later queue member is served again
  within the same iteration.  Deterministic when serial (reproduces the
  paper's headline iteration counts: ~3 for R-MAT, k-1 for a k-clique);
  any-valid when thread-sliced (the platform's benign races).  The
  serial, untraced sweep runs as one compiled call
  (:func:`repro.core.native.native_sweep`) whenever the native backend
  resolves, bit-identical to the Python sweep below, which stays the
  fallback and the path for traced and thread-sliced runs.
* ``schedule="asynchronous"`` on a process team — or any executor that
  sets ``live_rounds = True``, like the native thread team — live
  barrier rounds: one service per vertex per round against whatever
  chordal-set prefixes other workers have published, with lock-free
  edge-claim words (:func:`~repro.core.runtime.rounds.run_async_slice`).
  Any-valid; certify with :func:`repro.chordality.verify_extraction`.

Which kernels ran is recorded too: inside :func:`record_kernel_path`,
``record.path`` reads ``"native"`` once a compiled sweep or round body
ran, ``"numpy"`` otherwise (what ``ChordalResult.kernel_path`` reports).

Work traces are a **driver** feature: for synchronous rounds the trace is
reconstructed from each round's snapshot in canonical ascending order, so
it is identical for every executor (the trace is a property of the
schedule, not of who ran it); for the asynchronous sweep events are
recorded at service time (under a lock when thread-sliced).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

from repro.core.instrument import CostModelParams, TraceBuilder, WorkTrace
from repro.core.kernels import assemble_edges, build_arena_keys, check_key_range
from repro.core.runtime.layout import CTRL_NKEYS
from repro.errors import ConfigError, ConvergenceError
from repro.parallel.partition import balanced_chunks

__all__ = ["drive", "backend_run_fn", "record_kernel_path", "SCHEDULES", "VARIANTS"]

SCHEDULES = ("asynchronous", "synchronous")
VARIANTS = ("optimized", "unoptimized")


_recording = threading.local()


@contextmanager
def record_kernel_path():
    """Record which kernels the :func:`drive` calls in this block ran.

    Yields a record whose ``path`` is ``"native"`` once a drive() on
    this thread dispatched the compiled sweep or compiled round bodies,
    and stays ``"numpy"`` otherwise — including engines that never call
    drive().
    """
    record = SimpleNamespace(path="numpy")
    outer = getattr(_recording, "record", None)
    _recording.record = record
    try:
        yield record
    finally:
        _recording.record = outer


def _ran_native() -> None:
    record = getattr(_recording, "record", None)
    if record is not None:
        record.path = "native"


def _budget_error(limit: int, queue: int) -> ConvergenceError:
    return ConvergenceError(
        f"exceeded iteration budget {limit} (queue={queue}); "
        "this indicates an internal bug"
    )


def drive(
    state,
    executor,
    *,
    schedule: str = "asynchronous",
    variant: str = "optimized",
    collect_trace: bool = False,
    cost_params: CostModelParams | None = None,
    max_iterations: int | None = None,
) -> tuple[np.ndarray, list[int], WorkTrace | None]:
    """Run one extraction; returns ``(edges, queue_sizes, trace)``.

    Parameters
    ----------
    state:
        A bound :class:`~repro.core.runtime.state.StateBackend`.
    executor:
        An executor backend (see :mod:`repro.core.runtime.executors`).
    schedule:
        ``"asynchronous"`` (paper-matching) or ``"synchronous"``.
    variant:
        ``"optimized"`` (O(1) parent advance) or ``"unoptimized"``
        (O(deg) advance).  Both visit the same parents in the same order,
        so the edge set is variant-independent — only trace costs differ.
    collect_trace:
        Record the per-LP-vertex work trace for the machine models.
        Supported by in-process executors (the live process rounds have
        no well-defined per-pair costs to charge).
    cost_params / max_iterations:
        Trace op weights; iteration safety bound (default
        ``max_degree + 2``).
    """
    if getattr(executor, "needs_keys", True):
        check_key_range(state.n)
    if variant not in VARIANTS:
        raise ConfigError(
            f"unknown variant {variant!r}; expected 'optimized' or 'unoptimized'"
        )
    if schedule not in SCHEDULES:
        raise ConfigError(
            f"schedule must be 'asynchronous' or 'synchronous', got {schedule!r}"
        )
    builder = TraceBuilder(
        variant, state.n, state.nnz // 2, cost_params, enabled=collect_trace
    )
    if state.trivial:
        return (
            np.empty((0, 2), dtype=np.int64),
            [],
            builder.trace if collect_trace else None,
        )
    state.reset(schedule)
    limit = max_iterations if max_iterations is not None else state.max_degree + 2
    live_rounds = getattr(executor, "live_rounds", False)
    if schedule == "asynchronous" and executor.in_process and not live_rounds:
        if not hasattr(state, "set_mirrors"):
            raise ConfigError(
                "the asynchronous in-process sweep needs a state backend "
                "with set_mirrors() (StateBackend subclasses provide it); "
                f"got {type(state).__name__}"
            )
        return _drive_sweep(state, executor, variant, builder, limit)
    if collect_trace and schedule == "asynchronous":
        raise ConfigError(
            "collect_trace is not supported for asynchronous live rounds "
            "(process-team / native executors); use the sweep executors"
        )
    return _drive_rounds(state, executor, schedule, variant, builder, limit)


def backend_run_fn(state_factory, executor_factory):
    """Build an :class:`~repro.core.engines.EngineSpec` ``run_fn`` from a
    backend pairing.

    ``executor_factory(config)`` makes the executor;
    ``state_factory(graph, num_slices, config)`` makes the bound state.
    The returned callable has the registry's uniform ``(graph, config,
    pool)`` signature — this is the whole recipe for plugging a new
    in-process backend into :func:`~repro.core.engines.register_engine`.
    The executor only needs the documented five-method surface
    (``num_slices`` / ``in_process`` / ``run_round`` / ``map`` /
    ``close``); its ``close()`` is always called, even on failure.
    """

    def run_fn(graph, config, pool=None):
        executor = executor_factory(config)
        try:
            state = state_factory(graph, executor.num_slices, config)
            return drive(
                state,
                executor,
                schedule=config.schedule,
                variant=config.variant,
                collect_trace=config.collect_trace,
                cost_params=config.cost_params,
                max_iterations=config.max_iterations,
            )
        finally:
            executor.close()

    return run_fn


# ---------------------------------------------------------------------------
# Barrier rounds (synchronous everywhere; asynchronous on process teams)


def _drive_rounds(
    state, executor, schedule: str, variant: str, builder: TraceBuilder, limit: int
) -> tuple[np.ndarray, list[int], WorkTrace | None]:
    a = state.arrays
    n = state.n
    ctrl = a["control"]
    live = schedule == "asynchronous"
    if live and not a["edge_state"].size:
        raise ConfigError(
            "asynchronous live rounds need edge-claim words; build the "
            "state with LocalState(graph, edge_claims=True) (or a "
            "SharedSegmentState)"
        )
    num_slices = executor.num_slices
    degrees = state.degrees() if builder.enabled else None

    queue_sizes: list[int] = []
    chunks: list[tuple[np.ndarray, np.ndarray]] = []
    # Reused distinct-parent scatter mask; cleared per round by
    # un-setting exactly the entries the round set.
    pmask = np.zeros(n, dtype=bool)

    while True:
        active = np.flatnonzero(a["lp"][:n] >= 0)
        na = active.size
        if na == 0:
            break
        if len(queue_sizes) >= limit:
            raise ConvergenceError(
                f"exceeded iteration budget {limit} with {na} active "
                "vertices; this indicates an internal bug"
            )
        parents = a["lp"][:n][active]
        # |Q1| = number of distinct parents.  A scatter-mask count is
        # O(n + active) and beats np.unique's sort — at scale 14 the
        # unique() call alone cost more than the compiled round bodies.
        pmask[parents] = True
        queue_sizes.append(int(np.count_nonzero(pmask)))
        pmask[parents] = False
        a["active"][:na] = active
        a["parents"][:na] = parents
        if live:
            # No snapshot, no key compression: slices probe the live arena.
            nkeys = 0
        else:
            # Barrier: freeze this iteration's chordal-set prefix lengths
            # and compress the filled arena into the sorted key array —
            # unless the executor's bodies probe arena runs directly
            # (the compiled path advertises needs_keys=False).
            a["snapshot"][:n] = a["counts"][:n]
            if getattr(executor, "needs_keys", True):
                nkeys = build_arena_keys(
                    a["arena"], a["offsets"], a["snapshot"][:n], n, out=a["keys"]
                ).size
            else:
                nkeys = 0
        if num_slices == 1:
            a["cuts"][0] = 0
            a["cuts"][1] = na
        else:
            # Balance slices by expected service cost: subset tests probe
            # min(|C[w]|, prefix) elements, so the (snapshot) chordal-set
            # sizes plus a constant are the per-vertex proxy.
            sizes = a["snapshot" if not live else "counts"][:n]
            weights = sizes[active].astype(np.float64) + 1.0
            ranges = balanced_chunks(weights, num_slices)
            a["cuts"][:num_slices] = [r[0] for r in ranges]
            a["cuts"][num_slices] = ranges[-1][1]
        ctrl[CTRL_NKEYS] = nkeys
        executor.run_round(state, schedule)
        # uint8 -> bool is a free reinterpret; the mask is consumed by
        # the gathers below before the next round overwrites 'ok'.
        accepted = a["ok"][:na].view(bool)
        chunks.append((parents[accepted], active[accepted]))
        if builder.enabled:
            _record_sync_round(
                builder, degrees, a["snapshot"][:n], active, parents, accepted, variant
            )

    if getattr(executor, "kernel_path", "numpy") == "native":
        _ran_native()
    edges = assemble_edges(chunks)
    if live:
        state.verify_async_accounting(int(edges.shape[0]))
    return edges, queue_sizes, builder.trace if builder.enabled else None


def _record_sync_round(
    builder: TraceBuilder,
    degrees: np.ndarray,
    snapshot: np.ndarray,
    active: np.ndarray,
    parents: np.ndarray,
    accepted: np.ndarray,
    variant: str,
) -> None:
    """Feed one synchronous round to the trace builder in canonical order.

    Under snapshot semantics every (child, parent) service of a round is
    independent, so per-pair costs are exact functions of the snapshot:
    the subset test costs ``min(|C[w]|, |C[v]|) + 1`` comparisons (1 when
    the cardinality filter rejects or ``C[w]`` is empty) and the parent
    advance costs 1 (Opt) or ``deg(w)`` (Unopt).  Events are recorded in
    ascending active order — the canonical serialisation — so the trace
    is identical for every executor.
    """
    for v in np.unique(parents).tolist():
        builder.scan(v, int(degrees[v]))
    cw = snapshot[active]
    kp = snapshot[parents]
    test_cost = np.where((cw > kp) | (cw == 0), 1, cw + 1)
    if variant == "unoptimized":
        adv_cost = degrees[active]
    else:
        adv_cost = np.ones(active.size, dtype=np.int64)
    for v, w, tc, ac, ok in zip(
        parents.tolist(),
        active.tolist(),
        test_cost.tolist(),
        adv_cost.tolist(),
        accepted.tolist(),
    ):
        builder.service(v, w, tc, ac, ok)
    builder.flush()


# ---------------------------------------------------------------------------
# Maximal-progress sweep (asynchronous on in-process executors)


def _drive_sweep(
    state, executor, variant: str, builder: TraceBuilder, limit: int
) -> tuple[np.ndarray, list[int], WorkTrace | None]:
    if executor.num_slices == 1 and not builder.enabled:
        from repro.core.native import native_available, native_sweep

        if native_available():
            edges, queue_sizes = native_sweep(state, limit)
            if edges is None:
                raise _budget_error(limit, queue_sizes[-1])
            _ran_native()
            return edges, queue_sizes, None
    a = state.arrays
    n = state.n
    lp = a["lp"]
    degrees = state.degrees()
    sets = state.set_mirrors()
    num_slices = executor.num_slices
    traced = builder.enabled
    # Single-slice sweeps own every turn: no stale children-map entries
    # can exist, no trace lock is needed, and served lists are cleared.
    exclusive = num_slices == 1
    lock = threading.Lock() if (traced and not exclusive) else None

    # children[v] = vertices whose current lowest parent is v.
    children: list[list[int]] = [[] for _ in range(n)]
    for w in range(n):
        v = int(lp[w])
        if v >= 0:
            children[v].append(w)
    q1: list[int] = sorted({int(lp[w]) for w in range(n) if lp[w] >= 0})

    queue_sizes: list[int] = []
    local_edges: list[list[tuple[int, int]]] = [[] for _ in range(num_slices)]
    next_parts: list[set[int]] = [set() for _ in range(num_slices)]

    while q1:
        queue_sizes.append(len(q1))
        if len(queue_sizes) > limit:
            raise _budget_error(limit, len(q1))
        # Partition Q1 contiguously, weighted by expected service cost
        # (child count proxied by degree).
        chunk_of = balanced_chunks(degrees[q1].astype(np.float64) + 1.0, num_slices)
        q1_list = q1

        def sweep(tid: int) -> None:
            start, stop = chunk_of[tid]
            _serve_turns(
                state,
                q1_list,
                start,
                stop,
                children,
                sets,
                degrees,
                exclusive,
                variant == "unoptimized",
                local_edges[tid],
                next_parts[tid],
                builder if traced else None,
                lock,
            )

        executor.map(sweep)
        merged: set[int] = set()
        for part in next_parts:
            merged |= part
            part.clear()
        q1 = sorted(merged)
        if traced:
            builder.flush()

    # Merge per-slice edge lists deterministically (slice id order).
    rows = [pair for out in local_edges for pair in out]
    edges = (
        np.asarray(rows, dtype=np.int64).reshape(-1, 2)
        if rows
        else np.empty((0, 2), dtype=np.int64)
    )
    return edges, queue_sizes, builder.trace if traced else None


def _serve_turns(
    state,
    q1_list: list[int],
    start: int,
    stop: int,
    children: list[list[int]],
    sets: list[set[int]],
    degrees: np.ndarray,
    exclusive: bool,
    unopt: bool,
    out_edges: list[tuple[int, int]],
    next_q: set[int],
    builder: TraceBuilder | None,
    lock: threading.Lock | None,
) -> None:
    """One slice's turns of one sweep iteration (lines 13-22 per turn).

    Serves the children of each owned queue vertex against live state:
    the parent's chordal-set prefix is frozen once per turn (``C[v]``
    cannot change during its own turn when exclusive; when thread-sliced
    a concurrent append is invisible to the frozen prefix, which can only
    reject — the paper's benign race).  Each served child appends to its
    own chordal set, advances to its next parent, and re-enters the
    children map under it.
    """
    a = state.arrays
    arena = a["arena"]
    offsets = a["offsets"]
    counts = a["counts"]
    cursor = a["cursor"]
    lp = a["lp"]
    lower = a["lower"]
    indptr = a["indptr"]
    indices = a["indices"]

    for qi in range(start, stop):
        v = q1_list[qi]
        kids = children[v]
        if builder is not None:
            if lock is not None:
                with lock:
                    builder.scan(v, int(degrees[v]))
            else:
                builder.scan(v, int(degrees[v]))
        # Live prefix: frozen once per turn.  When exclusive, C[v] cannot
        # change during v's own turn (all of v's same-iteration gains
        # happen at its parents' earlier turns), so the freeze is exact.
        cv = int(counts[v])
        bound = int(arena[int(offsets[v]) + cv - 1]) if cv else -1
        set_v = sets[v]
        # len(kids) re-read each step: other slices may append while we
        # sweep (a child arriving at v mid-turn).
        i = 0
        while i < len(kids):
            w = kids[i]
            i += 1
            if not exclusive and int(lp[w]) != v:
                continue  # stale entry (served at an earlier turn elsewhere)
            # Line 15: is C[w] a subset of the frozen prefix of C[v]?
            # Cost is min(|C[w]|, prefix) + 1 — linear in the smallest
            # set thanks to the ordered chordal sets (1 when the
            # cardinality filter rejects or C[w] is empty).
            cw = int(counts[w])
            if cw > cv:
                ok = False
                tc = 1
            elif cw == 0:
                ok = True
                tc = 1
            else:
                off_w = int(offsets[w])
                cw_view = arena[off_w:off_w + cw]
                tc = cw + 1
                if int(cw_view[cw - 1]) > bound:
                    ok = False
                else:
                    ok = set_v.issuperset(cw_view.tolist())
            if ok:
                # Lines 16-17: C[w] += {v}; record (v, w).  Arena slot is
                # written before the count bump (ordered publication).
                arena[int(offsets[w]) + cw] = v
                sets[w].add(v)
                counts[w] = cw + 1
                out_edges.append((v, w))
            # Lines 18-20: advance w to its next lowest parent (sorted
            # adjacency: the parents of w are the first lower[w] slots).
            c = int(cursor[w]) + 1
            cursor[w] = c
            if c < int(lower[w]):
                x = int(indices[int(indptr[w]) + c])
            else:
                x = -1
            lp[w] = x
            if x >= 0:
                children[x].append(w)
                next_q.add(x)
            if builder is not None:
                ac = int(degrees[w]) if unopt else 1
                if lock is not None:
                    with lock:
                        builder.service(v, w, tc, ac, ok)
                else:
                    builder.service(v, w, tc, ac, ok)
        if exclusive:
            # No other slice can append a late child, so the served list
            # can be dropped; when thread-sliced the entries survive for
            # the next iteration and the lp check skips them.
            children[v] = []
