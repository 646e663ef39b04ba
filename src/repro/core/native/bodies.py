"""Slice-body wrappers over the compiled kernels.

These have the exact ``(tid, arrays)`` signature of
:func:`repro.core.runtime.rounds.run_sync_slice` /
:func:`~repro.core.runtime.rounds.run_async_slice`, so the
:class:`~repro.core.runtime.executors.NativeThreadTeamExecutor` swaps
them in without the driver noticing.  Each call hands the C function raw
pointers into the canonical schema arrays — the same buffers whether
they are :class:`~repro.core.runtime.state.LocalState` NumPy arrays or
:class:`~repro.core.runtime.state.SharedSegmentState` shared-memory
views — and cffi releases the GIL for the duration of the C call, which
is what lets a thread team run slices genuinely in parallel.

Equivalence to the NumPy bodies (the determinism contract):

* **sync** — membership of ``e`` in the snapshot prefix of ``C[v]`` via
  binary search over ``arena[offsets[v] : offsets[v]+snapshot[v]]`` is
  exactly the ``searchsorted`` probe of the global key array restricted
  to block ``v`` (``key(v, e) = v*n + e`` only matches within the
  block), so the ok mask, appends and parent advances are identical
  element-for-element — the C path just never materialises the key
  array (the driver skips building it, see ``needs_keys``).
* **async** — the per-*pair* acquire-load of the parent's prefix length
  replaces the NumPy per-*slice* freeze; both are admissible schedules
  of the same nondeterministic algorithm (a published prefix is
  immutable and ``C[w]`` is slice-owned), and every output is certified
  by ``verify_extraction`` + the driver's claim accounting.
* **sweep** — :func:`native_sweep` runs the driver's serial
  maximal-progress sweep whole.  Its linked-list children map appends in
  service order exactly like the Python lists, its prefix freeze and
  subset test are the ones above, and its next queue is the same sorted
  set of new parents, so edges (in order) and queue sizes are
  bit-identical to the Python sweep.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.native.build import resolve
from repro.core.runtime.layout import (
    EDGE_ACCEPTED,
    EDGE_REJECTED,
    EDGE_UNDECIDED,
)
from repro.errors import ReproError

__all__ = [
    "NativeUnavailableError",
    "native_round_body",
    "native_run_sync_slice",
    "native_run_async_slice",
    "native_sweep",
]

_I64 = np.dtype(np.int64)
_U8 = np.dtype(np.uint8)

#: Schema arrays handed to the C bodies, in cast order.
_INT_ARRAYS = (
    "active",
    "parents",
    "arena",
    "offsets",
    "snapshot",
    "counts",
    "indptr",
    "indices",
    "lower",
    "cursor",
    "lp",
    "edge_state",
)


class NativeUnavailableError(ReproError):
    """The compiled backend was required but could not be resolved."""


def _module():
    status, module = resolve()
    if module is None:
        raise NativeUnavailableError(
            f"native kernel backend unavailable: {status.detail}"
        )
    return module


#: id(arrays-dict) -> (weak refs to every array handed to C, pointer
#: dict).  A hit requires each schema entry to be the *same live ndarray
#: object* as the cached one, so a reused id() after GC (dead refs) or a
#: remapped segment (fresh view objects) misses and rebuilds.  An
#: ndarray's buffer cannot move while referenced (in-place resize
#: refuses when references exist), so object identity implies pointer
#: validity — and the identity probe is far cheaper than re-deriving
#: thirteen addresses.  The refs are weak so that the cache never keeps
#: a finished state's arrays alive.
_ptr_cache: dict[int, tuple[dict[str, weakref.ref], dict[str, object]]] = {}

_ALL_ARRAYS = _INT_ARRAYS + ("ok",)


def _pointers(ffi, a: dict[str, np.ndarray]) -> dict[str, object]:
    key = id(a)
    hit = _ptr_cache.get(key)
    if hit is not None:
        cached, ptrs = hit
        if all(a[name] is cached[name]() for name in _ALL_ARRAYS):
            return ptrs
    ptrs = {}
    for name in _INT_ARRAYS:
        arr = a[name]
        if arr.dtype != _I64 or not arr.flags["C_CONTIGUOUS"]:
            raise TypeError(
                f"native kernels need contiguous int64 schema arrays; "
                f"{name!r} is {arr.dtype}"
            )
        ptrs[name] = ffi.cast("int64_t *", arr.ctypes.data)
    ok = a["ok"]
    if ok.dtype != _U8 or not ok.flags["C_CONTIGUOUS"]:
        raise TypeError(f"native kernels need a contiguous uint8 'ok' array, got {ok.dtype}")
    ptrs["ok"] = ffi.cast("uint8_t *", ok.ctypes.data)
    if len(_ptr_cache) > 64:  # transient LocalStates; keep the cache bounded
        _ptr_cache.clear()
    _ptr_cache[key] = ({name: weakref.ref(a[name]) for name in _ALL_ARRAYS}, ptrs)
    return ptrs


def native_run_sync_slice(tid: int, a: dict[str, np.ndarray]) -> None:
    """Compiled :func:`~repro.core.runtime.rounds.run_sync_slice`."""
    module = _module()
    cuts = a["cuts"]
    start, stop = int(cuts[tid]), int(cuts[tid + 1])
    if start >= stop:
        return
    p = _pointers(module.ffi, a)
    module.lib.repro_sync_slice(
        start,
        stop,
        p["active"],
        p["parents"],
        p["arena"],
        p["offsets"],
        p["snapshot"],
        p["counts"],
        p["indptr"],
        p["indices"],
        p["lower"],
        p["cursor"],
        p["lp"],
        p["ok"],
    )


def native_run_async_slice(tid: int, a: dict[str, np.ndarray]) -> None:
    """Compiled :func:`~repro.core.runtime.rounds.run_async_slice`."""
    module = _module()
    if not a["edge_state"].size:
        raise ReproError(
            "asynchronous live rounds need edge-claim words; build the state "
            "with LocalState(graph, edge_claims=True) (or a SharedSegmentState)"
        )
    cuts = a["cuts"]
    start, stop = int(cuts[tid]), int(cuts[tid + 1])
    if start >= stop:
        return
    p = _pointers(module.ffi, a)
    module.lib.repro_async_slice(
        start,
        stop,
        p["active"],
        p["parents"],
        p["arena"],
        p["offsets"],
        p["counts"],
        p["indptr"],
        p["indices"],
        p["lower"],
        p["cursor"],
        p["lp"],
        p["edge_state"],
        EDGE_UNDECIDED,
        EDGE_ACCEPTED,
        EDGE_REJECTED,
        p["ok"],
    )


def native_sweep(state, limit: int) -> tuple[np.ndarray | None, list[int]]:
    """The compiled serial sweep over a reset ``state``.

    Returns ``(edges, queue_sizes)`` with the edges in service order, or
    ``(None, queue_sizes)`` when an iteration beyond ``limit`` would
    start — the last queue size is then that iteration's.  The number of
    iterations never exceeds ``arena_used + 1`` (every iteration but the
    last serves a child), which caps the queue-size buffer.
    """
    module = _module()
    a = state.arrays
    n = state.n
    qcap = max(0, min(limit, state.arena_used + 1))
    work = np.empty(6 * n, dtype=np.int64)
    edges = np.empty((state.arena_used, 2), dtype=np.int64)
    # Zero-filled: every queue size written is >= 1, so the nonzero
    # prefix is the iteration count.
    queue_sizes = np.zeros(qcap + 1, dtype=np.int64)
    ffi = module.ffi
    p = _pointers(ffi, a)
    num_edges = module.lib.repro_sweep(
        n,
        qcap,
        p["arena"],
        p["offsets"],
        p["counts"],
        p["indptr"],
        p["indices"],
        p["lower"],
        p["cursor"],
        p["lp"],
        ffi.cast("int64_t *", work.ctypes.data),
        ffi.cast("int64_t *", edges.ctypes.data),
        ffi.cast("int64_t *", queue_sizes.ctypes.data),
    )
    if num_edges < 0:
        return None, queue_sizes.tolist()
    iterations = int(np.count_nonzero(queue_sizes))
    return edges[:num_edges], queue_sizes[:iterations].tolist()


def native_round_body(schedule: str):
    """The compiled slice function for ``schedule`` (mirror of
    :func:`repro.core.runtime.rounds.round_body`)."""
    return (
        native_run_async_slice if schedule == "asynchronous" else native_run_sync_slice
    )
