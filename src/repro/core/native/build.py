"""Build-and-cache machinery for the compiled kernels.

The C source lives here as a string: the translation of the round
bodies of :mod:`repro.core.runtime.rounds` plus the serial
maximal-progress sweep of :mod:`repro.core.runtime.driver` (the default
``superstep`` asynchronous path).  It is compiled **once** per (source,
interpreter) digest via cffi's out-of-line API mode, in a child
interpreter, into a cached ``.so`` under ``~/.cache/repro-native``
(override with :data:`CACHE_ENV`).  Later imports just ``dlopen`` the
cached artifact — no compiler needed after the first build, and CI
caches the directory between steps.

Resolution never raises: :func:`resolve` returns a
:class:`NativeStatus` whose ``detail`` names exactly *why* the backend
is unavailable — the three distinct failure modes callers report are

* ``cffi is not installed`` — the optional build dependency is absent;
* ``no C compiler found`` — nothing to build with (the tier-1 fallback
  path on toolchain-less hosts);
* ``build failed: ...`` — a toolchain exists but compilation broke.

plus the explicit opt-out ``REPRO_NATIVE=0`` (how the test suite forces
the fallback branch on a host that *does* have a compiler).

Why C at all: the round bodies and the sweep are memory-bound
pointer-chasing loops (per-pair binary searches over sorted arena runs),
the shape where a compiled inner loop beats further NumPy batching.
The C functions take raw pointers into the *same* canonical schema
arrays (:mod:`repro.core.runtime.layout`) — LocalState NumPy buffers
and SharedSegmentState views alike, zero copies — and cffi releases the
GIL around every call, so a thread team running them is genuinely
parallel.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

__all__ = ["NativeStatus", "resolve", "DISABLE_ENV", "CACHE_ENV"]

#: Set to 0/off/no/false to force the NumPy fallback (tested branch).
DISABLE_ENV = "REPRO_NATIVE"

#: Overrides the compiled-artifact cache directory.
CACHE_ENV = "REPRO_NATIVE_CACHE"

#: Declarations cffi exposes as ``lib.*`` (no compiler extensions here;
#: the atomics stay inside :data:`SOURCE`).
CDEF = """
void repro_sync_slice(
    int64_t start, int64_t stop,
    const int64_t *active, const int64_t *parents,
    int64_t *arena, const int64_t *offsets,
    const int64_t *snapshot, int64_t *counts,
    const int64_t *indptr, const int64_t *indices, const int64_t *lower,
    int64_t *cursor, int64_t *lp, uint8_t *ok);
void repro_async_slice(
    int64_t start, int64_t stop,
    const int64_t *active, const int64_t *parents,
    int64_t *arena, const int64_t *offsets,
    int64_t *counts,
    const int64_t *indptr, const int64_t *indices, const int64_t *lower,
    int64_t *cursor, int64_t *lp,
    int64_t *edge_state,
    int64_t undecided, int64_t accepted, int64_t rejected,
    uint8_t *ok);
int64_t repro_sweep(
    int64_t n, int64_t qcap,
    int64_t *arena, const int64_t *offsets, int64_t *counts,
    const int64_t *indptr, const int64_t *indices, const int64_t *lower,
    int64_t *cursor, int64_t *lp,
    int64_t *work, int64_t *edges, int64_t *queue_sizes);
"""

#: The C translation of rounds.run_sync_slice / run_async_slice and of
#: the serial maximal-progress sweep (driver._serve_turns with one
#: slice).  Kept semantically line-for-line with the Python code so the
#: synchronous rounds and the serial sweep are bit-identical (same ok
#: mask, same appends, same advances, same service order); see
#: repro/core/native/bodies.py for the equivalence argument.
SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

/* 1 iff every element of child[0:cw] occurs in parent[0:cv].  Both runs
   are sorted ascending (the ordered-chordal-set invariant), so each
   element is one binary search -- and because child is sorted too, each
   search resumes past the previous hit.  Membership here is exactly the
   searchsorted key probe of kernels.subset_mask restricted to block v
   (key(v,e) = v*n + e only collides inside v's block). */
static int repro_is_subset(const int64_t *child, int64_t cw,
                           const int64_t *parent, int64_t cv)
{
    int64_t lo = 0;
    for (int64_t i = 0; i < cw; i++) {
        int64_t x = child[i];
        int64_t hi = cv;
        while (lo < hi) {
            int64_t mid = lo + ((hi - lo) >> 1);
            if (parent[mid] < x) lo = mid + 1; else hi = mid;
        }
        if (lo >= cv || parent[lo] != x) return 0;
        lo++;
    }
    return 1;
}

/* One slice of one synchronous superstep: subset test against the
   barrier snapshot, append on accept, advance to the next parent.
   Active targets are distinct within a round, so no word is written by
   two slices and no atomics are needed (unique-writer discipline). */
void repro_sync_slice(
    int64_t start, int64_t stop,
    const int64_t *active, const int64_t *parents,
    int64_t *arena, const int64_t *offsets,
    const int64_t *snapshot, int64_t *counts,
    const int64_t *indptr, const int64_t *indices, const int64_t *lower,
    int64_t *cursor, int64_t *lp, uint8_t *ok)
{
    for (int64_t i = start; i < stop; i++) {
        int64_t w = active[i];
        int64_t v = parents[i];
        int64_t cw = snapshot[w];
        int acc = (cw <= snapshot[v]);
        if (acc && cw > 0)
            acc = repro_is_subset(arena + offsets[w], cw,
                                  arena + offsets[v], snapshot[v]);
        ok[i] = (uint8_t)acc;
        if (acc) {
            arena[offsets[w] + counts[w]] = v;
            counts[w] += 1;
        }
        int64_t c = cursor[w] + 1;
        cursor[w] = c;
        lp[w] = (c < lower[w]) ? indices[indptr[w] + c] : -1;
    }
}

/* One slice of one asynchronous live round.  No snapshot: the parent's
   prefix length is acquire-loaded at probe time, pairing with the
   release store after the arena append below, so a gathered length k
   always covers k fully written sorted elements (the append-before-
   count-bump publication order of kernels.append_accepted, upgraded
   from TSO-argument to real fences).  Reading a fresher prefix than the
   NumPy per-slice freeze is still an admissible schedule of the same
   nondeterministic algorithm: the prefix is immutable once published
   and C[w] is owned by this slice.  Each arc is claimed exactly once
   through a real compare-and-swap on its edge-state word (the hardware
   counterpart of parallel.atomics.bulk_compare_and_set). */
void repro_async_slice(
    int64_t start, int64_t stop,
    const int64_t *active, const int64_t *parents,
    int64_t *arena, const int64_t *offsets,
    int64_t *counts,
    const int64_t *indptr, const int64_t *indices, const int64_t *lower,
    int64_t *cursor, int64_t *lp,
    int64_t *edge_state,
    int64_t undecided, int64_t accepted, int64_t rejected,
    uint8_t *ok)
{
    for (int64_t i = start; i < stop; i++) {
        int64_t w = active[i];
        int64_t v = parents[i];
        int64_t cw = counts[w];  /* owned by this slice: plain load */
        int64_t kv = __atomic_load_n(&counts[v], __ATOMIC_ACQUIRE);
        int acc = (cw <= kv);
        if (acc && cw > 0)
            acc = repro_is_subset(arena + offsets[w], cw,
                                  arena + offsets[v], kv);
        int64_t arc = offsets[w] + cursor[w];
        int64_t expect = undecided;
        int won = __atomic_compare_exchange_n(
            &edge_state[arc], &expect, acc ? accepted : rejected,
            0, __ATOMIC_ACQ_REL, __ATOMIC_ACQUIRE);
        acc = acc && won;
        ok[i] = (uint8_t)acc;
        if (acc) {
            arena[offsets[w] + cw] = v;
            __atomic_store_n(&counts[w], cw + 1, __ATOMIC_RELEASE);
        }
        int64_t c = cursor[w] + 1;
        cursor[w] = c;
        lp[w] = (c < lower[w]) ? indices[indptr[w] + c] : -1;
    }
}

static int repro_cmp_i64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Append w to the children list of x (insertion order = service order). */
static void repro_push_child(int64_t *head, int64_t *tail, int64_t *next,
                             int64_t x, int64_t w)
{
    next[w] = -1;
    if (head[x] < 0) head[x] = w; else next[tail[x]] = w;
    tail[x] = w;
}

/* The serial maximal-progress sweep: ascending turns over a live
   children map.  At v's turn every child w whose current lowest parent
   is v is tested against the prefix of C[v] frozen at the start of the
   turn, appended on accept, and advanced to its next parent x > v -- so
   a later queue member x serves w again within the same iteration.
   The children map is head/tail/next linked lists over n (each vertex
   sits in at most one list, its current parent's); the next queue is
   every x some child moved to, collected with a mark array and sorted.

   work holds 6n int64 of scratch.  Edges (v, w) are written in service
   order into edges (room for every arena slot), the per-iteration queue
   sizes into queue_sizes (qcap + 1 slots).  Returns the number of
   edges, or -1 when an iteration beyond qcap would start; its queue
   size is then queue_sizes[qcap]. */
int64_t repro_sweep(
    int64_t n, int64_t qcap,
    int64_t *arena, const int64_t *offsets, int64_t *counts,
    const int64_t *indptr, const int64_t *indices, const int64_t *lower,
    int64_t *cursor, int64_t *lp,
    int64_t *work, int64_t *edges, int64_t *queue_sizes)
{
    int64_t *head = work, *tail = work + n, *next = work + 2 * n;
    int64_t *queue = work + 3 * n, *spare = work + 4 * n, *mark = work + 5 * n;
    int64_t nq = 0, ne = 0, iters = 0;
    for (int64_t v = 0; v < n; v++) {
        head[v] = -1;
        mark[v] = 0;
    }
    for (int64_t w = 0; w < n; w++)
        if (lp[w] >= 0) repro_push_child(head, tail, next, lp[w], w);
    for (int64_t v = 0; v < n; v++)
        if (head[v] >= 0) queue[nq++] = v;

    while (nq > 0) {
        if (iters == qcap) {
            queue_sizes[qcap] = nq;
            return -1;
        }
        queue_sizes[iters++] = nq;
        int64_t ns = 0;
        for (int64_t qi = 0; qi < nq; qi++) {
            int64_t v = queue[qi];
            int64_t cv = counts[v];  /* C[v] cannot grow during v's turn */
            const int64_t *cset = arena + offsets[v];
            int64_t w = head[v];
            head[v] = -1;
            while (w >= 0) {
                int64_t after = next[w];
                int64_t cw = counts[w];
                int acc = (cw <= cv);
                if (acc && cw > 0)
                    acc = repro_is_subset(arena + offsets[w], cw, cset, cv);
                if (acc) {
                    arena[offsets[w] + cw] = v;
                    counts[w] = cw + 1;
                    edges[2 * ne] = v;
                    edges[2 * ne + 1] = w;
                    ne++;
                }
                int64_t c = cursor[w] + 1;
                cursor[w] = c;
                int64_t x = (c < lower[w]) ? indices[indptr[w] + c] : -1;
                lp[w] = x;
                if (x >= 0) {
                    repro_push_child(head, tail, next, x, w);
                    if (!mark[x]) {
                        mark[x] = 1;
                        spare[ns++] = x;
                    }
                }
                w = after;
            }
        }
        qsort(spare, (size_t)ns, sizeof(int64_t), repro_cmp_i64);
        for (int64_t i = 0; i < ns; i++) mark[spare[i]] = 0;
        int64_t *swap = queue;
        queue = spare;
        spare = swap;
        nq = ns;
    }
    return ne;
}
"""


@dataclass(frozen=True)
class NativeStatus:
    """Outcome of one backend resolution attempt.

    ``detail`` is human-readable and *specific*: which cached artifact
    was loaded, or exactly why the backend is unavailable (no cffi / no
    compiler / build failure / explicit disable) — the test suite's
    ``native`` marker reports it verbatim as the skip reason.
    """

    available: bool
    detail: str


def _digest() -> str:
    """Content hash keying the cached artifact: C source + interpreter."""
    h = hashlib.sha256()
    h.update(CDEF.encode())
    h.update(SOURCE.encode())
    h.update(sys.implementation.cache_tag.encode())
    return h.hexdigest()[:16]


def _module_name() -> str:
    return f"_repro_native_{_digest()}"


def _cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-native"


def _find_cached(cache: Path, name: str) -> Path | None:
    if not cache.is_dir():
        return None
    hits = sorted(cache.glob(f"{name}*.so"))
    return hits[-1] if hits else None


def _find_compiler() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


#: Run by :func:`_build` in a child interpreter: reads ``[cdef, source,
#: name, tmpdir]`` as JSON on stdin, compiles, prints the built path.
#: Keeping setuptools/distutils out of the calling process keeps its
#: memory footprint the same on a cold cache as on a warm one.
_BUILD_SCRIPT = """
import json, sys
import cffi
cdef, source, name, tmpdir = json.load(sys.stdin)
ffi = cffi.FFI()
ffi.cdef(cdef)
ffi.set_source(name, source, extra_compile_args=["-O3"])
print(ffi.compile(tmpdir=tmpdir))
"""


def _build(cache: Path, name: str) -> Path:
    """Compile the extension into ``cache`` and return the .so path.

    The compile runs in a child interpreter (``sys.executable``).  It
    builds in a per-pid scratch directory and publishes with an atomic
    rename, so concurrent first-builds (parallel test sessions) cannot
    observe each other's half-written artifacts.
    """
    cache.mkdir(parents=True, exist_ok=True)
    scratch = cache / f"build-{os.getpid()}"
    payload = json.dumps([CDEF, SOURCE, name, str(scratch)])
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _BUILD_SCRIPT],
            input=payload,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            # distutils chatter; surfaced only on failure
            tail = (proc.stdout + proc.stderr).strip().splitlines()[-3:]
            raise RuntimeError(
                f"compiler process exited with {proc.returncode} [{' | '.join(tail)}]"
            )
        built = Path(proc.stdout.strip().splitlines()[-1])
        final = cache / built.name
        os.replace(built, final)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return final


def _load(so_path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, so_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Memoised resolution: (status, extension module | None).
_resolved: tuple[NativeStatus, object | None] | None = None


def resolve(force: bool = False) -> tuple[NativeStatus, object | None]:
    """Resolve the native backend, building the extension if needed.

    Memoised after the first call (``force=True`` re-resolves, e.g.
    after the test suite flips :data:`DISABLE_ENV`).  Never raises: an
    unavailable backend is a ``NativeStatus(False, reason)``.
    """
    global _resolved
    if _resolved is None or force:
        _resolved = _resolve()
    return _resolved


def _resolve() -> tuple[NativeStatus, object | None]:
    flag = os.environ.get(DISABLE_ENV, "").strip().lower()
    if flag in ("0", "off", "no", "false"):
        return NativeStatus(False, f"disabled via {DISABLE_ENV}={flag}"), None
    try:
        import cffi  # noqa: F401 - probe for the optional build dep
    except ImportError:
        return NativeStatus(False, "cffi is not installed (pip install cffi)"), None
    name = _module_name()
    cache = _cache_dir()
    so_path = _find_cached(cache, name)
    built = False
    if so_path is None:
        compiler = _find_compiler()
        if compiler is None:
            return (
                NativeStatus(
                    False, "no C compiler found (looked for $CC, cc, gcc, clang)"
                ),
                None,
            )
        try:
            so_path = _build(cache, name)
        except Exception as exc:
            return NativeStatus(False, f"build failed: {exc}"), None
        built = True
    try:
        module = _load(so_path, name)
    except Exception as exc:
        return (
            NativeStatus(
                False,
                f"loading the cached extension failed: {exc} "
                f"(delete {so_path} to force a rebuild)",
            ),
            None,
        )
    verb = "built" if built else "cached"
    return NativeStatus(True, f"{verb} {so_path.name}"), module
