"""Native (compiled, nogil) kernel backend for the unified runtime.

The paper's headline claim is multithreaded scaling on shared memory;
CPython's GIL forced this reproduction's true-parallel path through
worker *processes* (fork + shared segment + barrier protocol).  This
package closes that gap: the round bodies of
:mod:`repro.core.runtime.rounds` and the serial asynchronous sweep of
:mod:`repro.core.runtime.driver` translated to C, compiled once via cffi
into a cached ``.so`` (:mod:`~repro.core.native.build`), and exposed as
drop-in slice functions (:mod:`~repro.core.native.bodies`) that operate
on the canonical schema arrays in place and release the GIL — so the
``native`` engine (:mod:`repro.core.engines`) runs a plain thread team
genuinely in parallel: no segment remap protocol, no barrier agent, no
worker reaping.

Everything degrades cleanly: when no toolchain (or no cffi) is present,
:func:`native_available` is ``False`` with a specific reason in
:func:`native_status`, and the ``native`` engine transparently runs the
NumPy round bodies instead — same results, GIL-bound speed.  Tier-1
passes either way.
"""

from repro.core.native.bodies import (
    NativeUnavailableError,
    native_round_body,
    native_run_async_slice,
    native_run_sync_slice,
    native_sweep,
)
from repro.core.native.build import CACHE_ENV, DISABLE_ENV, NativeStatus, resolve

__all__ = [
    "CACHE_ENV",
    "DISABLE_ENV",
    "NativeStatus",
    "NativeUnavailableError",
    "native_available",
    "native_status",
    "native_round_body",
    "native_run_sync_slice",
    "native_run_async_slice",
    "native_sweep",
]


def native_status(force: bool = False) -> NativeStatus:
    """Availability + human-readable detail (builds on first call).

    ``detail`` distinguishes the failure modes callers report: missing
    cffi, no C compiler, a failed build, or an explicit
    ``REPRO_NATIVE=0`` opt-out.  Pass ``force=True`` to re-resolve after
    changing the environment.
    """
    return resolve(force)[0]


def native_available() -> bool:
    """Whether the compiled backend is loaded (builds on first call)."""
    return resolve()[0].available
