"""Unified extraction runtime: one schedule driver, pluggable backends.

The paper's algorithm is one loop run under many execution regimes.  This
package implements that loop **once** (:mod:`~repro.core.runtime.driver`)
and parameterizes it along two axes:

* **StateBackend** — where the algorithm's arrays live
  (:class:`LocalState` in-process, :class:`SharedSegmentState` in a
  shared-memory segment), both exposing the same canonical array schema
  (:mod:`~repro.core.runtime.layout`);
* **ExecutorBackend** — who runs each round's slices
  (:class:`SerialExecutor`, :class:`ThreadTeamExecutor`,
  :class:`NativeThreadTeamExecutor`, :class:`ProcessTeamExecutor`).

The built-in engines are thin pairings of these (see
:mod:`repro.core.engines`); a third-party backend is one new class plus a
:func:`backend_run_fn` registration — see the README's Architecture
section.
"""

from repro.core.runtime.driver import (
    SCHEDULES,
    VARIANTS,
    backend_run_fn,
    drive,
    record_kernel_path,
)
from repro.core.runtime.executors import (
    NativeThreadTeamExecutor,
    ProcessTeamExecutor,
    SerialExecutor,
    ThreadTeamExecutor,
    WorkerTeamError,
)
from repro.core.runtime.layout import build_spec
from repro.core.runtime.rounds import round_body, run_async_slice, run_sync_slice
from repro.core.runtime.state import LocalState, SharedSegmentState, StateBackend

__all__ = [
    "drive",
    "record_kernel_path",
    "backend_run_fn",
    "SCHEDULES",
    "VARIANTS",
    "StateBackend",
    "LocalState",
    "SharedSegmentState",
    "SerialExecutor",
    "ThreadTeamExecutor",
    "NativeThreadTeamExecutor",
    "ProcessTeamExecutor",
    "WorkerTeamError",
    "build_spec",
    "round_body",
    "run_sync_slice",
    "run_async_slice",
]
