"""Pins of the compiled serial sweep against the Python sweep.

The default ``superstep`` asynchronous extraction runs the
maximal-progress sweep as one compiled call when the native backend
resolves (:func:`repro.core.native.native_sweep`); the Python sweep of
:mod:`repro.core.runtime.driver` stays the fallback (``REPRO_NATIVE=0``)
and the path of traced and thread-sliced runs.  The two must agree on
the edges *in service order* and on the queue sizes, and both must
match the ``reference`` engine's asynchronous output (its edge set and
queue sizes; the reference serves a turn's children in adjacency order,
so only its row order differs).

Comparisons against the compiled path are ``native``-marked (skipped,
with the reason, where the extension does not resolve); the fallback
halves run on every host.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.extract import VARIANTS, extract_maximal_chordal_subgraph
from repro.core.native import DISABLE_ENV
from repro.core.native.build import resolve
from repro.core.reference import reference_max_chordal
from repro.core.runtime import LocalState, SerialExecutor, drive
from repro.errors import ConvergenceError
from repro.graph.generators.classic import complete_graph
from repro.graph.generators.rmat import rmat_b, rmat_er, rmat_g
from tests.test_engine_equivalence import GENERATORS

#: (id, maker, arg): the equivalence harness's shapes plus R-MAT ER/G/B
#: at scales 6-12.
CASES = [
    (f"{name}-{seed}", maker, seed) for name, maker in GENERATORS.items() for seed in (0, 1)
]
SHAPES = list(CASES)
CASES += [
    (f"{gen.__name__}-s{scale}", gen, scale)
    for gen in (rmat_er, rmat_g, rmat_b)
    for scale in range(6, 13)
]


def _graph(maker, arg):
    if maker in (rmat_er, rmat_g, rmat_b):
        return maker(arg, seed=arg)
    return maker(arg)


@contextmanager
def python_sweep():
    """Force the Python sweep through the documented opt-out."""
    mp = pytest.MonkeyPatch()
    mp.setenv(DISABLE_ENV, "0")
    resolve(force=True)
    try:
        yield
    finally:
        mp.undo()
        resolve(force=True)


def _sweep(graph, variant="optimized", **kwargs):
    return drive(LocalState(graph), SerialExecutor(), variant=variant, **kwargs)


def _canonical(edges: np.ndarray) -> np.ndarray:
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    order = np.lexsort((hi, lo))
    return np.column_stack((lo[order], hi[order]))


@pytest.mark.native
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_compiled_sweep_matches_python_and_reference(case, variant):
    _, maker, arg = case
    graph = _graph(maker, arg)
    edges, queue_sizes, trace = _sweep(graph, variant)
    assert trace is None
    with python_sweep():
        py_edges, py_queue_sizes, _ = _sweep(graph, variant)
    assert np.array_equal(edges, py_edges)
    assert queue_sizes == py_queue_sizes
    ref_edges, ref_queue_sizes = reference_max_chordal(graph, schedule="asynchronous")
    assert np.array_equal(_canonical(edges), _canonical(ref_edges))
    assert queue_sizes == ref_queue_sizes


@pytest.mark.parametrize("case", SHAPES, ids=[c[0] for c in SHAPES])
def test_python_sweep_matches_reference(case):
    """The fallback half of the pin, on every host."""
    _, maker, arg = case
    graph = _graph(maker, arg)
    with python_sweep():
        edges, queue_sizes, _ = _sweep(graph)
    ref_edges, ref_queue_sizes = reference_max_chordal(graph, schedule="asynchronous")
    assert np.array_equal(_canonical(edges), _canonical(ref_edges))
    assert queue_sizes == ref_queue_sizes


def test_iteration_budget_python_sweep():
    with python_sweep():
        with pytest.raises(ConvergenceError, match="iteration budget 1 "):
            _sweep(complete_graph(6), max_iterations=1)


@pytest.mark.native
def test_iteration_budget_compiled_sweep():
    with pytest.raises(ConvergenceError, match=r"iteration budget 1 \(queue=1\)"):
        _sweep(complete_graph(6), max_iterations=1)
    # k-clique needs exactly k - 1 iterations: a budget of 5 suffices.
    _, queue_sizes, _ = _sweep(complete_graph(6), max_iterations=5)
    assert len(queue_sizes) == 5


@pytest.mark.native
def test_traced_runs_take_the_python_sweep():
    graph = rmat_b(8, seed=2)
    result = extract_maximal_chordal_subgraph(graph, collect_trace=True)
    assert result.kernel_path == "numpy"
    with python_sweep():
        fallback = extract_maximal_chordal_subgraph(graph, collect_trace=True)
    assert np.array_equal(result.edges, fallback.edges)
    assert result.queue_sizes == fallback.queue_sizes
    assert result.trace.num_iterations == fallback.trace.num_iterations
    for got, want in zip(result.trace.iterations, fallback.trace.iterations):
        assert np.array_equal(got.work_items, want.work_items)
        assert dataclasses.replace(got, work_items=None) == dataclasses.replace(
            want, work_items=None
        )
    untraced = extract_maximal_chordal_subgraph(graph)
    assert untraced.kernel_path == "native"
    assert np.array_equal(untraced.edges, result.edges)
