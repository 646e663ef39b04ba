"""The four workloads: inputs from the seed, one answer per sample,
correctness checks outside the timed region, and the traced twin of
each answer built from the same public calls.

Every workload follows one protocol:

* ``setup()`` / ``teardown()`` — bring the system up and down (repeated
  to time ``setup_s``);
* ``step(i)`` — one untraced sample, timed and checked;
* ``traced_step(i, tracer)`` — the untraced answer, then its traced
  decomposition on the same input, checked to give the same answer;
* ``attach_reference(ref_s)`` — called after every step with the host
  reference time measured right after it;
* ``end_to_end()`` / ``details()`` / ``layers(tracer, names)`` — the metrics.

A failed check raises :class:`CheckFailed`; a library error raises a
:class:`repro.ReproError`; the runner counts either as a failed
operation.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from benchlib import (
    BenchError,
    Tracer,
    highest_percentile,
    mean,
    peak_rss_mb_pid,
    peak_rss_mb_self,
    percentile,
    resource_tracker_pid,
    stop_children,
)
from metrics import RESIDUAL
from repro import (
    ExtractionConfig,
    Extractor,
    ReproError,
    bfs_renumber,
    is_chordal,
    rmat_b,
    rmat_er,
    rmat_g,
    save_graph,
    verify_extraction,
)
from repro.chordality.maximality import addable_edges
from repro.core.incremental import IncrementalExtractor
from repro.core.maximalize import maximalize_chordal_edges
from repro.graph.builder import from_edge_array
from repro.graph.generators.chordal import random_mutation_stream
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.shard import (
    build_plan,
    certify_stitched,
    default_shard_config,
    run_shards,
    stitch_shards,
)

FAMILIES = (("er", rmat_er), ("g", rmat_g), ("b", rmat_b))

#: Seed of the graphs that set-up runs on (warm-up answers, the serve
#: session).  Fixed, so ``setup_s`` times the same work under every
#: ``--seed``; the measured answers and mutations come from ``--seed``.
WARMUP_SEED = 0


class CheckFailed(Exception):
    """An answer or a traced decomposition failed its correctness check."""


def canonical_edges(edges: np.ndarray) -> np.ndarray:
    """``u < v`` rows in lexicographic order (the session's output form)."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    order = np.lexsort((hi, lo))
    return np.column_stack((lo[order], hi[order]))


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def ms(seconds: float) -> float:
    return seconds * 1000.0


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


class Workload:
    name = ""
    setup_reps = 5
    min_answers = 21
    #: Per-layer metrics this workload exercises; the rest are idle.
    layer_prefixes: tuple[str, ...] = ("trace.",)

    def __init__(self, seed: int, build_dir: Path) -> None:
        self.seed = seed
        self.build_dir = build_dir
        self.answer_s: list[float] = []
        # kind -> each timing of that kind over the reference time taken
        # right after its step (see HostReference); filled by attach_reference
        self.rel: dict[str, list[float]] = {"answer": []}
        self._pending: list[tuple[str, float]] = []
        self.input_edges: list[int] = []
        self.fractions: list[float] = []
        self.inputs: dict[int, dict] = {}
        self.kernel_path = "unknown"
        # traced run: (traced seconds, untraced seconds, {layer: self s})
        self.decomposed: list[tuple[float, float, dict[str, float]]] = []

    # -- protocol ---------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def step(self, i: int) -> None:
        raise NotImplementedError

    def traced_step(self, i: int, tracer: Tracer) -> None:
        raise NotImplementedError

    def enough(self, traced: bool) -> bool:
        if traced:
            return len(self.decomposed) >= 3
        return len(self.answer_s) >= self.min_answers

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_self()

    # -- metrics ----------------------------------------------------------

    def record_answer(self, seconds: float, edges_in: int, retained: int) -> None:
        self.answer_s.append(seconds)
        self._pending.append(("answer", seconds))
        self.input_edges.append(edges_in)
        self.fractions.append(retained / edges_in)

    def attach_reference(self, ref_s: float) -> None:
        """Express the last step's timings in units of ``ref_s``, the
        reference task timed right after that step.  Pairing each answer
        with its neighbouring reference follows host phases of a few
        seconds, which a ratio of run medians averages away."""
        for kind, seconds in self._pending:
            self.rel.setdefault(kind, []).append(seconds / ref_s)
        self._pending.clear()

    def end_to_end(self) -> dict[str, float]:
        """Answer latency and throughput in units of the host reference time."""
        rel = self.rel["answer"]
        return {
            "answer_p50_rel": percentile(rel, 0.5, f"{self.name} answer"),
            "edges_per_ref": statistics.median(e / r for e, r in zip(self.input_edges, rel)),
            "chordal_fraction": mean(self.fractions),
        }

    def details(self) -> dict[str, tuple[float, str]]:
        """Raw wall-clock figures, printed beside the JSON line."""
        p, value = highest_percentile(self.answer_s)
        return {
            "answers": (len(self.answer_s), "count"),
            "answer_p50_ms": (ms(percentile(self.answer_s, 0.5, "answer")), "ms"),
            f"answer_p{p}_ms": (ms(value), "ms"),
            "edges_per_s": (
                statistics.median(e / t for e, t in zip(self.input_edges, self.answer_s)),
                "1/s",
            ),
        }

    def samples(self) -> dict[str, list[float]]:
        return {"answer_s": self.answer_s}

    def context(self) -> dict:
        return {"kernel_path": self.kernel_path, "inputs": list(self.inputs.values())}

    def layers(self, tracer: Tracer, names: list[str]) -> dict[str, float]:
        """Per-layer metrics ``names``: mean self time and counts per traced answer."""
        if not self.decomposed:
            raise BenchError(f"{self.name}: no traced answers")
        n = len(self.decomposed)
        residual, max_share = RESIDUAL[self.name]

        def metric(span_name: str) -> str:  # the root's own time is the residual
            return f"{span_name}_ms" if span_name else residual

        out = {name: 0.0 for name in names}
        spans = {key for _, _, layers in self.decomposed for key in layers}
        for key in spans:
            if metric(key) not in out:
                raise BenchError(f"span {key!r} has no per-layer metric")
            out[metric(key)] = ms(sum(layers.get(key, 0.0) for _, _, layers in self.decomposed) / n)
        out.update({key: total / n for key, total in tracer.counts.items()})
        out["trace.answer_ms"] = ms(mean([t for t, _, _ in self.decomposed]))
        untraced_ms = ms(mean([u for _, u, _ in self.decomposed]))
        out["trace.overhead_ms"] = out["trace.answer_ms"] - untraced_ms
        share = out[residual] / out["trace.answer_ms"]
        if not 0.0 <= share <= max_share:
            raise BenchError(
                f"{self.name}: the named layers leave {share:.1%} of the traced answer "
                f"unaccounted (allowed 0 to {max_share:.0%})"
            )
        return out

    def add_decomposition(self, tracer: Tracer, root: int, untraced_s: float) -> None:
        total, layers = tracer.decompose(root)
        self.decomposed.append((total, untraced_s, layers))


class _GraphStream(Workload):
    """Distinct seeded R-MAT graphs, ER/G/B in a fixed rotation; each
    call builds a fresh graph object, so no answer sees another's caches."""

    scale = 0

    def graph(self, i: int):
        family, gen = FAMILIES[i % len(FAMILIES)]
        seed = self.seed * 100_003 + i
        g = gen(self.scale, seed=seed)
        self.inputs[i] = {"family": family, "scale": self.scale, "seed": seed,
                          "V": g.num_vertices, "E": g.num_edges}
        return g

    def check(self, i: int, g, r) -> None:
        """Correctness of an answer, outside the timed region."""

    def step(self, i: int) -> None:
        g, seconds, r = self.answer(i)
        self.check(i, g, r)
        self.record_answer(seconds, g.num_edges, r.num_chordal_edges)

    def traced_step(self, i: int, tracer: Tracer) -> None:
        # Alternate which twin runs first, and check only after both,
        # so neither twin inherits the other's warm-up or clean-up.
        if i % 2:
            root, edges = self.decompose(i, tracer)
            g, untraced, r = self.answer(i)
        else:
            g, untraced, r = self.answer(i)
            root, edges = self.decompose(i, tracer)
        self.check(i, g, r)
        require(np.array_equal(edges, r.edges),
                f"graph {i}: traced decomposition differs from extract()")
        self.add_decomposition(tracer, root, untraced)


class BulkS13(_GraphStream):
    """One ``Extractor(renumber="bfs")`` on the default engine and schedule."""

    name = "bulk_s13"
    scale = 13
    layer_prefixes = ("trace.", "graph.bfs.", "core.runtime.", "core.session.")

    def setup(self) -> None:
        self.ex = Extractor(ExtractionConfig(renumber="bfs"))
        self.ex.extract(rmat_er(self.scale, seed=WARMUP_SEED))

    def teardown(self) -> None:
        self.ex.close()

    def answer(self, i: int):
        g = self.graph(i)
        seconds, r = timed(self.ex.extract, g)
        self.kernel_path = r.kernel_path
        return g, seconds, r

    def check(self, i: int, g, r) -> None:
        report = verify_extraction(g, r, check_maximal=False)
        require(report.ok, f"graph {i}: {report}")

    def decompose(self, i: int, tracer: Tracer):
        """renumber -> rounds -> map-back, as ``Extractor.extract`` runs them."""
        g = self.graph(i)
        cfg = self.ex.config
        with tracer.span("answer", i) as root:
            with tracer.span("graph.bfs.renumber", i):
                work, new_of_old = bfs_renumber(g)
            with tracer.span("core.runtime.rounds", i):
                edges, queue_sizes, _ = cfg.engine_spec.run(work, cfg, None)
            old_of_new = np.empty_like(new_of_old)
            old_of_new[new_of_old] = np.arange(new_of_old.size)
            edges = canonical_edges(
                np.column_stack((old_of_new[edges[:, 0]], old_of_new[edges[:, 1]]))
            )
        tracer.count("core.runtime.iterations", len(queue_sizes))
        tracer.count("core.runtime.queue_total", sum(queue_sizes))
        return root, edges


class CertifyS8(_GraphStream):
    """``extract --maximalize --verify``: answer = extract + maximal certificate."""

    name = "certify_s8"
    scale = 8
    layer_prefixes = ("trace.", "core.runtime.", "core.session.", "core.maximalize.",
                      "chordality.")

    def setup(self) -> None:
        self.ex = Extractor(ExtractionConfig(maximalize=True))
        g = rmat_er(self.scale, seed=WARMUP_SEED)
        verify_extraction(g, self.ex.extract(g), check_maximal=True)

    def teardown(self) -> None:
        self.ex.close()

    def answer(self, i: int):
        g = self.graph(i)
        t0 = time.perf_counter()
        r = self.ex.extract(g)
        report = verify_extraction(g, r, check_maximal=True)
        seconds = time.perf_counter() - t0
        require(report.ok, f"graph {i}: {report}")
        self.kernel_path = r.kernel_path
        return g, seconds, r

    def decompose(self, i: int, tracer: Tracer):
        """rounds -> maximalize -> canonicalize -> the ``verify_extraction`` checks."""
        g = self.graph(i)
        cfg = self.ex.config.replace(maximalize=False)
        with tracer.span("answer", i) as root:
            with tracer.span("core.runtime.rounds", i):
                edges, queue_sizes, _ = cfg.engine_spec.run(g, cfg, None)
            with tracer.span("core.maximalize.maximalize", i):
                full, gap = maximalize_chordal_edges(g, edges)
            full = canonical_edges(full)
            with tracer.span("chordality.verify", i):
                sub = from_edge_array(g.num_vertices, full, allow_out_of_range=True)
                invented = sub.edge_set() - g.edge_set()
                with tracer.span("chordality.is_chordal", i):
                    chordal = is_chordal(sub)
                with tracer.span("chordality.addable_scan", i):
                    addable = addable_edges(g, sub, limit=3) if chordal else []
        require(not invented and chordal and not addable,
                f"graph {i}: traced certificate rejects the answer")
        tracer.count("core.runtime.iterations", len(queue_sizes))
        tracer.count("core.runtime.queue_total", sum(queue_sizes))
        tracer.count("core.maximalize.candidates", g.num_edges - edges.shape[0])
        tracer.count("core.maximalize.gap_edges", gap)
        return root, full

    def layers(self, tracer: Tracer, names: list[str]) -> dict[str, float]:
        out = super().layers(tracer, names)
        c = tracer.counts
        cand = c["core.maximalize.candidates"]
        out["core.maximalize.accept_ratio"] = c["core.maximalize.gap_edges"] / cand if cand else 0.0
        return out


class ShardedS12(Workload):
    """plan (8 shards) -> run -> stitch over seeded edge-list files.

    Set-up writes ``num_files`` files and answer ``i`` runs on file
    ``i % num_files``: one graph's cost moves a run's median by 10-20%
    from seed to seed, several graphs per run average that out."""

    name = "sharded_s12"
    scale = 12
    layer_prefixes = ("trace.", "shard.")
    num_shards = 8
    num_files = 4

    def setup(self) -> None:
        self.paths: list[Path] = []
        self.edge_counts: list[int] = []
        for k in range(self.num_files):
            seed = self.seed * 100_003 + k
            g = rmat_er(self.scale, seed=seed)
            path = self.build_dir / f"sharded-{os.getpid()}-{k}.txt"
            save_graph(g, path)
            self.paths.append(path)
            self.edge_counts.append(g.num_edges)
            self.inputs[k] = {"family": "er", "scale": self.scale, "seed": seed,
                              "V": g.num_vertices, "E": g.num_edges}
        self.certified: dict[int, np.ndarray] = {}
        cfg = default_shard_config()
        if cfg.engine_spec.supports_native:
            from repro.core.native import native_available

            self.kernel_path = "native" if native_available() else "numpy"
        else:
            self.kernel_path = "numpy"

    def teardown(self) -> None:
        for path in getattr(self, "paths", []):
            path.unlink(missing_ok=True)

    def _check(self, i: int, result) -> None:
        k = i % self.num_files
        if k not in self.certified:
            problems = certify_stitched(result)
            require(not problems, f"sample {i}: certify_stitched: {problems}")
            self.certified[k] = result.edges
        else:
            require(np.array_equal(result.edges, self.certified[k]),
                    f"sample {i}: stitched edges differ from the certified answer")

    def _pipeline(self, i: int, tracer: Tracer | None):
        """One answer in a fresh spill directory; spans when ``tracer`` is given."""
        spill = self.build_dir / f"spill-{os.getpid()}-{i}-{int(tracer is not None)}"
        shutil.rmtree(spill, ignore_errors=True)
        span = tracer.span if tracer else (lambda name, answer: nullcontext(None))
        try:
            t0 = time.perf_counter()
            with span("answer", i) as root:
                with span("shard.plan", i):
                    plan, _ = build_plan(self.paths[i % self.num_files], self.num_shards, spill)
                with span("shard.run", i):
                    run_shards(plan)
                with span("shard.stitch", i):
                    result = stitch_shards(plan)
            seconds = time.perf_counter() - t0
            self._check(i, result)
        finally:
            shutil.rmtree(spill, ignore_errors=True)
        return root, seconds, result

    def step(self, i: int) -> None:
        _, seconds, result = self._pipeline(i, None)
        self.record_answer(seconds, self.edge_counts[i % self.num_files], result.num_chordal_edges)

    def traced_step(self, i: int, tracer: Tracer) -> None:
        if i % 2:
            root, _, result = self._pipeline(i, tracer)
            _, untraced, _ = self._pipeline(i, None)
        else:
            _, untraced, _ = self._pipeline(i, None)
            root, _, result = self._pipeline(i, tracer)
        tracer.count("shard.boundary_edges", result.boundary_edges)
        tracer.count("shard.admitted_boundary", result.admitted_boundary)
        tracer.count("shard.stitch_rounds", result.rounds)
        self.add_decomposition(tracer, root, untraced)

    def layers(self, tracer: Tracer, names: list[str]) -> dict[str, float]:
        out = super().layers(tracer, names)
        c = tracer.counts
        boundary = c["shard.boundary_edges"]
        out["shard.admit_ratio"] = c["shard.admitted_boundary"] / boundary if boundary else 0.0
        return out


class ServeS12(Workload):
    """Closed loop, one request in flight, 2 connections to a
    ``repro serve`` subprocess (1 pool x 2 workers).  Each step: one
    cache-miss extract of a fresh R-MAT ER scale-12 graph, one cache-hit
    extract of the previous step's graph, two 50-op mutate requests."""

    name = "serve_s12"
    layer_prefixes = ("trace.", "service.", "core.procpool.", "core.incremental.")
    setup_reps = 3
    min_answers = 22  # hits trail misses by one step
    scale = 12
    batch_ops = 50
    pools = 1
    workers = 2
    max_batches = 1200
    extract_config = {"engine": "process"}

    def __init__(self, seed: int, build_dir: Path) -> None:
        super().__init__(seed, build_dir)
        self.session_graph = rmat_b(9, seed=WARMUP_SEED)
        self.ops = random_mutation_stream(
            self.session_graph, self.batch_ops * self.max_batches, seed=seed
        )
        self.proc: subprocess.Popen | None = None
        self.sock: str | None = None
        self.clients: list[ServiceClient] = []
        self.hit_s: list[float] = []
        self.mutate_s: list[float] = []
        self.ops_applied = 0
        self.requests = 0
        self.request_s = 0.0
        self.prev: tuple | None = None
        self.batches_sent = 0
        self.model: set[tuple[int, int]] = set(self.session_graph.edge_set())
        self.inputs = {"session": {
            "family": "b", "scale": 9, "seed": WARMUP_SEED, "role": "mutate session",
            "V": self.session_graph.num_vertices, "E": self.session_graph.num_edges}}
        # traced-run state
        self.pex: Extractor | None = None
        self.inc: IncrementalExtractor | None = None
        self.twin_hits = 0
        self.procpool_s: list[float] = []
        self.apply_s: list[float] = []

    # -- server lifecycle -------------------------------------------------

    def setup(self) -> None:
        self.sock = os.path.relpath(self.build_dir / f"serve-{os.getpid()}.sock")
        log = open(self.build_dir / "serve.log", "ab")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        with log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--socket", self.sock,
                 "--pools", str(self.pools), "--num-workers", str(self.workers)],
                env=env, stdout=log, stderr=log,
            )
        deadline = time.monotonic() + 60
        while not os.path.exists(self.sock):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError("repro serve did not come up (see serve.log)")
            time.sleep(0.005)
        self.clients = [ServiceClient(self.sock, connect_retries=200, retry_delay=0.01)
                        for _ in range(2)]
        self.clients[0].ping()
        self.clients[1].mutate(graph=self.session_graph)

    def teardown(self) -> None:
        if self.pex is not None:
            self.pex.close()
            self.pex = None
        proc, self.proc = self.proc, None
        if proc is not None and proc.poll() is None:
            try:
                self.clients[0].shutdown()  # drains, closes the pools, exits
            except (IndexError, ReproError, OSError):
                proc.terminate()  # SIGTERM drains the same way
        for client in self.clients:
            client.close()
        self.clients = []
        if proc is not None:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            # The server's pool workers and resource tracker, adopted by
            # this process (see become_subreaper), end after it does.
            stop_children(keep=(resource_tracker_pid(),))
        if self.sock is not None:
            Path(self.sock).unlink(missing_ok=True)

    def peak_rss_mb(self) -> float:
        if self.proc is None:
            raise BenchError("server is not running")
        return peak_rss_mb_pid(self.proc.pid)

    # -- one step ---------------------------------------------------------

    def _request(self, fn, *args, **kwargs):
        seconds, out = timed(fn, *args, **kwargs)
        self.requests += 1
        self.request_s += seconds
        return seconds, out

    def _miss(self, i: int):
        seed = self.seed * 100_003 + i
        g = rmat_er(self.scale, seed=seed)
        self.inputs[i] = {"family": "er", "scale": self.scale, "seed": seed,
                          "V": g.num_vertices, "E": g.num_edges}
        seconds, res = self._request(
            self.clients[0].extract, g, config=self.extract_config
        )
        require(not res.cached, f"step {i}: fresh graph served from cache")
        report = verify_extraction(g, res.edges, check_maximal=False)
        require(report.ok, f"step {i}: miss answer: {report}")
        self.kernel_path = res.kernel_path
        return g, seconds, res

    def _hit(self, i: int) -> float:
        g, edges = self.prev
        seconds, res = self._request(
            self.clients[0].extract, g, config=self.extract_config
        )
        require(res.cached, f"step {i}: repeat graph missed the cache")
        require(np.array_equal(res.edges, edges), f"step {i}: cached answer differs")
        return seconds

    def _mutate(self, i: int):
        if self.batches_sent >= self.max_batches:
            raise BenchError("mutation stream exhausted; raise max_batches")
        k = self.batches_sent
        batch = self.ops[k * self.batch_ops:(k + 1) * self.batch_ops]
        self.batches_sent += 1
        seconds, res = self._request(self.clients[1].mutate, ops=batch)
        for op, u, v in batch:
            edge = (min(u, v), max(u, v))
            if op == "insert":
                self.model.add(edge)
            else:
                self.model.discard(edge)
        require(res.applied is not None and res.applied["applied"] == len(batch),
                f"step {i}: mutate applied {res.applied}")
        current = from_edge_array(
            self.session_graph.num_vertices,
            np.asarray(sorted(self.model), dtype=np.int64).reshape(-1, 2),
        )
        require(res.num_graph_edges == current.num_edges,
                f"step {i}: server graph has {res.num_graph_edges} edges, "
                f"expected {current.num_edges}")
        report = verify_extraction(current, res.edges, check_maximal=False)
        require(report.ok, f"step {i}: mutate answer: {report}")
        self.mutate_s.append(seconds)
        self._pending.append(("mutate", seconds))
        self.ops_applied += len(batch)
        return batch, res

    def step(self, i: int) -> None:
        g, seconds, res = self._miss(i)
        self.record_answer(seconds, g.num_edges, res.num_edges)
        if self.prev is not None:
            self.hit_s.append(self._hit(i))
            self._pending.append(("hit", self.hit_s[-1]))
        self.prev = (g, res.edges)
        for _ in range(2):
            self._mutate(i)

    def enough(self, traced: bool) -> bool:
        if traced:
            return len(self.decomposed) >= 3
        return min(len(self.answer_s), len(self.hit_s) + 1) >= self.min_answers

    def traced_step(self, i: int, tracer: Tracer) -> None:
        if self.inc is None:
            self.pex = Extractor(ExtractionConfig(engine="process", num_workers=self.workers))
            self.pex.extract(rmat_er(8, seed=WARMUP_SEED))  # pool spawn outside the spans
            t0 = time.perf_counter()
            self.inc = IncrementalExtractor(self.session_graph, config=ExtractionConfig())
            self.open_s = time.perf_counter() - t0
        g, seconds, res = self._miss(i)
        self.record_answer(seconds, g.num_edges, res.num_edges)
        with tracer.span("core.procpool.extract", i):
            local = self.pex.extract(g)
        self.procpool_s.append(tracer.spans[-1].seconds)
        require(np.array_equal(local.edges, res.edges),
                f"step {i}: in-process process engine differs from the server")
        if self.prev is not None:
            untraced = self._hit(i)
            pg, _ = self.prev
            enc_s, payload = timed(protocol.encode_graph, pg)
            dec_s, decoded = timed(protocol.decode_graph, payload)
            hash_s, _ = timed(protocol.graph_content_hash, decoded)
            traced = self._hit(i)
            self.twin_hits += 1
            root = tracer.add_span("answer", traced, i)
            tracer.add_span("service.protocol.encode_graph", enc_s, i, root)
            tracer.add_span("service.protocol.decode_graph", dec_s, i, root)
            tracer.add_span("service.protocol.content_hash", hash_s, i, root)
            self.add_decomposition(tracer, root, untraced)
        self.prev = (g, res.edges)
        before = dict(self.inc.stats)
        for _ in range(2):
            batch, server = self._mutate(i)
            with tracer.span("core.incremental.apply_batch", i):
                self.inc.apply_batch(batch)
            self.apply_s.append(tracer.spans[-1].seconds)
        for key in ("witness_retests", "repair_evictions", "reoffer_accepts", "full_rebuilds"):
            tracer.count(f"core.incremental.{key}", self.inc.stats[key] - before[key])
        require(np.array_equal(self.inc.edges, server.edges),
                f"step {i}: in-process apply_batch differs from the server session")

    # -- metrics ----------------------------------------------------------

    @staticmethod
    def step_p50(miss: list[float], hit: list[float], mutate: list[float]) -> float:
        """Median time of one step: the per-request medians of its miss,
        its hit and its two mutates, added up."""
        return (percentile(miss, 0.5, "miss") + percentile(hit, 0.5, "hit")
                + 2 * percentile(mutate, 0.5, "mutate"))

    def end_to_end(self) -> dict[str, float]:
        """``answer_p50_rel`` is the cache-miss round trip; ``edges_per_ref``
        is the whole step's throughput: the edges of its miss graph and
        hit graph plus its mutated edges, per median step time."""
        out = super().end_to_end()
        step_edges = 2 * mean(self.input_edges) + 2 * self.batch_ops
        out["edges_per_ref"] = step_edges / self.step_p50(
            self.rel["answer"], self.rel["hit"], self.rel["mutate"])
        return out

    def details(self) -> dict[str, tuple[float, str]]:
        out = super().details()
        out["step_p50_ms"] = (ms(self.step_p50(self.answer_s, self.hit_s, self.mutate_s)), "ms")
        p, hit_hi = highest_percentile(self.hit_s)
        q, mut_hi = highest_percentile(self.mutate_s)
        out.update({
            "hits": (len(self.hit_s), "count"),
            "hit_p50_ms": (ms(percentile(self.hit_s, 0.5, "hit")), "ms"),
            f"hit_p{p}_ms": (ms(hit_hi), "ms"),
            "mutates": (len(self.mutate_s), "count"),
            "mutate_p50_ms": (ms(percentile(self.mutate_s, 0.5, "mutate")), "ms"),
            f"mutate_p{q}_ms": (ms(mut_hi), "ms"),
            "mutations_per_s": (self.ops_applied / sum(self.mutate_s), "1/s"),
            "requests_per_s": (self.requests / self.request_s, "1/s"),
        })
        return out

    def samples(self) -> dict[str, list[float]]:
        return {"answer_s": self.answer_s, "hit_s": self.hit_s, "mutate_s": self.mutate_s}

    def context(self) -> dict:
        ctx = super().context()
        ctx["server_pools"] = self.pools
        ctx["server_workers_per_pool"] = self.workers
        return ctx

    def layers(self, tracer: Tracer, names: list[str]) -> dict[str, float]:
        out = super().layers(tracer, names)
        c = tracer.counts
        batches = len(self.apply_s)
        out["core.procpool.extract_ms"] = ms(mean(self.procpool_s))
        out["core.incremental.apply_batch_ms"] = ms(mean(self.apply_s))
        out["core.incremental.open_s"] = self.open_s
        for key in ("witness_retests", "repair_evictions", "reoffer_accepts", "full_rebuilds"):
            out[f"core.incremental.{key}"] = c.get(f"core.incremental.{key}", 0) / batches
        stats = self.clients[0].stats()
        hits = stats["cache_hits"] - self.twin_hits
        misses = stats["extractions"]
        out["service.server.cache_hit_ratio"] = hits / (hits + misses)
        out["service.server.pool_dispatches"] = stats["pool_dispatches"]
        out["service.server.busy_rejections"] = stats["busy_rejections"]
        out["service.server.timeouts"] = stats["timeouts"]
        return out


WORKLOADS = {w.name: w for w in (BulkS13, CertifyS8, ServeS12, ShardedS12)}
