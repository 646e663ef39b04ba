"""What each per-layer metric should move, and where each workload's
unaccounted answer time goes.

Names, units and directions of every metric live in ``BENCHMARK.json``;
``run.py`` reads them from there.  Per-layer metrics come from the
traced run; a layer a workload never calls reports 0 there.
"""

from __future__ import annotations

SERVE_BOTH = [("answer_p50_rel", "serve_s12"), ("edges_per_ref", "serve_s12")]

#: per-layer metric -> [(end-to-end metric, workload) it should move].
#: On ``serve_s12``, ``answer_p50_rel`` is the cache-miss extract round
#: trip and ``edges_per_ref`` the throughput of the whole step (miss,
#: hit and two mutates), so the hit and mutate paths move only the latter.
TARGETS = {
    "trace.answer_ms": [("answer_p50_rel", "all")],
    "trace.overhead_ms": [],
    "graph.bfs.renumber_ms": [("answer_p50_rel", "bulk_s13"), ("edges_per_ref", "bulk_s13")],
    "core.runtime.rounds_ms": [("answer_p50_rel", "bulk_s13")],
    "core.runtime.iterations": [("answer_p50_rel", "bulk_s13")],
    "core.runtime.queue_total": [("answer_p50_rel", "bulk_s13")],
    "core.session.residual_ms": [("answer_p50_rel", "bulk_s13")],
    "core.maximalize.maximalize_ms": [("answer_p50_rel", "certify_s8")],
    "core.maximalize.candidates": [("answer_p50_rel", "certify_s8")],
    "core.maximalize.gap_edges": [("answer_p50_rel", "certify_s8")],
    "core.maximalize.accept_ratio": [("answer_p50_rel", "certify_s8")],
    "chordality.verify_ms": [("answer_p50_rel", "certify_s8")],
    "chordality.is_chordal_ms": [("answer_p50_rel", "certify_s8")],
    "chordality.addable_scan_ms": [("answer_p50_rel", "certify_s8")],
    # Every extract request carries a graph, so the wire codec is on the
    # miss path as well as the hit path.
    "service.protocol.decode_graph_ms": SERVE_BOTH,
    "service.protocol.encode_graph_ms": SERVE_BOTH,
    "service.protocol.content_hash_ms": SERVE_BOTH,
    "service.server.residual_ms": [("edges_per_ref", "serve_s12")],
    "service.server.cache_hit_ratio": [("edges_per_ref", "serve_s12")],
    "service.server.pool_dispatches": [("answer_p50_rel", "serve_s12")],
    "service.server.busy_rejections": [("edges_per_ref", "serve_s12")],
    "service.server.timeouts": [("edges_per_ref", "serve_s12")],
    "core.procpool.extract_ms": SERVE_BOTH,
    "core.incremental.apply_batch_ms": [("edges_per_ref", "serve_s12")],
    "core.incremental.witness_retests": [("edges_per_ref", "serve_s12")],
    "core.incremental.repair_evictions": [("edges_per_ref", "serve_s12")],
    "core.incremental.reoffer_accepts": [("edges_per_ref", "serve_s12")],
    "core.incremental.full_rebuilds": [("edges_per_ref", "serve_s12")],
    "core.incremental.open_s": [("setup_s", "serve_s12")],
    "shard.plan_ms": [("answer_p50_rel", "sharded_s12")],
    "shard.run_ms": [("answer_p50_rel", "sharded_s12"), ("peak_rss_mb", "sharded_s12")],
    "shard.stitch_ms": [("answer_p50_rel", "sharded_s12")],
    "shard.residual_ms": [("answer_p50_rel", "sharded_s12")],
    "shard.boundary_edges": [("answer_p50_rel", "sharded_s12")],
    "shard.admitted_boundary": [("chordal_fraction", "sharded_s12")],
    "shard.stitch_rounds": [("answer_p50_rel", "sharded_s12")],
    "shard.admit_ratio": [("chordal_fraction", "sharded_s12")],
}

#: workload -> (metric its unaccounted answer time is reported under,
#: the largest share of ``trace.answer_ms`` that residual may take).
#: The traced run fails when the mean residual is negative or above that
#: share: the named layers must then not describe the answer.  On serve
#: the residual is the socket, JSON, queue and cache work of a hit, a
#: layer of its own, so it may take more.
RESIDUAL = {
    "bulk_s13": ("core.session.residual_ms", 0.10),
    "certify_s8": ("core.session.residual_ms", 0.10),
    "serve_s12": ("service.server.residual_ms", 0.60),
    "sharded_s12": ("shard.residual_ms", 0.10),
}
