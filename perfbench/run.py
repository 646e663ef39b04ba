"""End-to-end and per-layer benchmark of maximal chordal subgraph extraction.

Run from the repository root::

    python3 perfbench/run.py --workload bulk_s13 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the traced twin of every answer and prints the
per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it name every metric with its unit, the host context and the
per-workload extras (see README.md).  Full results, and the spans of a
traced run, are written under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build" / "perfbench"

#: Ceiling on one run's measuring loop, whatever ``--seconds`` asks,
#: so a run that cannot reach its sample minimum still ends in time.
MAX_MEASURE_S = 120.0


def parse_args(argv):
    from metrics import RESIDUAL

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RESIDUAL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}
    # Everything the run writes stays inside the checkout.
    os.chdir(ROOT)
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "native")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    sys.path.insert(0, str(ROOT / "src"))

    from benchlib import BenchError, HostReference, Tracer, host_context, peak_rss_mb_self
    from metrics import TARGETS
    from workloads import WORKLOADS, CheckFailed

    from repro import ReproError

    context = host_context()  # resolves (and on first use builds) the native backend
    workload = WORKLOADS[args.workload](args.seed, BUILD)
    tracer = Tracer()
    reference = HostReference()
    reference.run()  # warm-up
    attempted = failed = 0
    errors: list[str] = []
    # The host reference is timed after every set-up and every step;
    # times are reported in its units (see HostReference).
    setup_s, setup_ref_s, ref_s = [], [], []
    try:
        for rep in range(1 if traced else workload.setup_reps):
            if rep:
                workload.teardown()
            t0 = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - t0)
            setup_ref_s.append(reference.run())

        start = time.perf_counter()
        deadline = start + args.seconds
        ceiling = start + max(args.seconds, MAX_MEASURE_S)
        step = workload.traced_step if traced else workload.step
        while True:
            now = time.perf_counter()
            if (now >= deadline and workload.enough(traced)) or now >= ceiling:
                break
            attempted += 1
            try:
                if traced:
                    step(attempted - 1, tracer)
                else:
                    step(attempted - 1)
            except (ReproError, CheckFailed, TimeoutError) as exc:
                failed += 1
                errors.append(f"{type(exc).__name__}: {exc}")
            ref_s.append(reference.run())
            workload.attach_reference(ref_s[-1])
        measured_s = time.perf_counter() - start

        if traced:
            metrics = workload.layers(tracer, list(units))
            details = {}
        else:
            metrics = workload.end_to_end()
            metrics["setup_s"] = HostReference.NOMINAL_S * statistics.median(
                s / r for s, r in zip(setup_s, setup_ref_s))
            metrics["peak_rss_mb"] = workload.peak_rss_mb()
            details = workload.details()
            details["reference_ms"] = (1000 * statistics.median(ref_s), "ms")
            details["setup_wall_s"] = (statistics.median(setup_s), "s")
        context.update(workload.context())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        workload.teardown()

    context.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        measured_s=measured_s, setup_samples_s=setup_s,
        bench_peak_rss_mb=peak_rss_mb_self(), errors=errors[:20],
        reference_samples_s=ref_s, setup_reference_samples_s=setup_ref_s,
    )
    missing = set(units) - set(metrics)
    if missing:
        print(f"perfbench: metrics not produced: {sorted(missing)}", file=sys.stderr)
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        tracer.dump(str(BUILD / f"spans-{tag}.json"))
    for error in errors[:5]:
        print(f"failed: {error}")
    for name, (value, unit) in details.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    idle = [n for n in units if traced and not n.startswith(workload.layer_prefixes)]
    for name in units:
        if name not in idle:
            moves = ", ".join(f"{m} on {w}" for m, w in TARGETS.get(name, [])) if traced else ""
            print(f"{args.workload} {name} = {metrics[name]:.6g} {units[name]}"
                  + (f"  (moves {moves})" if moves else ""))
    if idle:
        print(f"{args.workload} idle layers, reported as 0: {' '.join(idle)}")
    inputs = context.pop("inputs")
    context["inputs_summary"] = {
        "count": len(inputs),
        "V": sorted({row["V"] for row in inputs}),
        "E_total": sum(row["E"] for row in inputs),
        "seeds": [row["seed"] for row in inputs[:3]] + (["..."] if len(inputs) > 3 else []),
    }
    print("context " + json.dumps(context, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    (BUILD / f"result-{tag}.json").write_text(
        json.dumps({**result, "context": context, "inputs": inputs,
                    "details": details, "samples": workload.samples()}, indent=1)
    )
    print(json.dumps(result))
    return 0


def run(argv=None) -> int:
    """:func:`main`, then wait for every process it started, also when
    the run is stopped early by SIGTERM."""
    from benchlib import become_subreaper, stop_children, stop_resource_tracker

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    become_subreaper()
    try:
        return main(argv)
    finally:
        stop_resource_tracker()
        killed = stop_children()
        if killed:
            print(f"perfbench: killed child processes {killed}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(run())
