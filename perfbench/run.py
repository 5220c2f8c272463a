#!/usr/bin/env python3
"""The repository's benchmark: one workload per call, one JSON line out.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet-shared --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload with span wrappers on the program's layers and reports
the per-layer metrics instead.  Metric names and units come from
``BENCHMARK.json``.  Human-readable lines come first; the last line of
standard output is the JSON result.  Every run also leaves its full
result (environment stamp included) under ``.bench_out/``, and a traced
run its spans as Chrome trace-event JSON there, which Perfetto opens.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet-shared", "encode-ladder", "stream-sim", "live-loopback")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",),
        help="one workload, or 'all' to run each in turn and summarize",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _run_workload(args, tracer, out_dir):
    import encode_ladder
    import fleet_shared
    import live_loopback
    import stream_sim

    traced = bool(args.trace)
    if args.workload == "fleet-shared":
        return fleet_shared.run(args.seed, args.seconds, tracer, traced, os.path.join(ROOT, "src"))
    if args.workload == "encode-ladder":
        return encode_ladder.run(args.seed, args.seconds, tracer, traced)
    if args.workload == "stream-sim":
        return stream_sim.run(args.seed, args.seconds, tracer, traced)
    return live_loopback.run(args.seed, args.seconds, tracer, traced, ROOT, out_dir)


def _run_all(args) -> int:
    """Run every workload in its own process; summarize their results."""
    results = {}
    for workload in WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        print(completed.stdout, end="")
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"error: {workload} exited with code {completed.returncode}", file=sys.stderr)
            return completed.returncode or 1
        results[workload] = json.loads(lines[-1])
    print("summary:")
    for workload, result in results.items():
        print(f"  {workload}: attempted {result['attempted']}  failed {result['failed']}")
        for name, entry in result["metrics"].items():
            print(f"    {name:<32} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    src = os.path.join(ROOT, "src")
    spec = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")) or spec is None:
        print(f"error: no program to measure under {ROOT} (src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # Serial like everything else here: one BLAS thread unless asked otherwise.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")

    import harness
    import tracing

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stamp = harness.environment_stamp()
    tracer = tracing.Tracer()
    started = time.perf_counter()
    outcome = _run_workload(args, tracer, out_dir)
    wall_s = time.perf_counter() - started
    outcome.end_to_end["peak_rss_mb"] = harness.peak_rss_mb(
        include_children=args.workload == "live-loopback"
    )

    tag = f"{args.workload}-seed{args.seed}"
    fingerprint = harness.code_fingerprint(src, HERE)
    untraced = _load_json(os.path.join(out_dir, f"{tag}-trace0.json"))
    if untraced is not None and untraced.get("code") != fingerprint:
        untraced = None  # recorded from other code: nothing to compare
    if args.trace:
        layers = tracing.layer_metrics(tracer, outcome.traced_passes)
        layers.update(outcome.layers)
        layers.update(outcome.stats)
        events = outcome.stats.get("streaming.events", 0)
        layers["streaming.host_us_per_event"] = (
            layers["streaming.engine_run_s"] / events * 1e6 if events else 0.0
        )
        tracer.write_chrome_trace(os.path.join(out_dir, f"{tag}-trace.json"), stamp)
        if untraced is not None:
            outcome.check(
                untraced["stats"] == outcome.stats,
                "simulated statistics differ between the traced and the untraced run",
            )
        wanted = spec["per_layer"]
        values = {m["name"]: float(layers.get(m["name"], 0.0)) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {m["name"]: float(outcome.end_to_end[m["name"]]) for m in wanted}

    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": wall_s,
        "code": fingerprint,
        "env": stamp,
        "end_to_end": outcome.end_to_end,
        "named": {k: list(v) for k, v in outcome.named.items()},
        "layers": outcome.layers,
        "stats": outcome.stats,
        "units": outcome.host.units,
        "host_probes_s": outcome.host.probes,
        "host_slowdown": outcome.host.slowdown,
        "failures": outcome.failures,
        "notes": outcome.notes,
        "result": result,
    }
    with open(os.path.join(out_dir, f"{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, default=float)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  wall {wall_s:.1f} s")
    print("env: " + ", ".join(f"{k}={v}" for k, v in stamp.items()))
    for note in outcome.notes:
        print(f"  {note}")
    print(
        f"  host slowdown {outcome.host.slowdown:.3f} against the reference host "
        f"({len(outcome.host.probes)} probes); CPU-bound end-to-end times below are "
        "scaled to the reference host, figures by name are raw"
    )
    for name, (value, unit) in outcome.named.items():
        print(f"  {name:<34} {value:14.6g} {unit}")
    if args.trace and untraced is not None:
        print("  tracing overhead (traced minus untraced, same seed):")
        for name, value in outcome.end_to_end.items():
            before = untraced["end_to_end"].get(name)
            if before:
                print(f"    {name:<30} {value - before:+14.6g} ({(value - before) / before:+.1%})")
    for name, entry in result["metrics"].items():
        print(f"  {name:<34} {entry['value']:14.6g} {entry['unit']}")
    print(f"  attempted {outcome.attempted}  failed {outcome.failed}")
    for failure in outcome.failures:
        print(f"  FAILED: {failure}")
    if not all(math.isfinite(entry["value"]) for entry in result["metrics"].values()):
        print("error: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
