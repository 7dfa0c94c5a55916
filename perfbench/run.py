#!/usr/bin/env python3
"""Benchmark of the treegraded lab, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload {sweep,ladder,beyond-cap} --seed N \\
        --seconds S --trace {0,1}

The workloads are described in perfbench/workloads.py. A run drives the
library from outside, in this one process, and imports it from ./src.

--trace 0  Sets the workload up five times, each in a fresh interpreter
           (interpreter start, `treegraded` import, inputs built from the
           seed), then repeats whole iterations of the workload, with the
           library unpatched: at least the workload's MIN_ITERATIONS, and
           more while another is expected to end less than half an
           iteration past S seconds. Prints the end-to-end metrics: medians
           over those set-ups and iterations, percentiles over the spaces
           and cells of an iteration (each a median over the iterations),
           and the peak RSS of this process.
--trace 1  Runs one traced iteration and prints the per-layer metrics: self
           time and call counts per layer, counters, and the estimated
           tracing overhead. Writes the coarse spans to
           .bench_build/perfbench/spans-<workload>-seed<N>.json. A layer the
           library no longer has, a layer that reads zero calls although the
           workload reaches it, or a nonzero reading of a counter predicted
           to be zero (perfbench/predictions.json) fails the run.

Every iteration passes the correctness gate: the invariants at any seed, and
the digests in perfbench/pins.json at each workload's default seed. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the exit code is 0 whenever it is printed. Without the
library sources next to this directory the run prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "cell_p50_s": "s",
    "cell_p95_s": "s",
    "space_p50_s": "s",
    "space_p80_s": "s",
    "vertices_per_s": "1/s",
}

PER_LAYER = {
    "graph.Graph.s": "s",
    "graph.dist_row.calls": "count",
    "graph.dist_row.s": "s",
    "graph.dist_bytes": "bytes",
    "graph.scale_components.calls": "count",
    "graph.scale_components.s": "s",
    "graph.diameter_witness.calls": "count",
    "graph.diameter_witness.s": "s",
    "graph.canonical_geodesic.calls": "count",
    "graph.canonical_geodesic.s": "s",
    "space.validate.s": "s",
    "space.project.calls": "count",
    "space.project.s": "s",
    "space.piece_dist_from.calls": "count",
    "space.piece_dist_from.s": "s",
    "checks.projection_uniqueness.s": "s",
    "checks.projection_lipschitz.s": "s",
    "checks.projection_stability.s": "s",
    "checks.chain_entry_projection.s": "s",
    "checks.trace_shape.s": "s",
    "checks.base_component_bound.s": "s",
    "checks.piece_offset.s": "s",
    "checks.near_projection_color.s": "s",
    "checks.projected_chain_color.s": "s",
    "checks.in_piece_chain_distance.s": "s",
    "checks.geodesic_chain_distance.s": "s",
    "checks.space_suite.s": "s",
    "checks.cell_suite.s": "s",
    "checks.proj_array.s": "s",
    "checks.cases": "count",
    "checks.violations": "count",
    "assemble.trace.calls": "count",
    "assemble.trace.s": "s",
    "assemble.color_space.s": "s",
    "coloring.build_piece_colorings.s": "s",
    "coloring.magnitude_report.calls": "count",
    "coloring.magnitude_report.s": "s",
    "coloring.classify_piece.calls": "count",
    "forge.gen_random.calls": "count",
    "forge.gen_random.s": "s",
    "forge.vertices": "count",
    "formats.write_space.s": "s",
    "formats.read_space.s": "s",
    "formats.write_coloring.s": "s",
    "formats.read_coloring.s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "ladder", "beyond-cap"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "ram_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def timed_setups(args) -> list[float]:
    """Seconds to set the workload up in fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    times = []
    for _ in range(SETUP_RUNS):
        started = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        times.append(perf_counter() - started)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return times


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def per_position_medians(samples: list[dict[str, float]]) -> list[float]:
    """Median over iterations of each space's (or cell's) time."""
    keys = {k for s in samples for k in s}
    return [statistics.median(s[k] for s in samples if k in s) for k in sorted(keys)]


def end_to_end(iterations, setup_times) -> tuple[dict, dict]:
    wall = statistics.median(it.wall_s for it in iterations)
    cells = per_position_medians([it.cell_s for it in iterations])
    spaces = per_position_medians([it.space_s for it in iterations])
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cell_p50_s": percentile(cells, 50),
        "cell_p95_s": percentile(cells, 95),
        "space_p50_s": percentile(spaces, 50),
        "space_p80_s": percentile(spaces, 80),
        "vertices_per_s": iterations[0].vertices / wall,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh processes",
        "wall_s": f"median of {len(iterations)} iterations",
        "peak_rss_mb": "ru_maxrss of this process",
        "cell_p50_s": f"n={len(cells)} cells",
        "cell_p95_s": f"n={len(cells)} cells",
        "space_p50_s": f"n={len(spaces)} spaces",
        "space_p80_s": f"n={len(spaces)} spaces",
        "vertices_per_s": f"{iterations[0].vertices} vertices per iteration",
    }
    return values, notes


def per_layer(tracer) -> dict:
    values = {}
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if name == "graph.dist_bytes":
            values[name] = tracer.dist_bytes
        elif name == "forge.vertices":
            values[name] = tracer.vertices
        elif name == "checks.cases":
            values[name] = tracer.cases
        elif name == "checks.violations":
            values[name] = tracer.violations
        elif name == "trace.overhead_s":
            values[name] = tracer.overhead_seconds()
        elif name == "trace.unattributed_s":
            values[name] = tracer.layer_seconds("bench.")
        elif kind == "calls":
            values[name] = tracer.calls(layer)
        else:
            values[name] = tracer.self_seconds(layer)
    return values


def probes(workload: str, tracer, metrics: dict, predicted_zero: list[str]) -> tuple[int, list[str]]:
    """Probes attempted and failed: one per layer, which must be found in the
    library and, unless predicted zero, reached; one per counter predicted zero."""
    from tracing import LAYERS

    failures = []
    for layer, target, _ in LAYERS:
        if target in tracer.unresolved:
            failures.append(f"{layer}: {target} not found in the library")
        elif not ({f"{layer}.s", f"{layer}.calls"} & set(predicted_zero)) and not tracer.calls(layer):
            failures.append(f"{layer} reads 0 calls on {workload}, which reaches it")
    failures += [
        f"predicted zero on {workload}: {name} reads {metrics[name]}" for name in predicted_zero if metrics[name] != 0
    ]
    return len(LAYERS) + len(predicted_zero), failures


def write_spans(args, tracer, info: dict) -> Path:
    out = ROOT / ".bench_build" / "perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(info, columns=["id", "name", "start_s", "end_s", "parent", "run_id"], spans=tracer.spans)
    out.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    # the lab's TG_SEED override would replace the seeds this benchmark chooses
    os.environ.pop("TG_SEED", None)
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    if args.setup_only:
        workloads.inputs(args.workload, args.seed)
        return 0

    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    info = {"workload": args.workload, "seed": args.seed, "machine": machine()}
    print("machine " + json.dumps(info["machine"], sort_keys=True))

    if args.trace:
        from tracing import Tracer, patched

        inputs = workloads.inputs(args.workload, args.seed)
        tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        with patched(tracer):
            traced = workloads.run(args.workload, inputs, tracer)
        iterations = [traced]
        metrics = per_layer(tracer)
        units = PER_LAYER
        notes = {
            name: f"{100 * value / traced.wall_s:.1f}% of traced wall {traced.wall_s:.2f} s"
            for name, value in metrics.items()
            if units[name] == "s"
        }
        predictions = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))
        predicted_zero = predictions["zero"].get(args.workload, [])
        attempted, failures = probes(args.workload, tracer, metrics, predicted_zero)
        info["run_id"] = tracer.run_id
        print(f"spans written to {write_spans(args, tracer, info)}")
    else:
        setup_times = timed_setups(args)
        inputs = workloads.inputs(args.workload, args.seed)
        iterations = []
        started = perf_counter()
        while len(iterations) < workloads.MIN_ITERATIONS[args.workload] or (
            perf_counter() - started + statistics.mean(it.wall_s for it in iterations) / 2 < args.seconds
        ):
            iterations.append(workloads.run(args.workload, inputs))
        metrics, notes = end_to_end(iterations, setup_times)
        units, attempted, failures = END_TO_END, 0, []

    for it in iterations:
        ops, bad = workloads.gate(args.workload, args.seed, it, pins)
        attempted += ops
        failures += bad
    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6f} {units[name]:6s} {notes.get(name, '')}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": min(len(failures), attempted),
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
