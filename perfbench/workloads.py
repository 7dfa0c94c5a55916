"""The benchmark's workloads, their inputs, and their correctness gates.

Every workload is single-process and closed-loop with one caller: the next
library call starts when the previous one returns.

  sweep       the acceptance configuration on the first 24 spaces of its
              corpus: acceptance_corpus(24) (every pool paired with every
              piece budget once), r in {2,4,6,8}, default SampleBudget,
              property checks on, parallelism 1. The seed is the sampling
              seed (11 is the acceptance run); the corpus itself is fixed. An
              iteration takes about 10 s on 2 CPUs. The whole 50-space sweep
              takes 34-40 s, and three iterations of it per run would not fit
              the benchmark's time budget.
  ladder      the CLI path in-process, no property checks: gen_random ->
              write_space/read_space -> validate -> build_piece_colorings ->
              color_space -> write/read_coloring -> magnitude_report at
              r in {2,4,6,8}, each stage once, on spaces of 1,002, 2,861 and
              4,863 vertices, up to the top of the graph layer's dense range
              (the switch to per-source BFS is at 5,200 vertices). An
              iteration takes about 10 s on 2 CPUs.
  beyond-cap  the same pipeline on one space of 5,292 vertices, just above
              that switch. Its validation alone takes about 27 s, so a run
              fits one iteration, and the cells (r in {2,4,6,8}) run
              CELL_PASSES times over so that each cell timing is a median of
              three, as the other workloads' are over their iterations.

The pipelines grow their spaces from the acceptance corpus's xl spec with its
12x12 grid template alone, so a space of k pieces has exactly 1 + 143k
vertices at every seed, and the seed varies only where the pieces are glued.
With the xl spec's whole template mix the seed would also pick the share of
grids. That share sets the vertex count, how far one colour class dominates
at r = 6 and 8, and so the cost of those cells: across ten seeds the slowest
cell of the ladder varied from 0.43 s to 0.73 s, and across five seeds the
cells of a 5.4k-vertex space spread by 40%, more than any bound the benchmark
could hold.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import treegraded  # noqa: E402

if Path(treegraded.__file__).resolve().parent != SRC / "treegraded":
    raise ImportError(f"treegraded was imported from {treegraded.__file__}, not from {SRC}")

from treegraded import assemble, coloring, experiment, forge, formats  # noqa: E402

R_LIST = (2, 4, 6, 8)
SWEEP_SPACES = 24
LADDER_PIECES = (7, 20, 34)
BEYOND_CAP_PIECES = (37,)
# fewest iterations per run: every cell and space timing is a median of three
MIN_ITERATIONS = {"sweep": 3, "ladder": 3, "beyond-cap": 1}
# passes over R_LIST per pipeline iteration: more for the workload that runs one iteration
CELL_PASSES = {"ladder": 1, "beyond-cap": 3}


def inputs(workload: str, seed: int):
    """The library-facing inputs of one iteration, made from the seed."""
    if workload == "sweep":
        return experiment.ExperimentConfig(
            sources=experiment.acceptance_corpus(SWEEP_SPACES),
            r_list=R_LIST,
            seed=seed,
            samples=experiment.SampleBudget(),
            property_checks=True,
            parallelism=1,
        )
    return grid_spaces(workload, seed, LADDER_PIECES if workload == "ladder" else BEYOND_CAP_PIECES)


def grid_spaces(label: str, seed: int, piece_counts) -> list[tuple[str, forge.ForgeSpec, int]]:
    """(name, generator spec, vertex count) per space: the acceptance corpus's
    xl spec with its 12x12 grid template alone, grown to each piece count."""
    xl = next(s.forge for s in experiment.acceptance_corpus() if s.name.endswith("-xl"))
    grid = next(t for t, _ in xl.templates if t.kind == "grid")
    spec = dataclasses.replace(xl, templates=((grid, 1),), seed=seed)
    added = grid.build()[0] - 1  # every piece after the first shares one vertex
    return [
        (f"{label}-{1 + added * k}", dataclasses.replace(spec, piece_budget=k), 1 + added * k)
        for k in piece_counts
    ]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclasses.dataclass
class Iteration:
    """One pass over a workload's inputs: timings, sizes and outputs to gate."""

    wall_s: float
    space_s: dict[str, float]
    cell_s: dict[str, float]
    vertices: int
    operations: int
    failures: list[str]  # one entry per failed operation
    digests: dict[str, str]


# -- sweep ---------------------------------------------------------------------


def run_sweep(config) -> Iteration:
    started = perf_counter()
    report = experiment.run_experiment(config)
    wall = perf_counter() - started
    failures = []
    space_s, cell_s = {}, {}
    vertices = operations = 0
    for rec in report["spaces"]:
        name = rec["space"]
        operations += 1
        space_s[name] = rec["seconds"]
        vertices += rec.get("vertices", 0)
        if "error" in rec:
            failures.append(f"{name}: {rec['error']}")
        elif _violations(rec.get("space_checks", [])):
            failures.append(f"{name}: space checks {_violations(rec['space_checks'])}")
        for cell in rec.get("cells", []):
            key = f"{name}/r={cell['r']}"
            operations += 1
            cell_s[key] = cell["seconds"]
            if "error" in cell:
                failures.append(f"{key}: {cell['error']}")
            elif not cell["pass"]:
                failures.append(f"{key}: magnitude {cell['magnitude']} > {cell['bound']} + {cell['slack']}")
            elif _violations(cell.get("checks", [])):
                failures.append(f"{key}: cell checks {_violations(cell['checks'])}")
    expected = len(config.sources) * (1 + len(config.r_list))
    if operations != expected:
        failures.append(f"sweep: {operations} spaces and cells reported, {expected} expected")
        operations = max(operations, expected)
    if not report["summary"]["all_pass"]:
        failures.append(f"sweep: all_pass is false (errors {report['summary']['errors'][:3]})")
    operations += 1  # the all_pass gate
    text = experiment.report_to_json(experiment.strip_timing(report))
    return Iteration(wall, space_s, cell_s, vertices, operations, failures, {"report": digest(text)})


def _violations(results: list[dict]) -> dict[str, int]:
    return {r["name"]: len(r["violations"]) for r in results if r["violations"]}


# -- pipelines -----------------------------------------------------------------


def run_pipeline(specs, passes: int = 1, tracer=None) -> Iteration:
    """gen -> write/read space -> validate -> per r: colorings -> color ->
    write/read coloring -> measure, as the CLI runs them, the r loop run
    `passes` times. A stage that raises fails itself and every later stage of
    its space; the other spaces still run."""
    started = perf_counter()
    result = Iteration(0.0, {}, {}, 0, 0, [], {})
    for label, spec, vertices in specs:
        with _span(tracer, "bench.space"):
            _pipeline_space(result, label, spec, vertices, passes, tracer)
    result.wall_s = perf_counter() - started
    return result


def _pipeline_space(result: Iteration, label: str, spec, expected_vertices: int, passes: int, tracer):
    stages = 4 + 5 * len(R_LIST) * passes
    done = 0
    result.operations += stages
    started = perf_counter()
    try:
        space = forge.gen_random(spec)
        vertices = space.graph.vertex_count
        result.vertices += vertices
        done += 1
        if vertices != expected_vertices:
            result.failures.append(f"{label}: {vertices} vertices, expected {expected_vertices}")
        buf = io.StringIO()
        formats.write_space(space, buf)
        done += 1
        loaded = formats.read_space(io.StringIO(buf.getvalue()))
        done += 1
        if (loaded.graph.edges, loaded.pieces, loaded.basepoint) != (
            space.graph.edges,
            space.pieces,
            space.basepoint,
        ):
            result.failures.append(f"{label}: read_space does not return the written space")
        del space
        report = loaded.validate()
        done += 1
        if not report.ok:
            result.failures.append(f"{label}: invalid space {report.violations[0].describe()}")
        n = coloring.natural_color_count(loaded)
        cell_times: dict[str, list[float]] = {}
        for _ in range(passes):
            for r in R_LIST:
                key = f"{label}/r={r}"
                with _span(tracer, "bench.cell"):
                    cell_started = perf_counter()
                    setup = coloring.ScaleSetup(r=r, n=n)
                    colorings = coloring.build_piece_colorings(loaded, setup)
                    done += 1
                    colored = assemble.color_space(loaded, setup, colorings)
                    done += 1
                    buf = io.StringIO()
                    formats.write_coloring(colored.as_mapping(), buf)
                    text = buf.getvalue()
                    done += 1
                    colors = formats.read_coloring(io.StringIO(text))
                    done += 1
                    measured = coloring.magnitude_report(loaded.graph, colors, setup.chain)
                    done += 1
                    cell_times.setdefault(key, []).append(perf_counter() - cell_started)
                result.cell_s[key] = statistics.median(cell_times[key])
                if result.digests.setdefault(key, digest(text)) != digest(text):
                    result.failures.append(f"{key}: the coloring differs between passes")
                if colors != colored.as_mapping():
                    result.failures.append(f"{key}: read_coloring does not return the written coloring")
                bound = coloring.ASSEMBLED_BOUND_FACTOR * setup.require_magnitude() + 2 * r
                if measured.magnitude > bound:
                    result.failures.append(f"{key}: magnitude {measured.magnitude} > {bound}")
    except Exception as exc:  # the failed stage and the rest of this space count as failed
        result.failures.extend(
            [f"{label}: stage {done + 1} of {stages} raised {type(exc).__name__}: {exc}"]
            + [f"{label}: stage {k + 1} of {stages} not run" for k in range(done + 1, stages)]
        )
    result.space_s[label] = perf_counter() - started


def _span(tracer, name: str):
    return tracer.span(name) if tracer else nullcontext()


def run(workload: str, inputs, tracer=None) -> Iteration:
    if workload == "sweep":
        with _span(tracer, "bench.sweep"):
            return run_sweep(inputs)
    return run_pipeline(inputs, CELL_PASSES[workload], tracer)


def gate(workload: str, seed: int, it: Iteration, pins: dict) -> tuple[int, list[str]]:
    """Operations attempted and the failures, digest checks included.

    Digests are pinned at each workload's default seed only; the invariants
    inside the iteration hold at every seed.
    """
    attempted = it.operations
    failures = list(it.failures)
    pinned = pins.get(workload, {})
    if seed == pinned.get("seed"):
        for key, want in sorted(pinned["digests"].items()):
            attempted += 1
            got = it.digests.get(key)
            if got != want:
                failures.append(f"{key}: digest {got} differs from the pinned {want}")
    return attempted, failures
