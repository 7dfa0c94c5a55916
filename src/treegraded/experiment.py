"""Experiment harness: sweep spaces x scales, measure, verify, report.

For every (space, r) cell the harness builds certified piece colorings,
derives the piece magnitude, assembles the combined coloring, measures its
magnitude against the 300x bound (with an additive 2r discretization slack for
the pass flag; the raw value is always reported), and runs the property
suites. Reports serialize to JSON (deterministic modulo the timing fields) and
to CSV with the fixed column order space,r,f_r,magnitude,bound,pass.

The TG_SEED environment variable overrides every seed in a config: the
sampling seed becomes TG_SEED and generated spaces are re-seeded TG_SEED+index.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import IO, Sequence

from . import checks
from .assemble import color_space
from .coloring import (
    ASSEMBLED_BOUND_FACTOR,
    ScaleSetup,
    StrategyPlan,
    build_piece_colorings,
    magnitude_report,
    natural_color_count,
)
from .forge import ForgeSpec, PieceTemplate, gen_random
from .formats import read_space
from .rng import SplitMix64
from .space import Space


@dataclass(frozen=True)
class SpaceSource:
    """A space to experiment on: a tgspace file or a generator spec."""

    name: str
    path: str | None = None
    forge: ForgeSpec | None = None

    def __post_init__(self):
        if (self.path is None) == (self.forge is None):
            raise ValueError("a space source needs exactly one of path or forge spec")

    def load(self) -> Space:
        if self.path is not None:
            return read_space(self.path)
        assert self.forge is not None
        return gen_random(self.forge)

    def describe(self) -> str:
        return self.path if self.path is not None else f"forge({self.forge.describe()})"


@dataclass(frozen=True)
class SampleBudget:
    stability_pairs: int = 10_000  # per space
    chains: int = 1_000  # per space, split across the scale sweep
    trace_targets: int = 64  # per cell
    geodesic_chain_targets: int = 48  # per cell

    def __post_init__(self):
        for name, count in vars(self).items():
            if count < 0:
                raise ValueError(f"sample budget {name} must be >= 0, got {count}")


@dataclass
class ExperimentConfig:
    sources: tuple[SpaceSource, ...]
    r_list: tuple[int, ...]
    chain_mode: str = "strict"
    n_override: int | None = None
    plan: StrategyPlan = field(default_factory=StrategyPlan)
    color_period_override: int | None = None
    samples: SampleBudget = field(default_factory=SampleBudget)
    property_checks: bool = True
    slack_2r: bool = True
    parallelism: int = 1
    seed: int = 0

    def __post_init__(self):
        if not self.sources:
            raise ValueError("experiment needs at least one space")
        if not self.r_list:
            raise ValueError("experiment needs a non-empty list of scales")
        if any(r < 2 for r in self.r_list):
            raise ValueError("all scales must be >= 2")
        if self.chain_mode not in ("strict", "weak"):
            raise ValueError(f"unknown chain mode {self.chain_mode!r}")
        if self.n_override is not None and (type(self.n_override) is not int or self.n_override < 1):
            raise ValueError(f"n must be a positive integer, got {self.n_override!r}")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.color_period_override is not None and self.color_period_override < 1:
            raise ValueError("color period must be positive")


def _of_type(value, kind: type, name: str):
    """value, if it has exactly the type kind (int or bool): int() would read
    2.9, "2" and true as integers, and bool() would read "false" as true."""
    if type(value) is not kind:
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'true or false'}, got {value!r}")
    return value


def config_from_json(data: dict) -> ExperimentConfig:
    """The configuration a parsed experiment config file describes.

    Integers must be JSON integers and flags JSON booleans. A malformed file
    raises AttributeError, KeyError, ValueError or TypeError.
    """
    sources = []
    for i, entry in enumerate(data.get("spaces", [])):
        name = entry.get("name", f"space-{i:03d}")
        if "file" in entry:
            sources.append(SpaceSource(name=name, path=entry["file"]))
        elif "forge" in entry:
            fg = entry["forge"]
            spec = ForgeSpec(
                templates=tuple(
                    (PieceTemplate.parse(t), _of_type(w, int, "each template weight")) for t, w in fg["templates"]
                ),
                piece_budget=_of_type(fg["pieces"], int, "pieces"),
                max_tree_depth=_of_type(fg.get("max_tree_depth", 8), int, "max_tree_depth"),
                attach_spacing=_of_type(fg.get("spacing", 1), int, "spacing"),
                branch_cap=_of_type(fg.get("branch_cap", 3), int, "branch_cap"),
                seed=_of_type(fg.get("seed", 0), int, "seed"),
                subdivide=_of_type(fg.get("subdivide", 1), int, "subdivide"),
            )
            sources.append(SpaceSource(name=name, forge=spec))
        else:
            raise ValueError(f"space entry {name!r} needs 'file' or 'forge'")
    strategy = data.get("strategy", {})
    samples = data.get("samples", {})
    return ExperimentConfig(
        sources=tuple(sources),
        r_list=tuple(_of_type(r, int, "each r_list entry") for r in data["r_list"]),
        chain_mode=data.get("chain_mode", "strict"),
        n_override=data.get("n"),
        plan=StrategyPlan(
            band_width=strategy.get("band_width"),
            arc_width=strategy.get("arc_width"),
            brick_width=strategy.get("brick_width"),
        ),
        color_period_override=data.get("color_period"),
        samples=SampleBudget(
            **{
                name: _of_type(samples.get(name, default), int, name)
                for name, default in dataclasses.asdict(SampleBudget()).items()
            }
        ),
        property_checks=_of_type(data.get("property_checks", True), bool, "property_checks"),
        slack_2r=_of_type(data.get("slack_2r", True), bool, "slack_2r"),
        parallelism=_of_type(data.get("parallelism", 1), int, "parallelism"),
        seed=_of_type(data.get("seed", 0), int, "seed"),
    )


def apply_env_seed(config: ExperimentConfig) -> ExperimentConfig:
    """Honor TG_SEED: replaces the sampling seed and re-seeds forge sources."""
    raw = os.environ.get("TG_SEED")
    if raw is None:
        return config
    seed = int(raw)
    sources = tuple(
        dataclasses.replace(
            src, forge=dataclasses.replace(src.forge, seed=seed + i) if src.forge else None
        )
        if src.forge
        else src
        for i, src in enumerate(config.sources)
    )
    return dataclasses.replace(config, sources=sources, seed=seed)


def _space_record(args: tuple[int, SpaceSource, ExperimentConfig]) -> dict:
    index, source, config = args
    started = time.perf_counter()
    record: dict = {"space": source.name, "source": source.describe()}
    try:
        space = source.load()
        report = space.validate()
        if not report.ok:
            record["error"] = "invalid space: " + "; ".join(
                v.describe() for v in report.violations[:3]
            )
            return record
        record["vertices"] = space.graph.vertex_count
        record["piece_count"] = len(space.pieces)
        ana = checks.SpaceAnalysis(space)
        base_seed = config.seed * 1_000_003 + index
        if config.property_checks:
            rng = SplitMix64(base_seed)
            record["space_checks"] = [
                res.to_dict()
                for res in checks.space_suite(ana, rng, config.samples.stability_pairs)
            ]
        chain_samples = max(1, config.samples.chains // len(config.r_list))
        n = config.n_override if config.n_override is not None else natural_color_count(space)
        cells = []
        for r in config.r_list:
            cells.append(
                _cell_record(ana, config, n, r, base_seed, chain_samples)
            )
        record["cells"] = cells
    except Exception as exc:  # per-instance failures recorded, run continues
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["seconds"] = round(time.perf_counter() - started, 3)
    return record


def _pooled_records(tasks: list[tuple[int, SpaceSource, ExperimentConfig]], workers: int) -> list[dict]:
    """_space_record of every task, in order, from a pool of worker processes.

    A worker that dies breaks the pool, which then fails every task it still
    held. Each of those runs again alone in a fresh process; a space whose
    process dies there too is recorded as errored. Workers are spawned, not
    forked, so none inherits the threads of numerical libraries.
    """
    spawn = multiprocessing.get_context("spawn")
    records: dict[int, dict] = {}
    lost = []
    with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
        futures = [(task, pool.submit(_space_record, task)) for task in tasks]
        for task, future in futures:
            try:
                records[task[0]] = future.result()
            except BrokenProcessPool:
                lost.append(task)
    for index, source, config in lost:
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            try:
                records[index] = pool.submit(_space_record, (index, source, config)).result()
            except BrokenProcessPool as exc:
                records[index] = {
                    "space": source.name,
                    "source": source.describe(),
                    "error": f"worker lost: {exc}",
                }
    return [records[task[0]] for task in tasks]


def _cell_record(
    ana: checks.SpaceAnalysis,
    config: ExperimentConfig,
    n: int,
    r: int,
    base_seed: int,
    chain_samples: int,
) -> dict:
    space = ana.space
    started = time.perf_counter()
    cell: dict = {"r": r, "n": n}
    try:
        setup = ScaleSetup(
            r=r,
            n=n,
            color_period=config.color_period_override,
            chain_mode=config.chain_mode,
        )
        colorings = build_piece_colorings(space, setup, config.plan)
        coloring = color_space(space, setup, colorings)
        measured = magnitude_report(
            space.graph, coloring.as_mapping(), setup.chain, color_range=setup.colors
        )
        bound = ASSEMBLED_BOUND_FACTOR * setup.require_magnitude()
        slack = 2 * r if config.slack_2r else 0
        cell.update(
            {
                "piece_magnitude": setup.piece_magnitude,
                "color_period": setup.color_period,
                "magnitude": measured.magnitude,
                "witness": list(measured.witness) if measured.witness else None,
                "bound": bound,
                "slack": slack,
                "pass": measured.magnitude <= bound + slack,
                "pass_zero_slack": measured.magnitude <= bound,
                "colors_used": len(set(coloring.colors)),
            }
        )
        if config.property_checks:
            rng = SplitMix64(base_seed * 31 + r)
            results = checks.cell_suite(
                ana,
                setup,
                colorings,
                coloring,
                measured,
                rng,
                chain_samples=chain_samples,
                trace_samples=config.samples.trace_targets,
                geodesic_chain_samples=config.samples.geodesic_chain_targets,
            )
            cell["checks"] = [res.to_dict() for res in results]
    except Exception as exc:
        cell["error"] = f"{type(exc).__name__}: {exc}"
    cell["seconds"] = round(time.perf_counter() - started, 3)
    return cell


def run_experiment(config: ExperimentConfig) -> dict:
    config = apply_env_seed(config)
    tasks = [(i, src, config) for i, src in enumerate(config.sources)]
    if config.parallelism > 1 and len(tasks) > 1:
        spaces = _pooled_records(tasks, config.parallelism)
    else:
        spaces = [_space_record(t) for t in tasks]
    report = {
        "config": {
            "r_list": list(config.r_list),
            "chain_mode": config.chain_mode,
            "seed": config.seed,
            "n_override": config.n_override,
            "color_period_override": config.color_period_override,
            "slack_2r": config.slack_2r,
            "space_count": len(config.sources),
            "property_checks": config.property_checks,
        },
        "spaces": spaces,
        "summary": summarize(spaces),
    }
    return report


def summarize(spaces: Sequence[dict]) -> dict:
    cells = [c for s in spaces for c in s.get("cells", [])]
    ok_cells = [c for c in cells if "error" not in c]
    passed = sum(1 for c in ok_cells if c["pass"])
    zero = sum(1 for c in ok_cells if c["pass_zero_slack"])
    violations: dict[str, int] = {}
    checked: dict[str, int] = {}
    for s in spaces:
        for res in s.get("space_checks", []):
            violations[res["name"]] = violations.get(res["name"], 0) + len(res["violations"])
            checked[res["name"]] = checked.get(res["name"], 0) + res["checked"]
    for c in ok_cells:
        for res in c.get("checks", []):
            violations[res["name"]] = violations.get(res["name"], 0) + len(res["violations"])
            checked[res["name"]] = checked.get(res["name"], 0) + res["checked"]
    errors = [s["space"] for s in spaces if "error" in s]
    errors += [f"{s['space']}/r={c['r']}" for s in spaces for c in s.get("cells", []) if "error" in c]
    return {
        "cells": len(cells),
        "cells_passed": passed,
        "cells_passed_zero_slack": zero,
        "zero_slack_rate": round(zero / len(ok_cells), 4) if ok_cells else None,
        "all_pass": bool(ok_cells) and passed == len(ok_cells) and not errors,
        "check_violations": {k: violations[k] for k in sorted(violations)},
        "checks_run": {k: checked[k] for k in sorted(checked)},
        "errors": errors,
    }


def strip_timing(report: dict) -> dict:
    """Copy of a report without timing fields (the determinism contract)."""

    def scrub(obj):
        if isinstance(obj, dict):
            return {k: scrub(v) for k, v in obj.items() if k != "seconds"}
        if isinstance(obj, list):
            return [scrub(x) for x in obj]
        return obj

    return scrub(report)


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report(report: dict, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report))


def write_csv(report: dict, stream: IO[str] | str):
    """Fixed column order: space, r, f_r, magnitude, bound, pass."""
    if isinstance(stream, str):
        with open(stream, "w", encoding="utf-8", newline="") as fh:
            write_csv(report, fh)
            return
    writer = csv.writer(stream)
    writer.writerow(["space", "r", "f_r", "magnitude", "bound", "pass"])
    for s in report["spaces"]:
        for c in s.get("cells", []):
            if "error" in c:
                writer.writerow([s["space"], c["r"], "", "", "", "error"])
            else:
                writer.writerow(
                    [
                        s["space"],
                        c["r"],
                        c["piece_magnitude"],
                        c["magnitude"],
                        c["bound"],
                        str(c["pass"]).lower(),
                    ]
                )


# -- standard corpora -------------------------------------------------------------


def acceptance_corpus(count: int = 50, base_seed: int = 2024) -> tuple[SpaceSource, ...]:
    """Seeded mixed corpus within the standard caps (paths <= 60, cycles <= 40,
    grids <= 12x12, binary trees of depth <= 6)."""
    pools: list[tuple[tuple[str, int], ...]] = [
        (("path:24", 3), ("path:9", 2)),
        (("path:14", 3), ("cycle:10", 2)),
        (("path:60", 1), ("cycle:40", 1), ("path:7", 2)),
        (("tree:4", 2), ("path:11", 2)),
        (("grid:6x7", 1), ("path:13", 3)),
        (("grid:12x12", 1), ("path:21", 2), ("cycle:14", 1)),
        (("tree:6", 1), ("cycle:9", 2), ("path:17", 2)),
        (("grid:5x5", 2), ("tree:3", 1), ("cycle:6", 2), ("path:8", 3)),
    ]
    budgets = (6, 9, 12, 16, 22, 28)
    spacings = (1, 2, 3, 4)
    caps = (2, 3, 4)
    depths = (4, 5, 6, 8)
    # one slot near the vertex cap so the sweep exercises the top of the range
    xl = ForgeSpec(
        templates=(
            (PieceTemplate.parse("grid:12x12"), 1),
            (PieceTemplate.parse("path:40"), 3),
            (PieceTemplate.parse("cycle:30"), 1),
            (PieceTemplate.parse("tree:6"), 1),
        ),
        piece_budget=60,
        max_tree_depth=10,
        attach_spacing=3,
        branch_cap=3,
        seed=7,
    )
    sources = []
    for i in range(count):
        if i == 37:
            sources.append(SpaceSource(name=f"rand-{i:03d}-xl", forge=xl))
            continue
        pool = pools[i % len(pools)]
        spec = ForgeSpec(
            templates=tuple((PieceTemplate.parse(t), w) for t, w in pool),
            piece_budget=budgets[i % len(budgets)],
            max_tree_depth=depths[i % len(depths)],
            attach_spacing=spacings[i % len(spacings)],
            branch_cap=caps[i % len(caps)],
            seed=base_seed + i,
        )
        sources.append(SpaceSource(name=f"rand-{i:03d}", forge=spec))
    return tuple(sources)
