"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
PREDICTIONS = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))


def tiny_sweep():
    config = workloads.inputs("sweep", 11)
    config.sources = config.sources[:2]
    return config


def tiny_pipeline(seed: int = 3):
    return workloads.grid_spaces("ladder", seed, (2,))


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload,inputs", [("sweep", tiny_sweep), ("ladder", tiny_pipeline)])
def test_every_metric_is_emitted_with_its_unit(workload, inputs):
    inputs = inputs()
    untraced = workloads.run(workload, inputs)
    values, _ = run.end_to_end([untraced], [0.5])
    assert set(values) == set(declared("end_to_end")) == set(run.END_TO_END)
    assert run.END_TO_END == declared("end_to_end")
    assert all(v > 0 for v in values.values())

    tracer = tracing.Tracer("smoke")
    with tracing.patched(tracer):
        traced = workloads.run(workload, inputs, tracer)
    layers = run.per_layer(tracer)
    assert run.PER_LAYER == declared("per_layer")
    assert set(layers) == set(run.PER_LAYER)
    assert layers["trace.overhead_s"] > 0
    assert traced.digests == untraced.digests and not traced.failures
    attempted, failures = run.probes(workload, tracer, layers, PREDICTIONS["zero"][workload])
    assert attempted == len(tracing.LAYERS) + len(PREDICTIONS["zero"][workload]) and not failures


def test_a_missing_or_unreached_layer_fails_the_probes(monkeypatch):
    layers = tracing.LAYERS + (("graph.renamed", "treegraded.graph:Graph.renamed", True),)
    monkeypatch.setattr(tracing, "LAYERS", layers)
    tracer = tracing.Tracer("smoke")
    with tracing.patched(tracer):
        pass  # nothing runs, so no layer is reached
    zero = PREDICTIONS["zero"]["ladder"]
    _, failures = run.probes("ladder", tracer, run.per_layer(tracer), zero)
    assert "graph.renamed: treegraded.graph:Graph.renamed not found in the library" in failures
    assert "graph.dist_row reads 0 calls on ladder, which reaches it" in failures
    assert not any(f.startswith("checks.") for f in failures)  # predicted zero there


def test_tracing_leaves_the_library_unpatched():
    before = workloads.forge.gen_random, workloads.experiment.gen_random
    with tracing.patched(tracing.Tracer("smoke")):
        assert workloads.forge.gen_random is not before[0]
        assert workloads.experiment.gen_random is workloads.forge.gen_random
    assert (workloads.forge.gen_random, workloads.experiment.gen_random) == before


def test_predictions_cover_every_layer_metric():
    assert set(PREDICTIONS["layers"]) == set(run.PER_LAYER)
    workload_names = {w["name"] for w in BENCHMARK["workloads"]}
    for name, pred in PREDICTIONS["layers"].items():
        for pair in pred["moves"] + pred["unchanged"]:
            metric, _, workload = pair.partition("@")
            assert metric in run.END_TO_END and workload in workload_names, (name, pair)
    for workload, names in PREDICTIONS["zero"].items():
        assert workload in workload_names and set(names) <= set(run.PER_LAYER)


def test_a_flipped_vertex_trips_the_digest_gate(monkeypatch):
    specs = tiny_pipeline()
    clean = workloads.run("ladder", specs)
    pins = {"ladder": {"seed": 3, "digests": clean.digests}}
    attempted, failures = workloads.gate("ladder", 3, clean, pins)
    assert attempted == clean.operations + len(clean.digests) and not failures

    original = workloads.assemble.color_space

    def one_vertex_flipped(space, setup, colorings, *args):
        colored = original(space, setup, colorings, *args)
        colors = list(colored.colors)
        colors[-1] = (colors[-1] + 1) % setup.colors
        return type(colored)(tuple(colors), colored.setup)

    monkeypatch.setattr(workloads.assemble, "color_space", one_vertex_flipped)
    corrupted = workloads.run("ladder", specs)
    _, failures = workloads.gate("ladder", 3, corrupted, pins)
    assert len(failures) == len(clean.digests)
    assert all("digest" in f for f in failures)
    _, unpinned = workloads.gate("ladder", 4, corrupted, pins)
    assert not unpinned  # digests are pinned at one seed only


def test_pipeline_spaces_have_the_same_size_at_every_seed():
    for seed in (0, 3):
        for label, spec, vertices in workloads.grid_spaces("ladder", seed, (1, 5)):
            assert workloads.forge.gen_random(spec).graph.vertex_count == vertices
    switch = 5200  # graph._DENSE_CAP
    assert all(v < switch for _, _, v in workloads.inputs("ladder", 0))
    assert all(v > switch for _, _, v in workloads.inputs("beyond-cap", 0))


def test_without_the_library_sources_no_result_is_printed(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
