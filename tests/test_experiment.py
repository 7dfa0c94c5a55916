"""Experiment harness: config validation, determinism, reports."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os

import pytest

from treegraded.experiment import (
    ExperimentConfig,
    SampleBudget,
    SpaceSource,
    acceptance_corpus,
    apply_env_seed,
    report_to_json,
    run_experiment,
    strip_timing,
    write_csv,
)
from treegraded.forge import ForgeSpec, PieceTemplate


@dataclasses.dataclass(frozen=True)
class DyingSource(SpaceSource):
    """A source whose load kills the worker process that runs it."""

    def load(self):
        os._exit(3)


def tiny_sources(count=3, seed=60):
    return tuple(
        SpaceSource(
            name=f"t{i}",
            forge=ForgeSpec(
                templates=((PieceTemplate.parse("path:5"), 2), (PieceTemplate.parse("cycle:6"), 1)),
                piece_budget=4,
                attach_spacing=2,
                seed=seed + i,
            ),
        )
        for i in range(count)
    )


def tiny_config(**kwargs):
    defaults = dict(
        sources=tiny_sources(),
        r_list=(2, 3),
        seed=5,
        samples=SampleBudget(stability_pairs=400, chains=80, trace_targets=12, geodesic_chain_targets=8),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestConfigValidation:
    def test_empty_scales_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(r_list=())

    def test_small_scale_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(r_list=(1, 2))

    def test_no_sources_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(sources=())

    def test_bad_parallelism_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(parallelism=0)

    def test_source_needs_exactly_one_origin(self):
        with pytest.raises(ValueError):
            SpaceSource(name="x")
        with pytest.raises(ValueError):
            SpaceSource(name="x", path="a", forge=tiny_sources()[0].forge)


class TestDeterminism:
    def test_parallel_equals_serial(self):
        serial = run_experiment(tiny_config(parallelism=1))
        parallel = run_experiment(tiny_config(parallelism=2))
        assert report_to_json(strip_timing(serial)) == report_to_json(strip_timing(parallel))

    def test_repeat_runs_identical(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config())
        assert report_to_json(strip_timing(a)) == report_to_json(strip_timing(b))

    def test_strip_timing_removes_all_seconds(self):
        report = run_experiment(tiny_config())
        assert '"seconds"' in report_to_json(report)
        assert '"seconds"' not in report_to_json(strip_timing(report))

    def test_env_seed_overrides_config(self):
        cfg = tiny_config()
        os.environ["TG_SEED"] = "4242"
        try:
            overridden = apply_env_seed(cfg)
        finally:
            del os.environ["TG_SEED"]
        assert overridden.seed == 4242
        assert all(src.forge.seed == 4242 + i for i, src in enumerate(overridden.sources))
        assert apply_env_seed(cfg) is cfg  # no env var, untouched


class TestReports:
    def test_summary_counts_and_pass_flags(self):
        report = run_experiment(tiny_config())
        summary = report["summary"]
        assert summary["cells"] == 6
        assert summary["cells_passed"] == summary["cells"]
        assert summary["all_pass"] is True
        for s in report["spaces"]:
            for cell in s["cells"]:
                assert cell["pass"] == (cell["magnitude"] <= cell["bound"] + cell["slack"])
                assert cell["pass_zero_slack"] == (cell["magnitude"] <= cell["bound"])

    def test_failed_space_recorded_and_run_continues(self, tmp_path):
        ghost = SpaceSource(name="ghost", path=str(tmp_path / "missing.tgspace"))
        cfg = tiny_config(sources=tiny_sources(2) + (ghost,))
        report = run_experiment(cfg)
        assert report["summary"]["errors"] == ["ghost"]
        assert report["summary"]["all_pass"] is False
        assert len([s for s in report["spaces"] if "cells" in s]) == 2

    def test_lost_worker_recorded_and_run_continues(self):
        good = tiny_sources(3)
        doomed = DyingSource(name="doomed", forge=good[0].forge)
        cfg = tiny_config(sources=good[:2] + (doomed,) + good[2:], parallelism=2, property_checks=False)
        report = run_experiment(cfg)
        assert report["summary"]["errors"] == ["doomed"]
        assert report["spaces"][2]["error"].startswith("worker lost: ")
        serial = run_experiment(tiny_config(sources=good, property_checks=False))
        kept = [s for s in report["spaces"] if s["space"] != "doomed"]
        assert strip_timing(kept) == strip_timing(serial["spaces"])

    def test_csv_fixed_columns(self):
        report = run_experiment(tiny_config())
        buf = io.StringIO()
        write_csv(report, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["space", "r", "f_r", "magnitude", "bound", "pass"]
        assert len(rows) == 1 + 6
        assert {row[5] for row in rows[1:]} == {"true"}

    def test_report_json_is_sorted_and_round_trips(self):
        report = run_experiment(tiny_config())
        text = report_to_json(report)
        assert json.loads(text) == report


class TestAcceptanceCorpus:
    def test_size_and_caps(self):
        sources = acceptance_corpus(count=50)
        assert len(sources) == 50
        for src in sources:
            assert src.forge is not None
            for template, _ in src.forge.templates:
                if template.kind == "path":
                    assert template.a <= 60
                elif template.kind == "cycle":
                    assert template.a <= 40
                elif template.kind == "grid":
                    assert template.a <= 12 and template.b <= 12
                elif template.kind == "tree":
                    assert template.a <= 6

    def test_distinct_seeds(self):
        sources = acceptance_corpus(count=20)
        seeds = [src.forge.seed for src in sources]
        assert len(set(seeds)) == len(seeds)
