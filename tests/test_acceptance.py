"""Acceptance suite: one pass/fail line per criterion (run with -s to see them).

Criteria:
  1. assembled-coloring magnitude stays within 300x the piece magnitude
     (additive 2r slack allowed for 100% of cells, zero slack for >= 95%)
     over a 50-space seeded corpus swept at r in {2,4,6,8}
  2. free-product models use the expected palette and meet the bound raw
  3. the full property-check suite reports zero violations on the corpus
  4. geodesic independence on 100 exhaustively-enumerable spaces
  5. the naive baseline degenerates on an all-edge-piece path, the assembled
     coloring does not
  6. production engines agree with the brute-force oracles
  7. the criterion-1 run is byte-reproducible (timing excluded)
"""

from __future__ import annotations

import hashlib
import time

import pytest

from treegraded.assemble import baseline_color, color_space
from treegraded.coloring import (
    ASSEMBLED_BOUND_FACTOR,
    ScaleSetup,
    build_piece_colorings,
    magnitude_report,
    natural_color_count,
)
from treegraded.experiment import (
    ExperimentConfig,
    SampleBudget,
    SpaceSource,
    acceptance_corpus,
    report_to_json,
    run_experiment,
    strip_timing,
)
from treegraded.forge import ForgeSpec, PieceTemplate, gen_free_product_model, gen_random
from treegraded.graph import strict_chain, weak_chain
from treegraded.oracles import (
    brute_magnitude,
    brute_project,
    geodesic_invariance,
    min_magnitude,
)
from treegraded.rng import SplitMix64

from conftest import edge_piece_path, path_graph

R_SWEEP = (2, 4, 6, 8)
CORPUS_SIZE = 50
MAIN_SEED = 11
# sha256 of report_to_json(strip_timing(...)) of the criterion-1 run
MAIN_REPORT_SHA256 = "e3bca1ea39c14361ab649eda31ca3790b18173244d6fe2eaaacc71d64871c329"


def announce(criterion: str, ok: bool, detail: str):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def main_config() -> ExperimentConfig:
    return ExperimentConfig(
        sources=acceptance_corpus(CORPUS_SIZE),
        r_list=R_SWEEP,
        seed=MAIN_SEED,
        samples=SampleBudget(stability_pairs=10_000, chains=1_000),
    )


@pytest.fixture(scope="module")
def main_run():
    started = time.perf_counter()
    report = run_experiment(main_config())
    return {"report": report, "wall_seconds": time.perf_counter() - started}


def cells_of(run):
    return [(s, c) for s in run["report"]["spaces"] for c in s.get("cells", [])]


class TestCriterion1MainBound:
    def test_corpus_shape(self, main_run):
        spaces = main_run["report"]["spaces"]
        assert len(spaces) >= 50
        assert all("error" not in s for s in spaces)
        assert all(s["vertices"] <= 5000 for s in spaces)
        assert len(cells_of(main_run)) == len(spaces) * len(R_SWEEP)

    def test_bound_holds(self, main_run):
        cells = cells_of(main_run)
        with_slack = [c for _, c in cells if c["pass"]]
        zero_slack = [c for _, c in cells if c["pass_zero_slack"]]
        rate = len(zero_slack) / len(cells)
        worst = max(c["magnitude"] / c["bound"] for _, c in cells)
        ok = len(with_slack) == len(cells) and rate >= 0.95
        announce(
            "1",
            ok,
            f"{len(with_slack)}/{len(cells)} cells within 300x+2r, "
            f"{rate:.1%} at zero slack, worst magnitude/bound {worst:.3f}, "
            f"runtime {main_run['wall_seconds']:.1f}s",
        )
        assert len(with_slack) == len(cells)
        assert rate >= 0.95
        assert main_run["wall_seconds"] < 300  # "under 5 minutes"


class TestCriterion2FreeProductModels:
    MODELS = (
        ("lines depth 3", "path:12", "path:12", 3, 3, 1),
        ("lines depth 4", "path:12", "path:12", 4, 3, 1),
        ("long lines depth 3", "path:30", "path:30", 3, 4, 1),
        ("plane x line depth 3", "grid:8x8", "path:10", 3, 4, 2),
    )

    def test_models_meet_bound_with_expected_palette(self):
        failures = []
        details = []
        for name, left, right, depth, spacing, expected_n in self.MODELS:
            space = gen_free_product_model(
                PieceTemplate.parse(left),
                PieceTemplate.parse(right),
                depth=depth,
                attach_spacing=spacing,
            )
            assert space.validate().ok
            n = natural_color_count(space)
            if n != expected_n:
                failures.append(f"{name}: palette n={n} != {expected_n}")
                continue
            for r in R_SWEEP:
                setup = ScaleSetup(r=r, n=n)
                colorings = build_piece_colorings(space, setup)
                coloring = color_space(space, setup, colorings)
                used = set(coloring.colors)
                if not used <= set(range(n + 1)):
                    failures.append(f"{name} r={r}: colors {used} escape the palette")
                measured = magnitude_report(
                    space.graph, coloring.as_mapping(), setup.chain
                ).magnitude
                bound = ASSEMBLED_BOUND_FACTOR * setup.require_magnitude()
                if measured > bound:
                    failures.append(f"{name} r={r}: magnitude {measured} > {bound}")
                details.append(f"{name} r={r}: {measured}<={bound}")
        announce("2", not failures, "; ".join(failures) or f"{len(details)} model cells all raw-pass")
        assert not failures

    def test_two_color_model_uses_both_colors(self):
        space = gen_free_product_model(
            PieceTemplate.parse("path:12"), PieceTemplate.parse("path:12"), 4, attach_spacing=3
        )
        setup = ScaleSetup(r=2, n=1)
        colorings = build_piece_colorings(space, setup)
        assert set(color_space(space, setup, colorings).colors) == {0, 1}

    def test_three_color_model_uses_all_colors(self):
        space = gen_free_product_model(
            PieceTemplate.parse("grid:8x8"), PieceTemplate.parse("path:10"), 3, attach_spacing=4
        )
        setup = ScaleSetup(r=2, n=2)
        colorings = build_piece_colorings(space, setup)
        assert set(color_space(space, setup, colorings).colors) == {0, 1, 2}


class TestCriterion3PropertySuites:
    NAMES = (
        "projection_uniqueness",
        "projection_lipschitz",
        "projection_stability",
        "chain_entry_projection",
        "piece_offset",
        "near_projection_color",
        "projected_chain_color",
        "in_piece_chain_distance",
        "geodesic_chain_distance",
        "base_component_bound",
        "trace_shape",
    )

    def test_zero_violations_with_required_sampling(self, main_run):
        violations = main_run["report"]["summary"]["check_violations"]
        bad = {k: v for k, v in violations.items() if v}
        for s in main_run["report"]["spaces"]:
            stability = next(
                r for r in s["space_checks"] if r["name"] == "projection_stability"
            )
            assert stability["checked"] >= 10_000, s["space"]
            chains = sum(
                r["info"]["chains_sampled"]
                for c in s["cells"]
                for r in c["checks"]
                if r["name"] == "chain_entry_projection"
            )
            assert chains >= 1_000, s["space"]
        missing = [n for n in self.NAMES if n not in violations]
        announce(
            "3",
            not bad and not missing,
            f"suites {len(self.NAMES)} all green over {sum(main_run['report']['summary']['checks_run'].values())} checks"
            if not bad
            else f"violations: {bad}",
        )
        assert not missing
        assert not bad


class TestCriterion4GeodesicIndependence:
    def test_hundred_tiny_spaces(self):
        specs = []
        seed = 500
        while len(specs) < 100:
            spec = ForgeSpec(
                templates=(
                    (PieceTemplate.parse("path:1"), 2),
                    (PieceTemplate.parse("path:2"), 2),
                    (PieceTemplate.parse("cycle:3"), 1),
                    (PieceTemplate.parse("cycle:4"), 1),
                ),
                piece_budget=3,
                attach_spacing=1,
                branch_cap=2,
                seed=seed,
            )
            seed += 1
            space = gen_random(spec)
            if space.graph.vertex_count <= 12:
                specs.append(space)
        checked = 0
        for space in specs:
            setup = ScaleSetup(r=2, n=natural_color_count(space))
            colorings = build_piece_colorings(space, setup)
            ok, witnesses = geodesic_invariance(space, setup, colorings, max_vertices=12)
            assert ok, witnesses
            checked += 1
        announce("4", True, f"{checked} spaces, all colors geodesic-independent")


class TestCriterion5BaselineFailure:
    def test_naive_degenerates_where_assembled_does_not(self):
        space = edge_piece_path(1000)
        setup = ScaleSetup(r=2, n=1)
        colorings = build_piece_colorings(space, setup)
        naive = baseline_color(space, setup, colorings, "naive")
        naive_mag = magnitude_report(space.graph, naive.as_mapping(), setup.chain).magnitude
        assembled = color_space(space, setup, colorings)
        assembled_mag = magnitude_report(
            space.graph, assembled.as_mapping(), setup.chain
        ).magnitude
        bound = ASSEMBLED_BOUND_FACTOR * setup.require_magnitude()
        ok = naive_mag >= 999 and assembled_mag <= bound == 600
        announce(
            "5",
            ok,
            f"naive magnitude {naive_mag} >= 999; assembled {assembled_mag} <= {bound}",
        )
        assert naive_mag >= 999
        assert bound == 600
        assert assembled_mag <= bound


class TestCriterion6OracleCrossChecks:
    def small_corpus(self):
        for i in range(50):
            spec = ForgeSpec(
                templates=(
                    (PieceTemplate.parse("path:4"), 3),
                    (PieceTemplate.parse("cycle:5"), 1),
                    (PieceTemplate.parse("tree:2"), 1),
                    (PieceTemplate.parse("grid:3x3"), 1),
                ),
                piece_budget=4 + i % 3,
                attach_spacing=1 + i % 2,
                branch_cap=2,
                seed=900 + i,
            )
            yield gen_random(spec)

    def test_magnitude_engine_vs_brute_force(self):
        rng = SplitMix64(77)
        instances = 0
        for space in self.small_corpus():
            assert space.graph.vertex_count <= 200
            pred = strict_chain(2)
            random_colors = {
                v: rng.randint(0, 2) for v in range(space.graph.vertex_count)
            }
            assert (
                magnitude_report(space.graph, random_colors, pred).magnitude
                == brute_magnitude(space.graph, random_colors, pred)
            )
            setup = ScaleSetup(r=2, n=natural_color_count(space))
            colorings = build_piece_colorings(space, setup)
            assembled = color_space(space, setup, colorings).as_mapping()
            assert (
                magnitude_report(space.graph, assembled, setup.chain).magnitude
                == brute_magnitude(space.graph, assembled, setup.chain)
            )
            instances += 1
        announce("6a", True, f"magnitude engine == disjoint-set oracle on {instances} instances")

    def test_projection_vs_brute_force(self):
        queries = 0
        seed = 1500
        while queries < 10_000:
            spec = ForgeSpec(
                templates=(
                    (PieceTemplate.parse("path:5"), 2),
                    (PieceTemplate.parse("cycle:6"), 1),
                    (PieceTemplate.parse("grid:4x4"), 1),
                ),
                piece_budget=6,
                attach_spacing=2,
                branch_cap=2,
                seed=seed,
            )
            seed += 1
            space = gen_random(spec)
            assert space.graph.vertex_count <= 200
            for pid in range(len(space.pieces)):
                for x in range(space.graph.vertex_count):
                    assert space.project(pid, x) == brute_project(space, pid, x)
                    queries += 1
        announce("6b", True, f"projection == brute nearest vertex on {queries} queries")
        assert queries >= 10_000

    def test_min_magnitude_oracle_true_values(self):
        strict_value = min_magnitude(path_graph(5), strict_chain(3), n=1)
        weak_value = min_magnitude(path_graph(5), weak_chain(3), n=1)
        announce(
            "6c",
            strict_value == 1 and weak_value == 2,
            f"path 0..4 minimal magnitude: strict {strict_value} (=1), weak {weak_value} (=2; "
            "the stated weak=1 expectation is recorded as a spec defect)",
        )
        assert strict_value == 1
        assert weak_value == 2

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "spec defect: the stated expectation min_magnitude(path 0..4, r=3 weak, n=1) = 1 "
            "is unattainable; vertices {0,1,2,3} are pairwise within distance 3, forcing a "
            "monochromatic weak component of diameter >= 2 in every 2-coloring. The strict "
            "chain (the source's own chain definition) gives 1. See the decisions ledger."
        ),
    )
    def test_min_magnitude_as_stated(self):
        assert min_magnitude(path_graph(5), weak_chain(3), n=1) == 1


class TestCriterion7Determinism:
    def test_identical_reports_modulo_timing(self, main_run):
        again = run_experiment(main_config())
        first = report_to_json(strip_timing(main_run["report"]))
        second = report_to_json(strip_timing(again))
        ok = first == second
        announce("7", ok, f"reports byte-identical after timing strip ({len(second)} bytes)")
        assert ok

    def test_report_digest_pinned(self, main_run):
        text = report_to_json(strip_timing(main_run["report"]))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == MAIN_REPORT_SHA256
