"""Property suites exercised on deterministic and generated instances."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegraded import checks
from treegraded.assemble import color_space
from treegraded.coloring import (
    BASE_COMPONENT_FACTOR,
    ScaleSetup,
    build_piece_colorings,
    magnitude_report,
    natural_color_count,
)
from treegraded.forge import PieceTemplate, gen_free_product_model
from treegraded.rng import SplitMix64

from conftest import small_spaces, tripod_space


def full_cell(space, r):
    setup = ScaleSetup(r=r, n=natural_color_count(space))
    colorings = build_piece_colorings(space, setup)
    coloring = color_space(space, setup, colorings)
    return setup, colorings, coloring


def cell_report(space, setup, coloring):
    """The cell's magnitude report, measured as an experiment cell measures it."""
    return magnitude_report(space.graph, coloring.as_mapping(), setup.chain, color_range=setup.colors)


def run_all(space, r, seed=7, chain_samples=60, trace_samples=24, geodesic_samples=12):
    ana = checks.SpaceAnalysis(space)
    setup, colorings, coloring = full_cell(space, r)
    results = checks.space_suite(ana, SplitMix64(seed), stability_samples=800)
    results += checks.cell_suite(
        ana,
        setup,
        colorings,
        coloring,
        cell_report(space, setup, coloring),
        SplitMix64(seed + 1),
        chain_samples=chain_samples,
        trace_samples=trace_samples,
        geodesic_chain_samples=geodesic_samples,
    )
    return results


# checks whose hypotheses can be genuinely empty on small instances
VACUOUS_OK = {
    "projected_chain_color",
    "near_projection_color",
    "in_piece_chain_distance",
    "geodesic_chain_distance",
}


def assert_all_ok(results):
    bad = [r for r in results if not r.ok]
    assert not bad, {r.name: r.violations[:2] for r in bad}
    empty = [r.name for r in results if r.checked == 0 and r.name not in VACUOUS_OK]
    assert not empty, empty


class TestDeterministicInstances:
    def test_tripod(self):
        assert_all_ok(run_all(tripod_space(arm=6), r=2))

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_free_product_of_lines(self, r):
        space = gen_free_product_model(
            PieceTemplate.parse("path:10"), PieceTemplate.parse("path:10"), depth=3,
            attach_spacing=3,
        )
        assert_all_ok(run_all(space, r))

    def test_plane_times_line(self):
        space = gen_free_product_model(
            PieceTemplate.parse("grid:6x6"), PieceTemplate.parse("path:8"), depth=3,
            attach_spacing=3,
        )
        assert_all_ok(run_all(space, r=2))


class TestGeneratedInstances:
    @settings(max_examples=12, deadline=None)
    @given(small_spaces(max_budget=5), st.sampled_from([2, 3, 4]))
    def test_all_suites_hold(self, space, r):
        assert_all_ok(run_all(space, r, chain_samples=30, trace_samples=12, geodesic_samples=8))

    @settings(max_examples=10, deadline=None)
    @given(small_spaces(max_budget=4))
    def test_offset_constant_per_piece_reported(self, space):
        ana = checks.SpaceAnalysis(space)
        setup, colorings, coloring = full_cell(space, 2)
        res = checks.check_piece_offset(space, setup, colorings, coloring)
        assert res.ok
        # reported as info, asserted here because the canonical-prefix
        # construction does make the offset constant within each piece
        assert res.info["offset_constant_per_piece"] is True


class TestDegeneratePointMeets:
    def test_single_vertex_meet_claim_genuinely_fails(self):
        # Documented finding: when a geodesic meets a piece in a single vertex
        # that sits inside another piece with several geodesics, a chain can
        # route around that vertex, so no chain point projects onto it from
        # within r. The edge-crossing form of the claim (the one the distance
        # bounds rely on) is checked by check_chain_entry_projection; this
        # pins the minimal counterexample for the single-vertex form.
        from treegraded.graph import Graph
        from treegraded.space import Space

        g = Graph(13, [(i, (i + 1) % 12) for i in range(12)] + [(3, 12)])
        space = Space(g, [set(range(12)), {3, 12}], 0)
        assert space.validate().ok
        r = 2
        chain = [0, 10, 8, 6]
        assert all(
            g.shortest_dist(a, b) <= r for a, b in zip(chain, chain[1:])
        )
        omega = g.canonical_geodesic(chain[0], chain[-1])
        assert 3 in omega.vertices  # the geodesic does pass the attachment vertex
        hang = 1  # the edge piece {3, 12}
        assert all(space.project(hang, x) == 3 for x in chain)
        assert min(g.shortest_dist(x, 3) for x in chain) > r


class TestWitnessReporting:
    def test_violations_carry_witnesses(self):
        # deliberately break a coloring to see witnesses flow through
        space = tripod_space(arm=8)
        setup, colorings, coloring = full_cell(space, 2)
        from treegraded.coloring import SpaceColoring

        constant = SpaceColoring(tuple(0 for _ in coloring.colors), setup)
        res = checks.check_in_piece_chain_distance(space, setup, cell_report(space, setup, constant))
        # a constant coloring keeps whole arms in one component: piece diameter
        # can exceed the bound only on long arms; with arm=8 and magnitude=2 the
        # arm diameter 8 stays below 72, so instead check the near-projection suite
        assert res.checked > 0

    def test_broken_color_transfer_detected(self):
        # three long path pieces in a chain: vertex 25 sits one step past piece
        # 1's far end (vertex 24, far outside the base component around 12)
        from conftest import path_graph
        from treegraded.space import Space

        space = Space(
            path_graph(37), [set(range(13)), set(range(12, 25)), set(range(24, 37))], 0
        )
        ana = checks.SpaceAnalysis(space)
        setup, colorings, coloring = full_cell(space, 2)
        from treegraded.coloring import SpaceColoring

        res = checks.check_near_projection_color(ana, setup, colorings, coloring)
        assert res.ok and res.checked > 0
        flipped = list(coloring.colors)
        flipped[25] = (flipped[25] + 1) % setup.colors
        broken = checks.check_near_projection_color(
            ana, setup, colorings, SpaceColoring(tuple(flipped), setup)
        )
        assert not broken.ok
        assert all("vertex" in w and "projection" in w for w in broken.violations)


def ambient_in_piece_hits(space, setup, colorings, coloring):
    """The three in-piece checks measured the ambient way, one scale_components
    search per color class and one diameter_witness call per set: (checked,
    every hit in order) per check name, offsets left out."""
    g = space.graph
    magnitude = setup.require_magnitude()
    small, wide = BASE_COMPONENT_FACTOR * magnitude, checks.IN_PIECE_CHAIN_FACTOR * magnitude
    out = {}
    checked, hits = 0, []
    for pid, pc in colorings.items():
        checked += 1
        diam, pair = g.diameter_witness(pc.base_component)
        if diam > small:
            hits.append({"piece": pid, "diameter": diam, "bound": small, "witness": pair})
    out["base_component_bound"] = checked, hits
    checked, hits = 0, []
    for pid in colorings:
        by_color = {}
        for x in space.pieces[pid]:
            by_color.setdefault(coloring[x], []).append(x)
        for c, members in sorted(by_color.items()):
            for comp in g.scale_components(members, setup.chain):
                checked += 1
                diam, pair = g.diameter_witness(comp)
                if diam > small:
                    hits.append({"piece": pid, "color": c, "diameter": diam, "bound": small, "witness": pair})
    out["piece_offset"] = checked, hits
    checked, hits = 0, []
    by_color = {}
    for v, c in enumerate(coloring.colors):
        by_color.setdefault(c, []).append(v)
    for c, members in sorted(by_color.items()):
        for comp in g.scale_components(members, setup.chain):
            per_piece = {}
            for v in comp:
                for pid in space.pieces_of_vertex[v]:
                    per_piece.setdefault(pid, []).append(v)
            for pid, verts in sorted(per_piece.items()):
                if len(verts) > 1:
                    checked += 1
                    diam, pair = g.diameter_witness(verts)
                    if diam > wide:
                        hits.append({"piece": pid, "color": c, "distance": diam, "bound": wide, "witness": pair})
    out["in_piece_chain_distance"] = checked, hits
    return out


def assert_in_piece_checks_match_ambient(space, r, magnitude=None):
    setup, colorings, coloring = full_cell(space, r)
    if magnitude is not None:
        setup.piece_magnitude = magnitude  # forces violations, witnesses and suppression
    results = [
        checks.check_base_component_bound(space, setup, colorings),
        checks.check_piece_offset(space, setup, colorings, coloring),
        checks.check_in_piece_chain_distance(space, setup, cell_report(space, setup, coloring)),
    ]
    want = ambient_in_piece_hits(space, setup, colorings, coloring)
    for res in results:
        checked, hits = want[res.name]
        offsets = sum(len(space.pieces[pid]) - 1 for pid in colorings) if res.name == "piece_offset" else 0
        assert res.checked - offsets == checked, res.name
        assert res.violations == hits[: checks.MAX_WITNESSES], res.name
        assert res.info.get("suppressed", 0) == max(0, len(hits) - checks.MAX_WITNESSES), res.name
    return results


class TestInPieceRoutes:
    """The in-piece checks read each piece's table in one pass; their counts,
    violations and witnesses must equal the ambient route's."""

    @pytest.mark.parametrize("magnitude", [None, 1, 0])
    @pytest.mark.parametrize(
        "space",
        [
            lambda: tripod_space(arm=8),
            lambda: gen_free_product_model(
                PieceTemplate.parse("grid:6x6"), PieceTemplate.parse("path:8"), depth=3, attach_spacing=3
            ),
            lambda: gen_free_product_model(
                PieceTemplate.parse("cycle:9"), PieceTemplate.parse("path:30"), depth=2, attach_spacing=2
            ),
        ],
    )
    def test_forced_violations_carry_ambient_witnesses(self, space, magnitude):
        results = assert_in_piece_checks_match_ambient(space(), 2, magnitude)
        if magnitude == 0:  # every bound is 0
            assert all(not res.ok for res in results)

    @settings(max_examples=10, deadline=None)
    @given(small_spaces(max_budget=5), st.sampled_from([2, 3, 4]), st.sampled_from([None, 1, 0]))
    def test_generated_spaces(self, space, r, magnitude):
        assert_in_piece_checks_match_ambient(space, r, magnitude)
