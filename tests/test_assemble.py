"""Traces, truncation, the assembled coloring, and the baselines."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegraded.assemble import (
    color_space,
    combined_color,
    cut_final_piece,
    decompose_path,
    evaluate_trace,
    trace,
    trace_from_path,
)
from treegraded.coloring import ScaleSetup, build_piece_colorings, natural_color_count
from treegraded.graph import GraphError, Path
from treegraded.space import InvalidSpaceError, Space

from conftest import (
    chain_of_three_paths,
    edge_piece_path,
    path_graph,
    single_piece_path,
    small_spaces,
    two_triangles_sharing_edge,
    validated_spaces,
)


def pipeline(space: Space, r: int = 2, n: int | None = None, period: int | None = None):
    setup = ScaleSetup(r=r, n=n or natural_color_count(space), color_period=period)
    colorings = build_piece_colorings(space, setup)
    return setup, colorings


class TestTrace:
    def test_basepoint_trivial(self):
        space = single_piece_path(8)
        setup, colorings = pipeline(space)
        tr = trace(space, setup, colorings, space.basepoint)
        assert tr.gamma.vertices == (0,)
        assert tr.segments == ()
        assert [b.vertices for b in tr.betas] == [(0,)]

    def test_single_piece_long_target(self):
        space = single_piece_path(30)
        setup, colorings = pipeline(space, r=4)
        x = 30
        assert x not in colorings[0].base_component
        tr = trace(space, setup, colorings, x)
        assert len(tr.segments) == 1 and tr.segments[0].long
        stub, terminal = tr.betas[0], tr.betas[-1]
        assert stub.length <= setup.reduction_radius
        assert terminal.vertices == (x,)

    def test_chain_segments_match_brute_intersection(self):
        space = chain_of_three_paths()
        setup, colorings = pipeline(space)
        tr = trace(space, setup, colorings, 6)
        gamma = tr.gamma.vertices
        for seg in tr.segments:
            piece = space.pieces[seg.piece]
            hit = [i for i, v in enumerate(gamma) if v in piece]
            assert hit == list(range(seg.start, seg.end + 1))

    def test_segments_tile_and_share_cuts(self):
        space = edge_piece_path(12)
        setup, colorings = pipeline(space)
        tr = trace(space, setup, colorings, 12)
        assert [(s.start, s.end) for s in tr.segments] == [(i, i + 1) for i in range(12)]
        for a, b in zip(tr.segments, tr.segments[1:]):
            assert a.exit == b.entry
            assert a.exit in space.cut_vertices

    @settings(max_examples=25, deadline=None)
    @given(small_spaces(max_budget=5), st.integers(2, 4), st.integers(0, 10**6))
    def test_shape_invariants(self, space, r, pick):
        setup, colorings = pipeline(space, r=r)
        x = pick % space.graph.vertex_count
        tr = trace(space, setup, colorings, x)
        bound_short = 8 * setup.piece_magnitude
        basepoints = space.basepoints()
        pos = 0
        for seg in tr.segments:
            assert seg.start == pos
            pos = seg.end
            assert seg.entry == basepoints[seg.piece]
            assert seg.exit == space.project(seg.piece, x)
            if seg.long:
                assert seg.length >= 2 * r
            else:
                assert seg.length <= bound_short
        assert pos == tr.gamma.length
        # betas and reduced interiors cover the geodesic
        assert tr.beta_ranges[0][0] == 0 and tr.beta_ranges[-1][1] == tr.gamma.length
        for (_, b_end), (_, red_start, _) in zip(tr.beta_ranges, tr.reduced):
            assert b_end == red_start


class TestGeodesicTree:
    """trace reads gamma and its runs off the space's kept geodesic tree; they
    must be those of the canonical geodesic, cut by decompose_path."""

    @settings(max_examples=40, deadline=None)
    @given(validated_spaces, st.integers(2, 4))
    def test_trace_equals_the_canonical_geodesic_trace(self, space, r):
        g, root = space.graph, space.basepoint
        tree = space.geodesic_tree()
        assert space.geodesic_tree() is tree
        assert tree.parents.tolist() == g.canonical_parents(root).tolist()
        assert tree.dist.tolist() == g.dist_row(root).tolist()
        assert tree.order.tolist() == sorted(range(g.vertex_count), key=lambda v: (tree.dist[v], v))
        parents = tree.parents.tolist()
        assert tree.owner.tolist() == [-1 if u < 0 else space.edge_piece(u, v) for v, u in enumerate(parents)]
        setup, colorings = pipeline(space, r=r)
        for x in range(g.vertex_count):
            gamma = g.canonical_geodesic(root, x)
            assert trace(space, setup, colorings, x) == trace_from_path(space, setup, colorings, gamma)

    def test_invalid_space_and_unknown_target_raise(self):
        with pytest.raises(InvalidSpaceError):
            two_triangles_sharing_edge().geodesic_tree()
        space = chain_of_three_paths()
        setup, colorings = pipeline(space)
        for x in (-1, 7):
            with pytest.raises(GraphError):
                trace(space, setup, colorings, x)

    def test_edge_in_no_piece_raises(self):
        space = Space(path_graph(4), [{0, 1}, {1, 2}], 0)  # edge (2, 3) lies in no piece
        with pytest.raises(InvalidSpaceError):
            decompose_path(space, Path((1, 2, 3)))
        with pytest.raises(InvalidSpaceError):
            cut_final_piece(space, Path((1, 2, 3)))


class TestCutFinalPiece:
    def test_inside_one_piece_collapses(self):
        space = single_piece_path(9)
        beta = space.graph.canonical_geodesic(2, 7)
        assert cut_final_piece(space, beta).vertices == (2,)

    def test_one_cut_crossing(self):
        space = chain_of_three_paths()
        beta = space.graph.canonical_geodesic(0, 3)  # crosses cut 2 into piece 1
        assert cut_final_piece(space, beta).vertices == (0, 1, 2)

    def test_edge_pieces_drop_one(self):
        space = edge_piece_path(9)
        beta = space.graph.canonical_geodesic(0, 7)
        assert cut_final_piece(space, beta).length == 6

    def test_single_vertex_unchanged(self):
        space = edge_piece_path(4)
        assert cut_final_piece(space, Path((2,))).vertices == (2,)


class TestCombinedColor:
    def test_basepoint_is_zero(self):
        space = edge_piece_path(20)
        setup, colorings = pipeline(space)
        assert combined_color(space, setup, colorings, 0).total == 0

    def test_period_boundary_on_edge_piece_path(self):
        space = edge_piece_path(420)
        setup, colorings = pipeline(space)
        assert setup.piece_magnitude == 2 and setup.color_period == 198
        at_199 = combined_color(space, setup, colorings, 199)
        assert at_199.first_sum == 0
        assert [(t.trunc_length, t.value) for t in at_199.floor_terms] == [(198, 1)]
        assert at_199.total == 1
        assert combined_color(space, setup, colorings, 198).total == 0

    def test_full_period_law(self):
        space = edge_piece_path(420)
        setup, colorings = pipeline(space)
        coloring = color_space(space, setup, colorings)
        for d in range(421):
            expected = 0 if d == 0 else ((d - 1) // setup.color_period) % 2
            assert coloring[d] == expected

    def test_single_piece_far_vertex_keeps_piece_color(self):
        space = single_piece_path(30)
        setup, colorings = pipeline(space, r=2)
        pc = colorings[0]
        ball = {v for v, d in space.piece_dist_from(0, 0).items() if d <= setup.recolor_radius}
        for x in range(31):
            if x in ball or x in pc.base_component:
                continue
            breakdown = combined_color(space, setup, colorings, x)
            assert all(t.value == 0 for t in breakdown.floor_terms)
            assert breakdown.total == pc.recolored[x]

    def test_single_piece_space_reduces_to_recolored_piece_coloring(self):
        # with one piece there are no completed runs and no period crossings,
        # so the assembled coloring IS the recolored piece coloring, and its
        # magnitude exceeds the raw piece coloring's only through the color-0
        # merge around the base vertex (bounded by the base-component factor)
        from treegraded.coloring import magnitude_report
        from conftest import cycle_graph

        for space in (single_piece_path(40), Space(cycle_graph(24), [set(range(24))], 0)):
            setup, colorings = pipeline(space, r=2)
            coloring = color_space(space, setup, colorings)
            pc = colorings[0]
            assert all(coloring[x] == pc.recolored[x] for x in range(space.graph.vertex_count))
            raw_mag = magnitude_report(space.graph, pc.raw, setup.chain).magnitude
            star_mag = magnitude_report(
                space.graph, coloring.as_mapping(), setup.chain
            ).magnitude
            assert star_mag <= max(raw_mag, 8 * setup.piece_magnitude)

    def test_colors_in_range(self):
        space = edge_piece_path(50)
        setup, colorings = pipeline(space)
        coloring = color_space(space, setup, colorings)
        assert set(coloring.colors) <= set(range(setup.colors))

    @settings(max_examples=20, deadline=None)
    @given(small_spaces(max_budget=5), st.integers(2, 4))
    def test_fast_path_equals_reference(self, space, r):
        setup, colorings = pipeline(space, r=r)
        coloring = color_space(space, setup, colorings)
        for x in range(space.graph.vertex_count):
            assert coloring[x] == combined_color(space, setup, colorings, x).total


class TestBaselines:
    def test_basepoint_zero_both_variants(self):
        space = edge_piece_path(30)
        setup, colorings = pipeline(space)
        for variant in ("naive", "periodic"):
            assert color_space(space, setup, colorings, variant)[0] == 0

    def test_naive_never_changes_color_on_edge_piece_path(self):
        space = edge_piece_path(600)
        setup, colorings = pipeline(space)
        coloring = color_space(space, setup, colorings, "naive")
        assert set(coloring.colors) == {0}

    def test_periodic_offset_drifts_within_a_piece(self):
        # the untruncated floors cross a period boundary inside a piece, so the
        # baseline's restriction to that piece is not the piece coloring plus a
        # constant; the truncated assembly is. Pieces need >= 2 non-base
        # vertices for drift to be visible, hence length-2 path pieces.
        from conftest import path_graph

        space = Space(
            path_graph(421), [{2 * k, 2 * k + 1, 2 * k + 2} for k in range(210)], 0
        )
        setup, colorings = pipeline(space)
        periodic = color_space(space, setup, colorings, "periodic")
        combined = color_space(space, setup, colorings)

        def offsets(coloring, pid):
            pc = colorings[pid]
            return {
                (coloring[x] - pc.recolored[x] - coloring[pc.basepoint]) % setup.colors
                for x in space.pieces[pid]
                if x != pc.basepoint
            }

        drifting = [
            pid for pid in colorings if len(offsets(periodic, pid)) > 1
        ]
        assert drifting, "periodic baseline should drift somewhere"
        for pid in colorings:
            assert len(offsets(combined, pid)) == 1

    def test_periodic_differs_from_piece_coloring_with_small_period(self):
        space = single_piece_path(40)
        setup, colorings = pipeline(space, r=2, period=4)
        periodic = color_space(space, setup, colorings, "periodic")
        pc = colorings[0]
        assert any(periodic[x] != pc.recolored[x] for x in range(41))
        combined = color_space(space, setup, colorings)
        ball = {v for v, d in space.piece_dist_from(0, 0).items() if d <= setup.recolor_radius}
        for x in range(41):
            if x not in ball and x not in pc.base_component:
                assert combined[x] == pc.recolored[x]

    def test_unknown_variant_rejected(self):
        space = edge_piece_path(4)
        setup, colorings = pipeline(space)
        with pytest.raises(ValueError):
            color_space(space, setup, colorings, "bogus")


class TestEvaluateTraceAgreement:
    @settings(max_examples=15, deadline=None)
    @given(small_spaces(max_budget=4), st.integers(2, 3), st.sampled_from(["naive", "periodic"]))
    def test_baseline_fast_path_matches_trace_evaluation(self, space, r, variant):
        setup, colorings = pipeline(space, r=r)
        fast = color_space(space, setup, colorings, variant)
        for x in range(space.graph.vertex_count):
            tr = trace(space, setup, colorings, x)
            assert fast[x] == evaluate_trace(space, setup, colorings, tr, variant).total

    def test_decompose_path_covers_all_edges(self):
        space = chain_of_three_paths()
        gamma = space.graph.canonical_geodesic(0, 6)
        runs = decompose_path(space, gamma)
        assert [(p, i, j) for p, i, j in runs] == [(0, 0, 2), (1, 2, 4), (2, 4, 6)]
