"""Generators: validity, determinism, free-product models, subdivision."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegraded.coloring import natural_color_count
from treegraded.formats import space_to_text
from treegraded.forge import (
    ForgeSpec,
    PieceTemplate,
    _Builder,
    gen_free_product_model,
    gen_random,
    subdivide_space,
)
from treegraded.rng import SplitMix64

from conftest import forge_specs, small_spaces


def _rescan_spacing_ok(builder: _Builder, v: int, spacing: int) -> bool:
    if spacing <= 1:
        return True
    for pid in builder.holders[v]:
        others = builder.attach_points[pid] - {v}
        if not others:
            continue
        adj = builder.piece_adj[pid]
        dist = {v: 0}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            if dist[u] + 1 >= spacing:
                continue
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    if w in others:
                        return False
                    queue.append(w)
    return True


def rescan_gen_random(spec: ForgeSpec):
    """Reference generator: rescans every vertex against the attachment rules
    before every glue, where gen_random keeps its eligible set between glues."""
    rng = SplitMix64(spec.seed)
    templates = [t for t, _ in spec.templates]
    weights = [w for _, w in spec.templates]
    builder = _Builder()
    builder.add_piece(templates[rng.weighted_index(weights)], None, None, depth=1)
    while len(builder.pieces) < spec.piece_budget:
        eligible = [
            v
            for v in range(builder.vertex_count)
            if builder.attach_count.get(v, 0) < spec.branch_cap
            and min(builder.piece_depth[p] for p in builder.holders[v]) < spec.max_tree_depth
            and _rescan_spacing_ok(builder, v, spec.attach_spacing)
        ]
        if not eligible:
            break
        v = eligible[rng.randint(0, len(eligible) - 1)]
        tpl = templates[rng.weighted_index(weights)]
        count, _ = tpl.build()
        glue_local = rng.randint(0, count - 1)
        depth = 1 + min(builder.piece_depth[p] for p in builder.holders[v])
        builder.add_piece(tpl, glue_local, v, depth)
    return builder.to_space(basepoint=0, subdivide=spec.subdivide)


class TestTemplates:
    @pytest.mark.parametrize(
        "text, vertices, edges",
        [
            ("path:5", 6, 5),
            ("cycle:7", 7, 7),
            ("grid:3x4", 12, 17),
            ("tree:3", 15, 14),
        ],
    )
    def test_build_counts(self, text, vertices, edges):
        count, edge_list = PieceTemplate.parse(text).build()
        assert count == vertices and len(edge_list) == edges

    @pytest.mark.parametrize("bad", ["path:0", "cycle:2", "grid:1x1", "tree:0", "blob:3", "grid:2"])
    def test_bad_templates_rejected(self, bad):
        with pytest.raises(ValueError):
            PieceTemplate.parse(bad)

    def test_round_trip_str(self):
        for text in ("path:5", "cycle:7", "grid:3x4", "tree:2"):
            assert str(PieceTemplate.parse(text)) == text


class TestGenRandom:
    def test_budget_one_single_piece(self):
        spec = ForgeSpec(templates=((PieceTemplate.parse("cycle:5"), 1),), piece_budget=1, seed=9)
        space = gen_random(spec)
        assert len(space.pieces) == 1
        assert space.validate().ok

    def test_same_seed_byte_identical(self):
        spec = ForgeSpec(
            templates=((PieceTemplate.parse("path:4"), 2), (PieceTemplate.parse("cycle:5"), 1)),
            piece_budget=9,
            attach_spacing=2,
            seed=123,
        )
        assert space_to_text(gen_random(spec)) == space_to_text(gen_random(spec))

    def test_different_seeds_differ(self):
        def build(seed):
            return space_to_text(
                gen_random(
                    ForgeSpec(
                        templates=((PieceTemplate.parse("path:4"), 1),),
                        piece_budget=6,
                        seed=seed,
                    )
                )
            )

        assert build(1) != build(2)

    def test_budget_forty_mixed_valid_with_tree_identity(self):
        spec = ForgeSpec(
            templates=(
                (PieceTemplate.parse("path:7"), 3),
                (PieceTemplate.parse("cycle:6"), 2),
                (PieceTemplate.parse("grid:3x4"), 1),
                (PieceTemplate.parse("tree:2"), 1),
            ),
            piece_budget=40,
            max_tree_depth=7,
            attach_spacing=2,
            branch_cap=3,
            seed=77,
        )
        space = gen_random(spec)
        assert len(space.pieces) == 40
        assert space.validate().ok

    def test_branch_cap_respected(self):
        spec = ForgeSpec(
            templates=((PieceTemplate.parse("path:1"), 1),),
            piece_budget=30,
            branch_cap=2,
            max_tree_depth=20,
            seed=5,
        )
        space = gen_random(spec)
        for v in range(space.graph.vertex_count):
            # a vertex hosts at most cap attachments plus the piece it was born in
            assert len(space.pieces_of_vertex[v]) <= 3

    def test_infeasible_budget_rejected(self):
        with pytest.raises(ValueError):
            ForgeSpec(templates=((PieceTemplate.parse("path:1"), 1),), piece_budget=0)

    def test_depth_cap_limits_growth(self):
        spec = ForgeSpec(
            templates=((PieceTemplate.parse("path:1"), 1),),
            piece_budget=100,
            max_tree_depth=2,
            branch_cap=1,
            seed=3,
        )
        space = gen_random(spec)
        assert space.validate().ok
        # piece depths in the bipartite gluing tree, by a search from the basepoint's piece
        incid = space.pieces_of_vertex
        depth = {min(incid[space.basepoint]): 0}
        queue = list(depth)
        for pid in queue:
            for v in space.pieces[pid]:
                for q in incid[v]:
                    if q not in depth:
                        depth[q] = depth[pid] + 2
                        queue.append(q)
        assert len(depth) == len(space.pieces)
        assert max(depth.values()) <= 2  # piece depths 0 or 2 in the bipartite tree

    @settings(max_examples=150, deadline=None)
    @given(forge_specs(max_budget=14, max_spacing=5, subdivisions=(1, 2)))
    def test_matches_rescan_reference(self, spec):
        assert space_to_text(gen_random(spec)) == space_to_text(rescan_gen_random(spec))

    @settings(max_examples=40, deadline=None)
    @given(forge_specs())
    def test_every_spec_generates_valid_space(self, spec):
        space = gen_random(spec)
        assert space.validate().ok
        assert len(space.pieces) <= spec.piece_budget


class TestFreeProduct:
    def test_depth_one_single_left_piece(self):
        space = gen_free_product_model(
            PieceTemplate.parse("path:6"), PieceTemplate.parse("path:6"), depth=1
        )
        assert len(space.pieces) == 1
        assert space.validate().ok

    def test_two_free_factors_model(self):
        space = gen_free_product_model(
            PieceTemplate.parse("path:6"),
            PieceTemplate.parse("path:6"),
            depth=4,
            attach_spacing=3,
        )
        assert space.validate().ok
        assert natural_color_count(space) == 1

    def test_plane_times_line_model(self):
        space = gen_free_product_model(
            PieceTemplate.parse("grid:8x8"),
            PieceTemplate.parse("path:10"),
            depth=3,
            attach_spacing=4,
        )
        assert space.validate().ok
        assert natural_color_count(space) == 2

    def test_levels_alternate_templates(self):
        left = PieceTemplate.parse("cycle:5")
        right = PieceTemplate.parse("path:3")
        space = gen_free_product_model(left, right, depth=3, attach_spacing=2)
        sizes = sorted({len(p) for p in space.pieces})
        assert sizes == [4, 5]  # cycles of 5 vertices and paths of 4

    def test_determinism(self):
        def build():
            return space_to_text(
                gen_free_product_model(
                    PieceTemplate.parse("path:5"),
                    PieceTemplate.parse("cycle:6"),
                    depth=3,
                    attach_spacing=2,
                    seed=11,
                )
            )

        assert build() == build()


class TestSubdivide:
    def test_identity_at_one(self):
        space = gen_random(
            ForgeSpec(templates=((PieceTemplate.parse("path:3"), 1),), piece_budget=3, seed=1)
        )
        again = subdivide_space(space, 1)
        assert space_to_text(again) == space_to_text(space)

    def test_path_length_doubles(self):
        from conftest import single_piece_path

        space = single_piece_path(5)
        refined = subdivide_space(space, 2)
        assert refined.graph.vertex_count == 11
        assert refined.graph.shortest_dist(0, 5) == 10
        assert refined.validate().ok

    @settings(max_examples=20, deadline=None)
    @given(small_spaces(max_budget=4), st.integers(2, 4))
    def test_distances_scale_exactly(self, space, k):
        refined = subdivide_space(space, k)
        assert refined.validate().ok
        n = space.graph.vertex_count
        for u in range(0, n, 3):
            for v in range(0, n, 3):
                assert refined.graph.shortest_dist(u, v) == k * space.graph.shortest_dist(u, v)

    def test_pieces_absorb_new_vertices(self):
        from conftest import chain_of_three_paths

        space = chain_of_three_paths()
        refined = subdivide_space(space, 3)
        assert refined.validate().ok
        assert len(refined.pieces) == len(space.pieces)
        for old, new in zip(space.pieces, refined.pieces):
            assert old <= new


class TestSubdividedPipeline:
    def test_refined_space_still_meets_bound(self):
        from treegraded.assemble import color_space
        from treegraded.coloring import (
            ASSEMBLED_BOUND_FACTOR,
            ScaleSetup,
            build_piece_colorings,
            magnitude_report,
            natural_color_count,
        )

        base = gen_random(
            ForgeSpec(
                templates=((PieceTemplate.parse("path:6"), 2), (PieceTemplate.parse("cycle:6"), 1)),
                piece_budget=6,
                attach_spacing=2,
                seed=21,
            )
        )
        refined = subdivide_space(base, 3)
        assert refined.validate().ok
        setup = ScaleSetup(r=4, n=natural_color_count(refined))
        colorings = build_piece_colorings(refined, setup)
        coloring = color_space(refined, setup, colorings)
        measured = magnitude_report(refined.graph, coloring.as_mapping(), setup.chain).magnitude
        assert measured <= ASSEMBLED_BOUND_FACTOR * setup.require_magnitude()
