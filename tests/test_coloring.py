"""Piece coloring strategies, recoloring, base components, and magnitude."""

from __future__ import annotations

import dataclasses
import gc
import random
import tracemalloc
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegraded import coloring
from treegraded.assemble import color_space
from treegraded.coloring import (
    ASSEMBLED_BOUND_FACTOR,
    CertificationError,
    ScaleSetup,
    StrategyPlan,
    arc_coloring,
    band_coloring,
    base_component,
    brick_coloring,
    build_piece_colorings,
    certify_piece_colorings,
    classify_piece,
    compute_piece_magnitude,
    magnitude_report,
    natural_color_count,
    raw_piece_colorings,
    recolor_base_ball,
)
from treegraded.forge import (
    ForgeSpec,
    PieceTemplate,
    gen_free_product_model,
    gen_random,
    subdivide_space,
)
from treegraded.graph import _BLOCK_ENTRIES, ChainPredicate, Graph, strict_chain, weak_chain
from treegraded.oracles import brute_magnitude, brute_scale_components, brute_set_diameter
from treegraded.space import Space

from conftest import (
    TEMPLATE_POOL,
    cycle_graph,
    edge_piece_path,
    path_graph,
    single_piece_path,
    small_spaces,
    validated_spaces,
)


def grid_space(a: int, b: int) -> Space:
    count, edges = PieceTemplate("grid", a, b).build()
    return Space(Graph(count, edges), [set(range(count))], 0)


def cycle_space(m: int) -> Space:
    return Space(cycle_graph(m), [set(range(m))], 0)


def tree_space(depth: int) -> Space:
    count, edges = PieceTemplate("tree", depth).build()
    return Space(Graph(count, edges), [set(range(count))], 0)


class TestScaleSetup:
    def test_derived_constants(self):
        setup = ScaleSetup(r=5, n=2, piece_magnitude=7)
        assert setup.colors == 3
        assert setup.recolor_radius == 10
        assert setup.reduction_radius == 3  # ceil(5/2)
        assert setup.color_period == 99 * 7

    def test_magnitude_below_scale_rejected(self):
        with pytest.raises(ValueError):
            ScaleSetup(r=5, n=1, piece_magnitude=4)

    def test_period_override_survives_magnitude_updates(self):
        setup = ScaleSetup(r=2, n=1, color_period=10)
        setup.set_piece_magnitude(6)
        assert setup.color_period == 10

    def test_default_period_tracks_magnitude(self):
        setup = ScaleSetup(r=2, n=1)
        setup.set_piece_magnitude(6)
        assert setup.color_period == 594

    def test_tiny_scale_rejected(self):
        with pytest.raises(ValueError):
            ScaleSetup(r=1, n=1)

    @pytest.mark.parametrize("period", [-5, 0])
    def test_non_positive_period_rejected(self, period):
        with pytest.raises(ValueError, match="color period must be positive"):
            ScaleSetup(r=2, n=1, color_period=period)


class TestBandColoring:
    def test_path_bands(self):
        space = single_piece_path(10)
        colors = band_coloring(space, 0, root=0, width=3)
        assert [colors[v] for v in range(11)] == [0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1]

    def test_root_color_zero(self):
        space = tree_space(3)
        assert band_coloring(space, 0, root=0, width=4)[0] == 0

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="not acyclic"):
            band_coloring(cycle_space(6), 0, root=0, width=3)

    def test_binary_tree_magnitude_bound(self):
        width, r = 4, 3
        space = tree_space(8)
        colors = band_coloring(space, 0, root=0, width=width)
        report = magnitude_report(space.graph, colors, strict_chain(r))
        assert report.magnitude <= 2 * width + 2 * r


class TestArcColoring:
    def test_cycle_arcs(self):
        space = cycle_space(12)
        colors = arc_coloring(space, 0, anchor=0, width=3)
        report = magnitude_report(space.graph, colors, strict_chain(2))
        assert report.magnitude <= 2 * 3
        assert colors[0] == 0

    def test_non_cycle_rejected(self):
        with pytest.raises(ValueError, match="not a cycle"):
            arc_coloring(single_piece_path(5), 0, anchor=0, width=2)


class TestBrickColoring:
    def test_anchor_color_fixed(self):
        space = grid_space(6, 9)
        colors = brick_coloring(space, 0, anchor=0, brick=2)
        assert colors[0] == 0  # anchor lands in brick 0, row band 0

    def test_certified_magnitude(self):
        r, width = 2, 4
        space = grid_space(12, 12)
        colors = brick_coloring(space, 0, anchor=0, brick=width)
        got = magnitude_report(space.graph, colors, strict_chain(r)).magnitude
        assert got == brute_magnitude(space.graph, colors, strict_chain(r))
        assert got <= 3 * width  # single-brick components
        assert set(colors.values()) <= {0, 1, 2}

    def test_degenerate_one_row_matches_band(self):
        # a path piece treated as a 1 x b grid: bricks of width 2L reduce to
        # bands of width 2L (three colors cycling instead of two alternating)
        space = single_piece_path(17)
        width, r = 2, 2
        brick = brick_coloring(space, 0, anchor=0, brick=width)
        band = band_coloring(space, 0, root=0, width=2 * width)
        pred = strict_chain(r)
        assert (
            magnitude_report(space.graph, brick, pred).magnitude
            == magnitude_report(space.graph, band, pred).magnitude
        )

    def test_non_grid_rejected(self):
        with pytest.raises(ValueError, match="not a grid"):
            brick_coloring(cycle_space(8), 0, anchor=0, brick=2)

    def test_trees_that_are_no_path_from_the_anchor_rejected(self):
        # a path anchored inside has two vertices at each distance; a tree branches
        for space, anchor in ((single_piece_path(4), 2), (tree_space(3), 0)):
            with pytest.raises(ValueError, match="not a grid"):
                brick_coloring(space, 0, anchor=anchor, brick=2)

    def test_anchor_outside_path_piece_rejected(self):
        with pytest.raises(ValueError, match="not in piece"):
            brick_coloring(single_piece_path(5), 0, anchor=99, brick=2)


class TestClassifyPiece:
    def test_kinds(self):
        assert classify_piece(single_piece_path(6), 0).kind == "tree"
        assert classify_piece(tree_space(3), 0).kind == "tree"
        assert classify_piece(cycle_space(7), 0).kind == "cycle"
        shape = classify_piece(grid_space(4, 6), 0)
        assert shape.kind == "grid"
        coords = shape.grid_coords
        assert coords is not None and len(coords) == 24
        assert {ij for ij in coords.values()} == {(i, j) for i in range(4) for j in range(6)}

    @pytest.mark.parametrize("a, b, k", [(4, 6, 2), (2, 3, 3), (3, 3, 4), (5, 2, 2)])
    def test_subdivided_grid(self, a, b, k):
        plain = classify_piece(grid_space(a, b), 0).grid_coords
        shape = classify_piece(subdivide_space(grid_space(a, b), k), 0)
        assert shape.kind == "grid" and shape.anchor == 0
        coords = shape.grid_coords
        # grid vertices keep their ids on a k-spaced lattice
        assert {v: coords[v] for v in plain} == {v: (k * i, k * j) for v, (i, j) in plain.items()}
        # every subdivision vertex lies on the lattice segment of its edge
        assert len(set(coords.values())) == len(coords) == a * b + (k - 1) * (2 * a * b - a - b)
        assert all(i % k == 0 or j % k == 0 for i, j in coords.values())

    def test_subdivided_non_grids_stay_unknown(self):
        # a 3x3 grid with one extra diagonal, and a 2x3 grid missing a rung
        chord = Graph(9, PieceTemplate("grid", 3, 3).build()[1] + [(0, 4)])
        rungless = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (2, 5)])
        for g in (chord, rungless):
            space = subdivide_space(Space(g, [set(range(g.vertex_count))], 0), 2)
            assert classify_piece(space, 0).kind in ("unknown", "cycle")

    def test_natural_color_count(self):
        assert natural_color_count(single_piece_path(4)) == 1
        assert natural_color_count(grid_space(3, 4)) == 2

    def test_unknown_shape(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])  # square + chord
        space = Space(g, [{0, 1, 2, 3}], 0)
        assert classify_piece(space, 0).kind == "unknown"
        with pytest.raises(CertificationError):
            raw_piece_colorings(space, ScaleSetup(r=2, n=1))


class TestRecolorAndBaseComponent:
    def setup_method(self):
        self.space = single_piece_path(10)
        self.setup = ScaleSetup(r=2, n=1, piece_magnitude=3)
        self.raw = {v: (v // 3) % 2 for v in range(11)}

    def test_recolor_forces_ball_to_zero(self):
        recolored = recolor_base_ball(self.raw, self.space, 0, 0, self.setup)
        assert [recolored[v] for v in range(11)] == [0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1]

    def test_recolor_noop_when_ball_already_zero(self):
        raw = {v: 0 if v <= 4 else 1 for v in range(11)}
        assert recolor_base_ball(raw, self.space, 0, 0, self.setup) == raw

    def test_changes_confined_to_ball(self):
        recolored = recolor_base_ball(self.raw, self.space, 0, 0, self.setup)
        changed = {v for v in self.raw if self.raw[v] != recolored[v]}
        ball = {v for v, d in self.space.piece_dist_from(0, 0).items() if d <= 4}
        assert changed <= ball

    def test_base_component_from_example(self):
        recolored = recolor_base_ball(self.raw, self.space, 0, 0, self.setup)
        comp, diameter = base_component(recolored, self.space, 0, 0, self.setup)
        assert comp == frozenset({0, 1, 2, 3, 4})
        assert diameter == self.space.graph.set_diameter(comp) == 4
        assert diameter <= 8 * self.setup.piece_magnitude

    def test_whole_piece_when_all_zero(self):
        raw = {v: 0 for v in range(11)}
        assert base_component(raw, self.space, 0, 0, self.setup) == (frozenset(range(11)), 10)

    def test_isolated_base_vertex(self):
        raw = {v: 0 if v == 0 or v >= 5 else 1 for v in range(11)}
        assert base_component(raw, self.space, 0, 0, self.setup) == (frozenset({0}), 0)

    def test_nonzero_base_rejected(self):
        raw = {v: 1 for v in range(11)}
        with pytest.raises(ValueError):
            base_component(raw, self.space, 0, 0, self.setup)


def assert_base_components_match_piece_oracle(space: Space, r: int, mode: str, seed: int):
    """Every piece's base component and its diameter, for the pipeline's
    recoloring and for a random one, against brute-force scale components of
    the color-0 vertices in the piece's own induced subgraph (the
    piece-internal metric)."""
    rnd = random.Random(seed)
    setup = ScaleSetup(r=r, n=natural_color_count(space), chain_mode=mode)
    for pid, pc in build_piece_colorings(space, setup).items():
        piece = sorted(space.pieces[pid])
        local = {v: i for i, v in enumerate(piece)}
        inside = Graph(
            len(piece), [(local[u], local[w]) for u, w in space.graph.edges if u in local and w in local]
        )
        random_zero = {v: 0 if v == pc.basepoint else rnd.randint(0, 1) for v in piece}
        cases = [
            (pc.recolored, (pc.base_component, pc.base_diameter)),
            (random_zero, base_component(random_zero, space, pid, pc.basepoint, setup)),
        ]
        for colors, got in cases:
            zero = [local[v] for v in piece if colors[v] == 0]
            parts = brute_scale_components(inside, zero, setup.chain)
            want = next(part for part in parts if local[pc.basepoint] in part)
            assert got == (frozenset(piece[i] for i in want), brute_set_diameter(inside, want)), (pid, r, mode)


class TestBaseComponentRoute:
    chain = st.tuples(st.integers(min_value=2, max_value=8), st.sampled_from(["strict", "weak"]))

    @settings(max_examples=30, deadline=None)
    @given(small_spaces(), chain, st.integers(min_value=0, max_value=2**32))
    def test_generated_spaces(self, space, rm, seed):
        assert_base_components_match_piece_oracle(space, *rm, seed)

    @settings(max_examples=20, deadline=None)
    @given(small_spaces(max_budget=4), st.integers(min_value=2, max_value=3), chain, st.integers(0, 2**32))
    def test_subdivided_spaces(self, space, k, rm, seed):
        assert_base_components_match_piece_oracle(subdivide_space(space, k), *rm, seed)

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(TEMPLATE_POOL),
        st.sampled_from(TEMPLATE_POOL),
        st.integers(min_value=1, max_value=3),
        chain,
        st.integers(min_value=0, max_value=2**32),
    )
    def test_free_product_models(self, left, right, depth, rm, seed):
        space = gen_free_product_model(
            PieceTemplate.parse(left), PieceTemplate.parse(right), depth, attach_spacing=2, seed=seed
        )
        assert_base_components_match_piece_oracle(space, *rm, seed)

    def test_invalid_space_rejected(self):
        # pentagon cut into a path piece and an edge piece: pieces meet twice
        g = cycle_graph(5)
        space = Space(g, [{0, 1, 2, 3}, {3, 4, 0}], 0)
        with pytest.raises(ValueError, match="violates"):
            base_component({v: 0 for v in range(4)}, space, 0, 0, ScaleSetup(r=2, n=1))


class TestShapeMemo:
    def test_grids_coordinatised_once_per_space(self, monkeypatch):
        calls: Counter = Counter()
        detect = coloring._grid_coordinates

        def counting(piece, adj):
            calls[piece] += 1
            return detect(piece, adj)

        monkeypatch.setattr(coloring, "_grid_coordinates", counting)
        space = gen_free_product_model(
            PieceTemplate.parse("grid:4x5"), PieceTemplate.parse("path:6"), depth=3, attach_spacing=3
        )
        for r in (2, 4, 6, 8):
            build_piece_colorings(space, ScaleSetup(r=r, n=natural_color_count(space)))
        grids = [p for pid, p in enumerate(space.pieces) if classify_piece(space, pid).kind == "grid"]
        assert len(grids) > 1
        assert calls == Counter({p: 1 for p in grids})
        # the memo lives on the space: dropping the space frees it
        ref = weakref.ref(space)
        del space
        gc.collect()
        assert ref() is None


class TestMagnitude:
    def test_band_path_magnitude_two(self):
        g = path_graph(11)
        colors = {v: (v // 3) % 2 for v in range(11)}
        report = magnitude_report(g, colors, strict_chain(2))
        assert report.magnitude == 2
        assert brute_magnitude(g, colors, strict_chain(2)) == 2

    def test_constant_coloring_gives_diameter(self):
        g = cycle_graph(9)
        report = magnitude_report(g, {v: 0 for v in range(9)}, strict_chain(2))
        assert report.magnitude == g.diameter()

    def test_rainbow_gives_zero(self):
        g = path_graph(6)
        report = magnitude_report(g, {v: v for v in range(6)}, strict_chain(4))
        assert report.magnitude == 0
        assert all(c.max_diameter == 0 for c in report.per_color)

    def test_witness_realizes_magnitude(self):
        g = path_graph(11)
        report = magnitude_report(g, {v: (v // 3) % 2 for v in range(11)}, strict_chain(2))
        assert report.witness is not None
        u, v = report.witness
        assert g.shortest_dist(u, v) == report.magnitude

    @settings(max_examples=25, deadline=None)
    @given(small_spaces(max_budget=4), st.integers(2, 5))
    def test_weak_at_least_strict(self, space, r):
        colors = {v: v % 3 for v in range(space.graph.vertex_count)}
        strict = magnitude_report(space.graph, colors, strict_chain(r)).magnitude
        weak = magnitude_report(space.graph, colors, weak_chain(r)).magnitude
        assert weak >= strict


def ambient_report(graph: Graph, colors: dict[int, int], pred: ChainPredicate) -> dict:
    """magnitude_report the ambient way: one diameter_witness call per component."""
    classes: dict[int, list[int]] = {}
    for v, c in colors.items():
        classes.setdefault(c, []).append(v)
    per_color, overall, witness = [], 0, None
    for c in sorted(classes):
        comps = graph.scale_components(classes[c], pred)
        best, pair = 0, None
        for comp in comps:
            diam, at = graph.diameter_witness(comp)
            if diam > best:
                best, pair = diam, at
        per_color.append(
            {"color": c, "components": len(comps), "max_diameter": best, "witness": list(pair) if pair else None}
        )
        if best > overall:
            overall, witness = best, pair
    return {"magnitude": overall, "witness": list(witness) if witness else None, "per_color": per_color}


class TestPieceTableRoute:
    """Piece magnitudes and whole-space reports, read from the pieces' tables,
    against the brute-force oracles and the ambient route."""

    @settings(max_examples=40, deadline=None)
    @given(validated_spaces, st.integers(2, 6), st.sampled_from(["strict", "weak"]), st.data())
    def test_reports_match_ambient_route_and_oracle(self, space, r, mode, data):
        g = space.graph
        pred = ChainPredicate(mode, r)
        n = g.vertex_count
        colors = dict(enumerate(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))))
        report = magnitude_report(g, colors, pred)
        assert report.to_dict() == ambient_report(g, colors, pred)
        assert report.magnitude == brute_magnitude(g, colors, pred)
        # the kept components, empty classes included, are the ambient partition
        ranged = magnitude_report(g, colors, pred, color_range=5)
        assert list(ranged.components) == list(range(5))
        for c, parts in ranged.components.items():
            assert parts == g.scale_components([v for v, k in colors.items() if k == c], pred), c
        assert report.components == {c: parts for c, parts in ranged.components.items() if parts}
        assert dataclasses.replace(report, components={}) == report  # not part of the value

    @settings(max_examples=40, deadline=None)
    @given(validated_spaces, st.integers(2, 6), st.data())
    def test_piece_magnitudes_match_oracle(self, space, r, data):
        setup = ScaleSetup(r=r, n=2)
        raw = {
            pid: dict(zip(sorted(piece), data.draw(st.lists(st.integers(0, 2), min_size=len(piece), max_size=len(piece)))))
            for pid, piece in enumerate(space.pieces)
        }
        per_piece = [brute_magnitude(space.graph, raw[pid], setup.chain) for pid in sorted(raw)]
        assert compute_piece_magnitude(space, raw, setup) == max(r, *per_piece)
        certify_piece_colorings(space, raw, setup, declared=max(per_piece))
        if max(per_piece) > 0:
            with pytest.raises(CertificationError):
                certify_piece_colorings(space, raw, setup, declared=max(per_piece) - 1)

    # one component of the whole cycle; many short arcs; every other vertex
    # colored, so that the pass gathers its blocks
    @pytest.mark.parametrize("period, stride, magnitude", [(3000, 1, 1500), (7, 1, 6), (3000, 2, 1500)])
    def test_report_on_long_cycle_reads_one_block_at_a_time(self, period, stride, magnitude):
        n = 3000
        g = cycle_graph(n)
        g.dist_row(0)  # the cycle's one n x n table exists before anything is traced
        colors = {v: (v // period) % 3 for v in range(0, n, stride)}
        tracemalloc.start()
        try:
            report = magnitude_report(g, colors, strict_chain(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.magnitude == magnitude
        # one int32 block of table rows, plus O(n) index and result arrays
        assert peak < 4 * _BLOCK_ENTRIES + 2**20


class TestNoQuadraticMemory:
    def test_pipeline_peaks_below_a_quarter_matrix(self):
        # twelve-by-twelve grids glued along a tree, as the benchmark's ladder grows them
        spec = ForgeSpec(
            templates=((PieceTemplate.parse("grid:12x12"), 1),),
            piece_budget=21,
            max_tree_depth=10,
            attach_spacing=3,
            branch_cap=3,
            seed=7,
        )
        space = gen_random(spec)
        n = space.graph.vertex_count
        assert n >= 3000
        tracemalloc.start()
        try:
            assert space.validate().ok
            setup = ScaleSetup(r=8, n=natural_color_count(space))
            colored = color_space(space, setup, build_piece_colorings(space, setup))
            report = magnitude_report(space.graph, colored.as_mapping(), setup.chain)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.magnitude <= ASSEMBLED_BOUND_FACTOR * setup.require_magnitude() + 2 * setup.r
        assert peak < n * n  # bytes: a quarter of one int32 n x n matrix


class TestComputeMagnitudeAndCertify:
    def test_single_edge_pieces_clamp_to_r(self):
        space = edge_piece_path(6)
        setup = ScaleSetup(r=3, n=1)
        raw = raw_piece_colorings(space, setup)
        assert compute_piece_magnitude(space, raw, setup) == 3
        assert setup.color_period == 99 * 3

    def test_band_paths_at_width_three(self):
        space = single_piece_path(10)
        setup = ScaleSetup(r=2, n=1)
        raw = {0: band_coloring(space, 0, root=0, width=3)}
        assert compute_piece_magnitude(space, raw, setup) == 2

    def test_mixed_takes_max(self):
        spec = ForgeSpec(
            templates=((PieceTemplate.parse("grid:5x6"), 1), (PieceTemplate.parse("path:9"), 2)),
            piece_budget=4,
            seed=3,
        )
        space = gen_random(spec)
        setup = ScaleSetup(r=2, n=2)
        raw = raw_piece_colorings(space, setup)
        per_piece = [
            magnitude_report(space.graph, raw[pid], setup.chain).magnitude for pid in sorted(raw)
        ]
        assert compute_piece_magnitude(space, raw, setup) == max(setup.r, *per_piece)

    def test_certification_rejects_overshoot(self):
        space = single_piece_path(12)
        setup = ScaleSetup(r=2, n=1)
        constant = {0: {v: 0 for v in range(13)}}  # one component of diameter 12
        with pytest.raises(CertificationError):
            certify_piece_colorings(space, constant, setup, declared=5)

    def test_certification_rejects_out_of_range_color(self):
        space = single_piece_path(4)
        setup = ScaleSetup(r=2, n=1)
        with pytest.raises(CertificationError):
            certify_piece_colorings(space, {0: {v: 5 for v in range(5)}}, setup, declared=9)

    def test_user_colorings_accepted_when_certified(self):
        space = single_piece_path(10)
        setup = ScaleSetup(r=2, n=1)
        raw = {0: band_coloring(space, 0, root=0, width=3)}
        colorings = build_piece_colorings(space, setup, raw_colorings=raw, declared=4)
        assert setup.piece_magnitude == 4
        assert colorings[0].recolored[0] == 0

    @settings(max_examples=20, deadline=None)
    @given(small_spaces(max_budget=5), st.sampled_from([2, 3, 4]))
    def test_generated_strategies_certify_and_bound_base_components(self, space, r):
        setup = ScaleSetup(r=r, n=natural_color_count(space))
        colorings = build_piece_colorings(space, setup)
        bound = 8 * setup.piece_magnitude
        for pc in colorings.values():
            assert pc.recolored[pc.basepoint] == 0
            assert space.graph.set_diameter(pc.base_component) <= bound
            changed = {v for v in pc.raw if pc.raw[v] != pc.recolored[v]}
            ball = {
                v
                for v, d in space.piece_dist_from(pc.piece_id, pc.basepoint).items()
                if d <= setup.recolor_radius
            }
            assert changed <= ball
