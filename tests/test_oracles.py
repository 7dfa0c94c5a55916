"""The brute-force oracles themselves, plus production-vs-oracle agreement."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegraded.coloring import ScaleSetup, build_piece_colorings, magnitude_report
from treegraded.graph import Graph, strict_chain, weak_chain
from treegraded.oracles import (
    bfs_dists,
    brute_magnitude,
    brute_scale_components,
    enumerate_geodesics,
    floyd_warshall,
    geodesic_invariance,
    min_magnitude,
)
from treegraded.rng import SplitMix64

from conftest import (
    connected_graphs,
    cycle_graph,
    edge_piece_path,
    path_graph,
    small_spaces,
    tripod_space,
)


class TestDistanceOracles:
    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(max_n=20))
    def test_bfs_matches_floyd_warshall(self, g: Graph):
        ref = floyd_warshall(g)
        for u in range(g.vertex_count):
            assert bfs_dists(g, u) == ref[u]


class TestEnumerateGeodesics:
    def test_unique_on_path(self):
        paths = enumerate_geodesics(path_graph(5), 0, 4)
        assert [p.vertices for p in paths] == [(0, 1, 2, 3, 4)]

    def test_two_on_even_cycle(self):
        paths = {p.vertices for p in enumerate_geodesics(cycle_graph(4), 0, 2)}
        assert paths == {(0, 1, 2), (0, 3, 2)}

    def test_counts_multiply_on_grid(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])  # 2x2 grid
        assert len(enumerate_geodesics(g, 0, 3)) == 2


class TestGeodesicInvariance:
    def test_tree_space_vacuous(self):
        space = tripod_space(arm=2)
        setup = ScaleSetup(r=2, n=1)
        colorings = build_piece_colorings(space, setup)
        ok, witnesses = geodesic_invariance(space, setup, colorings)
        assert ok and witnesses == []

    def test_four_cycle_single_piece(self):
        from treegraded.space import Space

        space = Space(cycle_graph(4), [set(range(4))], 0)
        setup = ScaleSetup(r=2, n=1)
        colorings = build_piece_colorings(space, setup)
        ok, witnesses = geodesic_invariance(space, setup, colorings)
        assert ok, witnesses

    def test_size_guard(self):
        space = edge_piece_path(20)
        setup = ScaleSetup(r=2, n=1)
        colorings = build_piece_colorings(space, setup)
        with pytest.raises(ValueError):
            geodesic_invariance(space, setup, colorings, max_vertices=12)


class TestMinMagnitude:
    def test_five_path_strict_is_one(self):
        # strict scale 3 (steps <= 2): coloring 0,0,1,1,0 achieves 1; 0 impossible
        assert min_magnitude(path_graph(5), strict_chain(3), n=1) == 1

    def test_five_path_weak_is_two(self):
        # weak scale 3 (steps <= 3): vertices {0..3} are pairwise within 3, so a
        # color class always carries a component of diameter >= 2; 0,0,0,1,1 hits 2
        assert min_magnitude(path_graph(5), weak_chain(3), n=1) == 2

    def test_single_vertex(self):
        assert min_magnitude(Graph(1, []), weak_chain(3), n=1) == 0

    def test_triangle_rainbow(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert min_magnitude(g, strict_chain(2), n=2) == 0

    def test_size_guards(self):
        with pytest.raises(ValueError):
            min_magnitude(path_graph(20), strict_chain(2), n=1)
        with pytest.raises(ValueError):
            min_magnitude(path_graph(14), strict_chain(2), n=2)  # 3^14 colorings

    def test_negative_color_count_rejected(self):
        # no coloring has fewer than one color
        with pytest.raises(ValueError, match="need n >= 0"):
            min_magnitude(path_graph(5), strict_chain(3), n=-1)
        assert min_magnitude(path_graph(5), strict_chain(3), n=0) == 4

    @settings(max_examples=15, deadline=None)
    @given(connected_graphs(max_n=6), st.integers(2, 4), st.booleans())
    def test_never_exceeds_any_concrete_coloring(self, g, r, weak):
        pred = weak_chain(r) if weak else strict_chain(r)
        best = min_magnitude(g, pred, n=1)
        concrete = brute_magnitude(g, {v: v % 2 for v in range(g.vertex_count)}, pred)
        assert best <= concrete


class TestProductionAgainstOracle:
    @settings(max_examples=25, deadline=None)
    @given(small_spaces(max_budget=4), st.integers(2, 4), st.booleans(), st.integers(0, 2**32))
    def test_magnitude_engine_matches_brute_force(self, space, r, weak, seed):
        pred = weak_chain(r) if weak else strict_chain(r)
        rng = SplitMix64(seed)
        colors = {v: rng.randint(0, 2) for v in range(space.graph.vertex_count)}
        assert magnitude_report(space.graph, colors, pred).magnitude == brute_magnitude(
            space.graph, colors, pred
        )

    @settings(max_examples=25, deadline=None)
    @given(small_spaces(max_budget=4), st.booleans())
    def test_components_match_brute_force(self, space, weak):
        pred = weak_chain(3) if weak else strict_chain(3)
        subset = set(range(0, space.graph.vertex_count, 2))
        assert space.graph.scale_components(subset, pred) == brute_scale_components(
            space.graph, subset, pred
        )
