"""Metric primitives against spec examples and the Floyd-Warshall oracle."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegraded.forge import PieceTemplate, gen_free_product_model, subdivide_space
from treegraded.graph import (
    _BLOCK_ENTRIES,
    ChainPredicate,
    Graph,
    GraphError,
    Path,
    strict_chain,
    weak_chain,
)
from treegraded.oracles import brute_scale_components, floyd_warshall

from conftest import TEMPLATE_POOL, connected_graphs, cycle_graph, path_graph, small_spaces


def _validated_graph(space) -> Graph:
    assert space.validate().ok  # the matrix is composed along the gluing tree
    return space.graph


# graphs the measurement routes meet: generated, subdivided and free-product
# spaces, plus plain cycles and paths, where Voronoi ties are common
measured_graphs = st.one_of(
    small_spaces(max_budget=4).map(_validated_graph),
    st.builds(subdivide_space, small_spaces(max_budget=2), st.integers(2, 3)).map(_validated_graph),
    st.builds(
        lambda left, right, depth, seed: gen_free_product_model(
            PieceTemplate.parse(left), PieceTemplate.parse(right), depth, attach_spacing=2, seed=seed
        ),
        st.sampled_from(TEMPLATE_POOL),
        st.sampled_from(TEMPLATE_POOL),
        st.integers(1, 2),
        st.integers(0, 2**32),
    ).map(_validated_graph),
    st.integers(3, 40).map(cycle_graph),
    st.integers(1, 40).map(path_graph),
)


class TestShortestDist:
    def test_path_two_steps(self):
        assert path_graph(3).shortest_dist(0, 2) == 2

    def test_self_distance_zero(self):
        g = cycle_graph(5)
        for v in range(5):
            assert g.shortest_dist(v, v) == 0

    def test_six_cycle_wraps(self):
        # both arcs enumerated by hand: 0-1-2-3-4 (4 edges) vs 0-5-4 (2 edges)
        assert cycle_graph(6).shortest_dist(0, 4) == 2

    def test_unknown_vertex(self):
        with pytest.raises(GraphError):
            path_graph(3).shortest_dist(0, 7)
        with pytest.raises(GraphError):
            path_graph(3).dist_block([0], [-1])
        with pytest.raises(GraphError):
            path_graph(3).dist_block([3])
        with pytest.raises(GraphError):
            path_graph(3).dist_pairs([0, 1], [2, 3])
        with pytest.raises(GraphError):
            path_graph(3).dist_pairs([0, 1], [2])

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(max_n=24), st.data())
    def test_metric_axioms_match_floyd_warshall(self, g: Graph, data):
        ref = floyd_warshall(g)
        n = g.vertex_count
        for u in range(n):
            row = g.dist_row(u)
            for v in range(n):
                assert int(row[v]) == ref[u][v]
                assert ref[u][v] == ref[v][u]
                assert (ref[u][v] == 0) == (u == v)
        for u in range(n):
            for v in range(n):
                for w in range(n):
                    assert ref[u][w] <= ref[u][v] + ref[v][w]
        vertices = st.lists(st.integers(0, n - 1), min_size=1, max_size=n)
        rows, cols = data.draw(vertices), data.draw(vertices)
        assert g.dist_block(rows, cols).tolist() == [[ref[u][v] for v in cols] for u in rows]
        assert g.dist_block(rows).tolist() == [ref[u] for u in rows]
        cols = (cols * len(rows))[: len(rows)]
        assert g.dist_pairs(rows, cols).tolist() == [ref[u][v] for u, v in zip(rows, cols)]

    def test_long_cycle_spans_several_source_blocks(self):
        # 3,000 vertices fill the matrix in three blocks of source rows
        n = 3000
        g = cycle_graph(n)
        verts = np.arange(n)

        def closed_form(u):
            gap = np.abs(verts - u)
            return np.minimum(gap, n - gap)

        for u in (0, 1, 1397, 1398, 1399, 2795, 2796, 2999):
            assert np.array_equal(g.dist_row(u), closed_form(u))
        rows = np.arange(0, n, 7)
        cols = np.arange(n - 1, -1, -11)
        expect = np.stack([closed_form(u) for u in rows])
        assert np.array_equal(g.dist_block(rows), expect)
        assert np.array_equal(g.dist_block(rows, cols), expect[:, cols])


class TestComposeDistances:
    @pytest.mark.parametrize(
        "pieces, cuts",
        [
            ([[0, 1], [2, 3], [1, 2]], [-1, 2, 1]),  # cut 2 is placed only later
            ([[0, 1], [1, 2], [2, 3]], [-1, 1, 1]),  # cut 1 is not in piece {2,3}
            ([[0, 1], [1, 2]], [-1, 1]),  # vertex 3 lies in no piece
            ([[0, 1, 2], [1, 2, 3]], [-1, 1]),  # the pieces share 2 as well as the cut
            ([[0, 1], [2, 3], [1, 2]], [-1, -1, 1]),  # a second root
        ],
    )
    def test_bad_placements_rejected(self, pieces, cuts):
        with pytest.raises(GraphError):
            path_graph(4).compose_distances([np.array(p) for p in pieces], cuts)


class TestCanonicalGeodesic:
    def test_unique_geodesic_on_path(self):
        assert path_graph(4).canonical_geodesic(0, 3).vertices == (0, 1, 2, 3)

    def test_single_vertex(self):
        assert cycle_graph(4).canonical_geodesic(2, 2).vertices == (2,)

    def test_four_cycle_tie_break(self):
        # two geodesics 0-1-2 and 0-3-2; smallest-parent rule picks 1
        assert cycle_graph(4).canonical_geodesic(0, 2).vertices == (0, 1, 2)

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(max_n=20), st.integers(0, 10**6), st.integers(0, 10**6))
    def test_length_and_determinism(self, g: Graph, a: int, b: int):
        u, v = a % g.vertex_count, b % g.vertex_count
        p1 = g.canonical_geodesic(u, v)
        p2 = g.canonical_geodesic(u, v)
        assert p1 == p2
        assert p1.length == g.shortest_dist(u, v)
        assert g.is_path(p1) or p1.length == 0

    def test_parent_array_matches_per_vertex_calls(self):
        g = cycle_graph(9)
        parents = g.canonical_parents(0)
        for v in range(9):
            path = g.canonical_geodesic(0, v)
            if v == 0:
                assert parents[v] == -1
            else:
                assert parents[v] == path.vertices[-2]


class TestBall:
    def test_radius_zero(self):
        assert path_graph(5).ball(3, 0) == {3}

    def test_path_prefix(self):
        assert path_graph(11).ball(0, 4) == {0, 1, 2, 3, 4}

    def test_six_cycle(self):
        assert cycle_graph(6).ball(0, 2) == {0, 1, 2, 4, 5}

    def test_negative_radius(self):
        with pytest.raises(GraphError):
            path_graph(3).ball(0, -1)


class TestScaleComponents:
    def test_two_clusters_on_path(self):
        g = path_graph(11)
        parts = g.scale_components({0, 1, 2, 6, 7, 8}, strict_chain(2))
        assert parts == [frozenset({0, 1, 2}), frozenset({6, 7, 8})]
        assert parts == brute_scale_components(g, {0, 1, 2, 6, 7, 8}, strict_chain(2))

    def test_singleton(self):
        assert path_graph(5).scale_components({3}, strict_chain(2)) == [frozenset({3})]

    def test_whole_graph_one_part_above_diameter(self):
        g = cycle_graph(8)
        r = g.diameter() + 1
        assert g.scale_components(range(8), strict_chain(r)) == [frozenset(range(8))]

    def test_weak_joins_at_exactly_r(self):
        g = path_graph(7)
        strict_parts = g.scale_components({0, 3, 6}, strict_chain(3))
        weak_parts = g.scale_components({0, 3, 6}, weak_chain(3))
        assert strict_parts == [frozenset({0}), frozenset({3}), frozenset({6})]
        assert weak_parts == [frozenset({0, 3, 6})]

    @settings(max_examples=30, deadline=None)
    @given(connected_graphs(max_n=16), st.integers(2, 5), st.booleans())
    def test_parts_separated_and_connected(self, g: Graph, r: int, weak: bool):
        pred = weak_chain(r) if weak else strict_chain(r)
        subset = set(range(0, g.vertex_count, 2))
        parts = g.scale_components(subset, pred)
        assert set().union(*parts) == subset if parts else subset == set()
        for i, a in enumerate(parts):
            for b in parts[i + 1 :]:
                gap = min(g.shortest_dist(u, v) for u in a for v in b)
                assert gap > pred.max_step
        assert parts == brute_scale_components(g, subset, pred)


class TestMeasurementRoutes:
    """The BFS route of scale_components and the blocked eccentricities of
    diameter_witness against the brute-force oracles."""

    @settings(max_examples=60, deadline=None)
    @given(measured_graphs, st.data())
    def test_scale_components_match_brute_force(self, g: Graph, data):
        n = g.vertex_count
        subset = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
        for step in range(10):
            preds = [strict_chain(step + 1)] + ([weak_chain(step)] if step else [])
            for pred in preds:
                assert g.scale_components(subset, pred) == brute_scale_components(g, subset, pred)

    @settings(max_examples=40, deadline=None)
    @given(measured_graphs, st.data())
    def test_diameter_witness_is_first_row_major_maximum(self, g: Graph, data):
        n = g.vertex_count
        subset = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
        ref = floyd_warshall(g)
        best, pair = -1, None
        for x in subset:
            for y in subset:
                if ref[x][y] > best:
                    best, pair = ref[x][y], (x, y)
        assert g.diameter_witness(subset) == (best, pair)

    def test_no_quadratic_block_on_long_cycle(self):
        n = 3000
        g = cycle_graph(n)
        g.dist_row(0)  # the distance matrix exists before anything is traced
        tracemalloc.start()
        try:
            parts = g.scale_components(range(0, n, 2), strict_chain(2))
            _, components_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            diam = g.diameter_witness(range(n))
            _, diameter_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(parts) == n // 2
        assert diam == (n // 2, (0, n // 2))
        assert components_peak < 2**20
        # one int32 block of eccentricity rows, plus O(n) index and result arrays
        assert diameter_peak < 4 * _BLOCK_ENTRIES + 2**20


class TestSetDiameter:
    def test_singleton(self):
        assert path_graph(4).set_diameter({2}) == 0

    def test_path_prefix(self):
        assert path_graph(5).set_diameter({0, 1, 2}) == 2

    def test_six_cycle_alternating(self):
        # pairwise distances among {0,2,4} on a 6-cycle are all 2
        assert cycle_graph(6).set_diameter({0, 2, 4}) == 2

    def test_empty_errors(self):
        with pytest.raises(GraphError):
            path_graph(3).set_diameter(set())


class TestGraphValidation:
    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            Graph(4, [(0, 1), (2, 3)])

    def test_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 5)])

    def test_chain_predicate_modes(self):
        assert strict_chain(3).max_step == 2
        assert weak_chain(3).max_step == 3
        with pytest.raises(ValueError):
            ChainPredicate("loose", 3)

    def test_path_type(self):
        p = Path((4, 5, 6))
        assert p.length == 2 and p.start == 4 and p.end == 6
        assert p.subpath(1, 2).vertices == (5, 6)
        with pytest.raises(ValueError):
            Path(())
