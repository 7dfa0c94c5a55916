"""Metric primitives against spec examples and the Floyd-Warshall oracle."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegraded.graph import (
    _BLOCK_ENTRIES,
    ChainPredicate,
    Graph,
    GraphError,
    Path,
    piece_diameters,
    strict_chain,
    weak_chain,
)
from treegraded.coloring import ScaleSetup, build_piece_colorings
from treegraded.oracles import bfs_dists, brute_scale_components, floyd_warshall
from treegraded.space import InvalidSpaceError, Space

from conftest import (
    chain_of_three_paths,
    connected_graphs,
    cycle_graph,
    path_graph,
    small_spaces,
    two_triangles_sharing_edge,
    validated_spaces,
)


def _validated_graph(space) -> Graph:
    assert space.validate().ok  # the metric is composed along the gluing tree
    return space.graph


composed_graphs = validated_spaces.map(lambda space: space.graph)

# graphs the measurement routes meet: composed ones, plus plain cycles and
# paths (one piece each), where Voronoi ties are common
measured_graphs = st.one_of(
    composed_graphs,
    st.integers(3, 40).map(cycle_graph),
    st.integers(1, 40).map(path_graph),
)


def first_row_major_max(ref: list[list[int]], subset: list[int]) -> tuple[int, tuple[int, int]]:
    """Diameter of a sorted subset and the first pair reaching it, row-major."""
    best, pair = -1, None
    for x in subset:
        for y in subset:
            if ref[x][y] > best:
                best, pair = ref[x][y], (x, y)
    return best, pair


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

    def test_one_piece_table_is_written_once(self):
        n = 4000  # a 64 MB int32 table, larger than one float64 block of scipy's fill
        g = cycle_graph(n)
        tracemalloc.start()
        try:
            g.dist_row(0)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept >= 4 * n * n
        # beyond the table it keeps, the fill holds one float64 block of
        # scipy's output at a time and never a second copy of the table
        assert peak - kept < 8 * _BLOCK_ENTRIES + 2**22


class TestComposedEngine:
    """Rows, blocks, pairs and diameters composed from the per-piece tables,
    against the BFS and Floyd-Warshall oracles and the one-piece generic fill."""

    @settings(max_examples=40, deadline=None)
    @given(composed_graphs, st.data())
    def test_rows_blocks_and_pairs(self, g: Graph, data):
        n = g.vertex_count
        ref = [bfs_dists(g, u) for u in range(n)]
        vertices = st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)
        # blocks and pairs first, while they still compose their missing rows
        rows, cols = data.draw(vertices), data.draw(vertices)
        assert g.dist_block(rows, cols).tolist() == [[ref[u][v] for v in cols] for u in rows]
        us = data.draw(vertices)
        vs = data.draw(st.lists(st.integers(0, n - 1), min_size=len(us), max_size=len(us)))
        assert g.dist_pairs(us, vs).tolist() == [ref[u][v] for u, v in zip(us, vs)]
        assert g.dist_block(rows).tolist() == [ref[u] for u in rows]
        generic = Graph(n, g.edges)  # one piece: the whole graph's table
        for u in range(n):
            assert g.dist_row(u).tolist() == ref[u] == generic.dist_row(u).tolist()

    @settings(max_examples=30, deadline=None)
    @given(composed_graphs, st.data())
    def test_diameters_of_every_scale_component(self, g: Graph, data):
        n = g.vertex_count
        ref = floyd_warshall(g)
        colors = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        for r in range(2, 9):
            for c in range(3):
                members = [v for v in range(n) if colors[v] == c]
                for comp in g.scale_components(members, strict_chain(r)):
                    assert g.diameter_witness(comp) == first_row_major_max(ref, sorted(comp))

    def test_piece_diameters_read_the_table_handed_in(self):
        space = chain_of_three_paths()  # pieces {0,1,2}, {2,3,4}, {4,5,6}
        middle = space.piece_table(1)
        comp, diam = piece_diameters(middle, [0, 0, 0], max_step=1)
        assert comp.tolist() == [0, 0, 0] and diam.tolist() == [2]
        comp, diam = piece_diameters(middle, [0, -1, 0], max_step=1)
        assert comp.tolist() == [0, -1, 1] and diam.tolist() == [0, 0]
        comp, diam = piece_diameters(middle, [0, -1, 0])
        assert comp.tolist() == [0, -1, 0] and diam.tolist() == [2]
        with pytest.raises(GraphError):  # one label per vertex of the piece
            piece_diameters(middle, [0, 0])
        with pytest.raises(InvalidSpaceError):  # an invalid space keeps no table
            two_triangles_sharing_edge().piece_table(0)
        # a plain graph's whole table
        comp, diam = piece_diameters(path_graph(5).dist_block(range(5)), [1, 1, 0, 1, 1], max_step=1)
        assert comp.tolist() == [1, 1, 0, 2, 2] and diam.tolist() == [0, 1, 1]

    def test_spaces_sharing_a_graph_keep_their_own_tables(self):
        # validating a second space on the same graph replaces the graph's
        # tables; the first space still measures its pieces on its own
        g = path_graph(7)
        first = Space(g, [{0, 1, 2}, {2, 3, 4}, {4, 5, 6}], 0)
        second = Space(g, [{0, 1, 2, 3}, {3, 4, 5, 6}], 0)
        assert first.validate().ok and second.validate().ok
        setup = ScaleSetup(r=2, n=1)
        colorings = build_piece_colorings(first, setup)
        assert [pc.base_component for pc in colorings.values()] == [
            frozenset({0, 1, 2}), frozenset({2, 3, 4}), frozenset({4, 5, 6})
        ]
        assert piece_diameters(first.piece_table(0), [0, 0, 0])[1].tolist() == [2]
        assert piece_diameters(second.piece_table(0), [0, 0, 0, 0])[1].tolist() == [3]


def min_walk_geodesic(g: Graph, u: int, v: int) -> tuple[int, ...]:
    """canonical_geodesic as it stepped to the min() of the neighbors one unit
    closer to u: the reference for the walk over sorted adjacency."""
    row = g.dist_row(u)
    verts = [v]
    cur = v
    while cur != u:
        target = row[cur] - 1
        cur = min(w for w in g.adj[cur] if row[w] == target)
        verts.append(cur)
    return tuple(reversed(verts))


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
        assert all((min(a, b), max(a, b)) in g.edges for a, b in zip(p1.vertices, p1.vertices[1:]))

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(max_n=20))
    def test_walk_equals_the_min_walk(self, g: Graph):
        for u in range(g.vertex_count):
            for v in range(g.vertex_count):
                assert g.canonical_geodesic(u, v).vertices == min_walk_geodesic(g, u, v)

    @settings(max_examples=30, deadline=None)
    @given(small_spaces(), st.data())
    def test_parents_reproduce_canonical_geodesics(self, space, data):
        g = _validated_graph(space)
        root = data.draw(st.integers(0, g.vertex_count - 1))
        parents = g.canonical_parents(root)
        assert parents[root] == -1
        for v in range(g.vertex_count):
            walk = [v]
            while walk[-1] != root:
                walk.append(int(parents[walk[-1]]))
            assert tuple(reversed(walk)) == g.canonical_geodesic(root, v).vertices

    def test_parent_array_matches_per_vertex_calls(self):
        g = cycle_graph(9)
        parents = g.canonical_parents(0)
        for v in range(9):
            path = g.canonical_geodesic(0, v)
            if v == 0:
                assert parents[v] == -1
            else:
                assert parents[v] == path.vertices[-2]


class TestNearMask:
    """The landing mask of check_geodesic_chain_distance: one bounded
    multi-source BFS against the |V| x |S| block route it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(measured_graphs, st.integers(0, 7), st.data())
    def test_mask_equals_the_block_route(self, g: Graph, radius: int, data):
        n = g.vertex_count
        members = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
        everyone = np.arange(n)
        want = (g.dist_block(everyone, members).min(axis=1) <= radius) | np.isin(everyone, members)
        assert g.near_mask(members, radius).tolist() == want.tolist()

    def test_bad_queries_raise(self):
        g = path_graph(4)
        assert g.near_mask({0}, 0).tolist() == [True, False, False, False]
        with pytest.raises(GraphError):
            g.near_mask(set(), 1)
        with pytest.raises(GraphError):
            g.near_mask({0}, -1)
        with pytest.raises(GraphError):
            g.near_mask({4}, 1)


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


def brute_piece_diameters(g: Graph, verts: list[int], labels: list[int], max_step: int | None):
    """piece_diameters from the oracles: brute components per class in class
    order, then by smallest vertex, and Floyd-Warshall diameters."""
    ref = floyd_warshall(g)
    comp, diam = [-1] * len(verts), []
    for c in sorted({c for c in labels if c >= 0}):
        members = [v for v, label in zip(verts, labels) if label == c]
        parts = [frozenset(members)] if max_step is None else brute_scale_components(g, members, weak_chain(max_step) if max_step else strict_chain(1))
        for part in parts:
            for i, v in enumerate(verts):
                if v in part:
                    comp[i] = len(diam)
            diam.append(first_row_major_max(ref, sorted(part))[0])
    return comp, diam


class TestPieceDiameters:
    """One pass over a kept piece's table against the brute-force oracles."""

    @settings(max_examples=60, deadline=None)
    @given(validated_spaces, st.data())
    def test_every_piece_matches_brute_force(self, space, data):
        g = space.graph
        for pid, piece in enumerate(space.pieces):
            verts = sorted(piece)
            labels = data.draw(st.lists(st.integers(-1, 2), min_size=len(verts), max_size=len(verts)))
            for max_step in (None, 0, 1, 2, 3, 5, 8):
                comp, diam = piece_diameters(space.piece_table(pid), labels, max_step)
                assert (comp.tolist(), diam.tolist()) == brute_piece_diameters(g, verts, labels, max_step)

    @settings(max_examples=40, deadline=None)
    @given(measured_graphs, st.data())
    def test_diameters_of_disjoint_sets(self, g: Graph, data):
        n = g.vertex_count
        labels = data.draw(st.lists(st.integers(-1, 4), min_size=n, max_size=n))
        parts = [{v for v in range(n) if labels[v] == c} for c in range(5)]
        parts = [part for part in parts if part]
        ref = floyd_warshall(g)
        measured = g.diameters(parts)
        for part, (diam, pair) in zip(parts, measured):
            want = first_row_major_max(ref, sorted(part))
            assert diam == want[0]
            assert pair is None or (diam, pair) == want == g.diameter_witness(part)

    def test_diameters_reject_empty_sets(self):
        with pytest.raises(GraphError):
            path_graph(3).diameters([{0}, set()])


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
        assert g.diameter_witness(subset) == first_row_major_max(floyd_warshall(g), subset)

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
