"""Tree-graded validation and projections."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegraded.forge import ForgeSpec, PieceTemplate, gen_free_product_model, gen_random, subdivide_space
from treegraded.graph import Graph, GraphError
from treegraded.oracles import bfs_dists, brute_nearest_set, brute_project, find_crossing_cycle
from treegraded.space import InvalidSpaceError, Space, Violation

from conftest import (
    TEMPLATE_POOL,
    chain_of_three_paths,
    connected_graphs,
    cycle_graph,
    deep_spaces,
    edge_piece_path,
    path_graph,
    pieces_in_a_cycle,
    single_piece_path,
    small_spaces,
    tripod_space,
    tripod_tip,
    two_triangles_sharing_edge,
)


class TestValidate:
    def test_single_piece_ok(self):
        assert single_piece_path(6).validate().ok

    def test_two_triangles_violate_t1(self):
        report = two_triangles_sharing_edge().validate()
        assert not report.ok
        t1 = [v for v in report.violations if v.axiom == "T1"]
        assert t1 and t1[0].witness["pieces"] == (0, 1)
        assert sorted(t1[0].witness["shared_vertices"]) == [1, 2]

    def test_pieces_in_a_cycle_violate_tree(self):
        space = pieces_in_a_cycle()
        report = space.validate()
        assert [v.axiom for v in report.violations] == ["TREE"]
        # oracle: some simple cycle crosses pieces
        cycle = find_crossing_cycle(space)
        assert cycle is not None
        pieces_met = {space.edge_piece(a, b) for a, b in zip(cycle, cycle[1:] + [cycle[0]])}
        assert len(pieces_met) > 1

    def test_valid_space_has_no_crossing_cycle(self):
        space = Space(Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]), [{0, 1, 2}, {2, 3}], 0)
        assert space.validate().ok
        assert find_crossing_cycle(space) is None

    def test_uncovered_edge(self):
        space = Space(path_graph(3), [{0, 1}], 0)
        axioms = {v.axiom for v in space.validate().violations}
        assert "EDGE_COVER" in axioms

    def test_contained_piece(self):
        space = Space(path_graph(4), [{0, 1, 2, 3}, {1, 2}], 0)
        reasons = [
            v for v in space.validate().violations
            if v.axiom == "EDGE_COVER" and v.witness.get("reason") == "piece contained in piece"
        ]
        assert reasons and reasons[0].witness["inner"] == 1

    def test_edge_cover_violations_in_order(self):
        # vertices 4 and 5 lie in no piece, edges (3, 4) and (4, 5) in none;
        # pieces 0 and 2 lie inside piece 1, and piece 3 inside piece 1 too
        space = Space(path_graph(6), [{1, 2}, {0, 1, 2, 3}, {2, 3}, {0, 1}], 0)
        assert space._check_edge_cover() == [
            Violation("EDGE_COVER", {"vertex": 4, "reason": "vertex in no piece"}),
            Violation("EDGE_COVER", {"vertex": 5, "reason": "vertex in no piece"}),
            Violation("EDGE_COVER", {"edge": (3, 4), "reason": "uncovered"}),
            Violation("EDGE_COVER", {"edge": (4, 5), "reason": "uncovered"}),
            Violation("EDGE_COVER", {"reason": "piece contained in piece", "inner": 0, "outer": 1}),
            Violation("EDGE_COVER", {"reason": "piece contained in piece", "inner": 2, "outer": 1}),
            Violation("EDGE_COVER", {"reason": "piece contained in piece", "inner": 3, "outer": 1}),
        ]

    def test_containment_compares_only_pieces_sharing_a_vertex(self):
        # every edge of a 1,500-vertex path its own piece, plus one repeated piece
        n = 1500

        class Counted(frozenset):
            comparisons = 0

            def __lt__(self, other):
                Counted.comparisons += 1
                return frozenset.__lt__(self, other)

        space = Space(path_graph(n), [{i, i + 1} for i in range(n - 1)] + [{0, 1}], 0)
        space.pieces = tuple(Counted(piece) for piece in space.pieces)
        assert "EDGE_COVER" not in {v.axiom for v in space.validate().violations}  # equal pieces contain no other
        assert Counted.comparisons <= 2 * len(space.pieces)

    def test_one_point_piece_rejected(self):
        space = Space(path_graph(3), [{0, 1}, {1, 2}, {2}], 0)
        axioms = [v.axiom for v in space.validate().violations]
        assert "CONNECTED_PIECE" in axioms

    def test_disconnected_piece(self):
        space = Space(path_graph(5), [{0, 1, 3, 4}, {1, 2, 3}], 0)
        axioms = {v.axiom for v in space.validate().violations}
        assert "CONNECTED_PIECE" in axioms

    def test_non_convex_piece(self):
        # square with a chord path outside the piece: piece {0,2} misses edges
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        space = Space(g, [{0, 1, 2}, {2, 3}, {0, 3}], 0)
        assert space.validate().violations == (
            Violation("TREE", {"reason": "cycle among pieces", "incidences": 6, "nodes": 6}),
        )

    def test_convex_witnesses_when_tree_fails(self):
        # pentagon: the path piece {0,1,2,3} has d_P(0,3) = 3, but 0-4-3 is shorter
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        space = Space(g, [{0, 1, 2, 3}, {3, 4}, {0, 4}], 0)
        assert space.validate().violations == (
            Violation("TREE", {"reason": "cycle among pieces", "incidences": 6, "nodes": 6}),
            Violation("CONVEX", {"piece": 0, "pair": (0, 3), "internal": 3, "ambient": 2}),
        )

    @settings(max_examples=40, deadline=None)
    @given(small_spaces())
    def test_generated_spaces_valid(self, space: Space):
        assert space.validate().ok

    def test_convex_pass_reads_rows_from_the_one_table(self):
        # four-edge path pieces plus one piece repeating an edge: validate fails,
        # so its ambient CONVEX pass reads the row of every vertex
        n = 1500
        pieces = [set(range(i, min(i + 4, n - 1) + 1)) for i in range(0, n - 1, 4)]
        space = Space(path_graph(n), pieces + [{0, 1}], 0)
        space.graph.dist_row(0)  # the graph's one n x n table is built here
        tracemalloc.start()
        try:
            report = space.validate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "EDGE_COVER" in {v.axiom for v in report.violations}
        assert peak < n * n  # bytes: the rows read are views of the table, not copies


def induced_bfs(graph: Graph, piece: frozenset[int], src: int) -> dict[int, int]:
    """Distances from src inside the subgraph piece induces, by a BFS over
    the graph's edge list."""
    adj: dict[int, list[int]] = {v: [] for v in piece}
    for u, v in graph.edges:
        if u in piece and v in piece:
            adj[u].append(v)
            adj[v].append(u)
    dist, queue = {src: 0}, [src]
    for u in queue:
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def reference_tree(space: Space) -> list[Violation]:
    """TREE as validate checked it by its own search of the piece / cut-vertex
    incidence structure from piece 0, alternating piece and cut nodes."""
    k = len(space.pieces)
    if k == 0:
        return []
    incid = space.pieces_of_vertex
    cuts = sorted(v for v, pids in enumerate(incid) if len(pids) >= 2)
    nodes, edge_count = k + len(cuts), sum(len(incid[c]) for c in cuts)
    seen_p, seen_c = {0}, set()
    queue = [("P", 0)]
    for kind, x in queue:
        if kind == "P":
            for v in space.pieces[x]:
                if len(incid[v]) >= 2 and v not in seen_c:
                    seen_c.add(v)
                    queue.append(("C", v))
        else:
            for p in incid[x]:
                if p not in seen_p:
                    seen_p.add(p)
                    queue.append(("P", p))
    if len(seen_p) != k:
        return [Violation("TREE", {"reason": "piece structure disconnected", "unreached_piece": min(set(range(k)) - seen_p)})]
    if edge_count != nodes - 1:
        return [Violation("TREE", {"reason": "cycle among pieces", "incidences": edge_count, "nodes": nodes})]
    return []


def reference_report(space: Space) -> tuple[tuple[Violation, ...], bool]:
    """validate's violations as a space that searches every piece would list
    them: connectivity by a BFS of each piece's induced subgraph, CONVEX by
    BFS rows inside the piece and in the graph. Also whether EDGE_COVER, T1
    or TREE failed."""
    g = space.graph
    fresh = Space(g, space.pieces, space.basepoint)
    out = []
    for pid, piece in enumerate(fresh.pieces):
        if len(piece) < 2:
            out.append(Violation("CONNECTED_PIECE", {"piece": pid, "reason": "no edge", "vertices": sorted(piece)}))
            continue
        missing = sorted(piece - induced_bfs(g, piece, min(piece)).keys())
        if missing:
            out.append(Violation("CONNECTED_PIECE", {"piece": pid, "reason": "disconnected", "unreached": missing[:4]}))
    structural = fresh._check_edge_cover() + fresh._check_t1() + reference_tree(fresh)
    out += structural
    if out:
        for pid, piece in enumerate(fresh.pieces):
            out += convex_witness(g, pid, piece)
    return tuple(out), bool(structural)


def convex_witness(g: Graph, pid: int, piece: frozenset[int]) -> list[Violation]:
    """The first pair of piece, row-major, joined inside it by a path longer
    than their distance in g."""
    for src in sorted(piece):
        internal, ambient = induced_bfs(g, piece, src), bfs_dists(g, src)
        for v in sorted(piece):
            if v in internal and internal[v] != ambient[v]:
                witness = {"piece": pid, "pair": (src, v), "internal": internal[v], "ambient": ambient[v]}
                return [Violation("CONVEX", witness)]
    return []


@st.composite
def spaces_with_random_pieces(draw) -> Space:
    g = draw(connected_graphs(max_n=10))
    vertex = st.integers(0, g.vertex_count - 1)
    pieces = draw(st.lists(st.sets(vertex, min_size=1, max_size=g.vertex_count), min_size=1, max_size=5))
    return Space(g, pieces, draw(vertex))


@st.composite
def edited_spaces(draw) -> Space:
    """A generated space with one piece split in two (the parts may share
    vertices), shrunk by one vertex or merged with a piece it meets, or with
    a piece of two vertices added that no piece holds together: that piece has
    no edge and closes a loop of pieces, which only TREE's cycle count sees."""
    space = draw(small_spaces(max_budget=4))
    pieces = [set(p) for p in space.pieces]
    pid = draw(st.integers(0, len(pieces) - 1))
    members = sorted(pieces[pid])
    edit = draw(st.sampled_from(["split", "shrink", "merge", "join"]))
    if edit == "split":
        part = draw(st.sets(st.sampled_from(members), min_size=1, max_size=len(members) - 1))
        shared = draw(st.sets(st.sampled_from(sorted(part)), max_size=2))
        pieces[pid] = part
        pieces.append(set(members) - part | shared)
    elif edit == "shrink":
        pieces[pid].discard(draw(st.sampled_from(members)))
    elif edit == "merge":
        met = [q for q, other in enumerate(pieces) if q != pid and other & pieces[pid]]
        if met:
            q = draw(st.sampled_from(met))
            pieces[pid] |= pieces[q]
            del pieces[q]
    else:
        u = draw(st.sampled_from(members))
        apart = [v for v in range(space.graph.vertex_count) if not any(u in p and v in p for p in pieces)]
        if apart:
            pieces.append({u, draw(st.sampled_from(apart))})
    return Space(space.graph, pieces, space.basepoint)


class TestPieceConnectivity:
    """validate searches pieces for components only once EDGE_COVER, T1 or
    TREE fails, which the module docstring proves loses no violation."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(spaces_with_random_pieces(), edited_spaces()))
    def test_report_equals_searching_every_piece(self, space: Space):
        expected, structural = reference_report(space)
        assert space.validate().violations == expected
        if not structural:  # the theorem itself
            assert all(v.witness["reason"] != "disconnected" for v in expected if v.axiom == "CONNECTED_PIECE")

    def test_cycle_of_edge_pieces_with_a_two_point_piece(self):
        # {0, 3} has no edge of its own; only TREE's cycle count sees the loop
        space = Space(cycle_graph(6), [{i, (i + 1) % 6} for i in range(6)] + [{0, 3}], 0)
        expected = (
            Violation("CONNECTED_PIECE", {"piece": 6, "reason": "disconnected", "unreached": [3]}),
            Violation("TREE", {"reason": "cycle among pieces", "incidences": 14, "nodes": 13}),
        )
        assert reference_report(space) == (expected, True)
        assert space.validate().violations == expected

    def test_valid_space_searches_no_piece(self, monkeypatch):
        import scipy.sparse.csgraph as csgraph

        searched = []
        search = csgraph.connected_components
        monkeypatch.setattr(
            csgraph, "connected_components", lambda *a, **k: searched.append(a[0].shape[0]) or search(*a, **k)
        )
        spec = ForgeSpec(((PieceTemplate.parse("grid:3x4"), 1), (PieceTemplate.parse("path:3"), 1)), 12, seed=5)
        for space in (tripod_space(arm=3), gen_random(spec)):
            assert space.validate().ok
        assert searched == []
        assert not pieces_in_a_cycle().validate().ok
        assert searched == [3, 3, 3]  # every piece, once TREE fails


def assert_composed_metric(space: Space):
    """validate keeps the pieces' own tables as the metric and nothing of V^2
    entries; rows composed from them must equal the generic all-sources fill
    and the BFS oracle, and every piece-internal oracle distance must equal
    the ambient one (CONVEX)."""
    g = space.graph
    n = g.vertex_count
    assert g._tables is None
    assert space.validate().ok
    tables = g._tables  # kept by the composition, before any query
    assert tables.flat.size == sum(len(piece) ** 2 for piece in space.pieces)
    assert all(len(a) == (n if isinstance(a, np.ndarray) else len(space.pieces)) for a in tables[1:])
    assert g._filled == 0  # no row is composed before a query
    composed = g.dist_block(np.arange(n))
    assert np.array_equal(composed, Graph(n, g.edges).dist_block(np.arange(n)))
    for v in range(n):
        assert composed[v].tolist() == bfs_dists(g, v)
    for piece in space.pieces:
        members = sorted(piece)
        local = {v: i for i, v in enumerate(members)}
        sub = Graph(len(members), [(local[u], local[v]) for u, v in g.edges if u in piece and v in piece])
        for i, v in enumerate(members):
            assert bfs_dists(sub, i) == composed[v, members].tolist()


class TestComposedMetric:
    def test_tripod_from_tip(self):
        assert_composed_metric(tripod_space(arm=3, basepoint=tripod_tip(3, 1)))

    @settings(max_examples=40, deadline=None)
    @given(small_spaces())
    def test_generated_spaces(self, space: Space):
        assert_composed_metric(space)

    @settings(max_examples=20, deadline=None)
    @given(small_spaces(max_budget=4), st.integers(min_value=2, max_value=3))
    def test_subdivided_spaces(self, space: Space, k: int):
        assert_composed_metric(subdivide_space(space, k))

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(TEMPLATE_POOL),
        st.sampled_from(TEMPLATE_POOL),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_free_product_models(self, left: str, right: str, depth: int, seed: int):
        space = gen_free_product_model(
            PieceTemplate.parse(left), PieceTemplate.parse(right), depth, attach_spacing=2, seed=seed
        )
        assert_composed_metric(space)

    def test_validate_writes_each_table_once(self):
        grid = PieceTemplate.parse("grid:12x12")
        spec = ForgeSpec(((grid, 1),), 34, max_tree_depth=10, attach_spacing=3, branch_cap=3, seed=7)
        space = gen_random(spec)
        assert space.graph.vertex_count == 4863
        tracemalloc.start()
        try:
            assert space.validate().ok
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tables = space.graph._tables.flat.nbytes
        assert tables == 4 * 34 * 144**2
        # beyond what validate keeps, its peak holds no second copy of the tables
        assert peak - kept < tables // 4

    def test_validate_keeps_no_piece_metric_beside_the_tables(self):
        # the 4,863-vertex rung of the benchmark's ladder: 34 grid pieces, seed 7
        grid = PieceTemplate.parse("grid:12x12")
        spec = ForgeSpec(((grid, 1),), 34, max_tree_depth=10, attach_spacing=3, branch_cap=3, seed=7)
        space = gen_random(spec)
        tracemalloc.start()
        try:
            assert space.validate().ok
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the incidence maps, and no adjacency dicts or rows of a second piece metric
        assert kept - space.graph._tables.flat.nbytes <= 1_100_000

    def test_matrix_filled_before_validation_is_kept(self):
        space = tripod_space(arm=2)
        before = space.graph.dist_block(range(space.graph.vertex_count)).copy()
        assert space.validate().ok
        assert np.array_equal(space.graph.dist_block(range(space.graph.vertex_count)), before)


class TestPieceDistFrom:
    @settings(max_examples=40, deadline=None)
    @given(small_spaces())
    def test_equals_bfs_on_the_induced_subgraph(self, space: Space):
        g = space.graph
        for pid, piece in enumerate(space.pieces):
            members = sorted(piece)
            local = {v: i for i, v in enumerate(members)}
            sub = Graph(len(members), [(local[u], local[v]) for u, v in g.edges if u in piece and v in piece])
            for i, v in enumerate(members):
                assert space.piece_dist_from(pid, v) == dict(zip(members, bfs_dists(sub, i)))

    def test_invalid_space_raises(self):
        with pytest.raises(InvalidSpaceError):
            two_triangles_sharing_edge().piece_dist_from(0, 0)

    def test_spaces_sharing_a_graph_keep_their_own_tables(self):
        # a square and a path: rooted at 5, the graph's tables are placed in
        # the other order, and they replace the ones the first space composed
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5)])
        first, second = (Space(g, [{0, 1, 2, 3}, {3, 4, 5}], base) for base in (0, 5))
        assert first.validate().ok and second.validate().ok
        assert first.piece_dist_from(0, 0) == second.piece_dist_from(0, 0) == {0: 0, 1: 1, 2: 2, 3: 1}
        assert first.piece_dist_from(1, 5) == {3: 2, 4: 1, 5: 0}

    def test_source_outside_the_piece_raises(self):
        space = chain_of_three_paths()
        with pytest.raises(GraphError, match="vertex 4 not in piece 0"):
            space.piece_dist_from(0, 4)


class TestProject:
    def test_inside_piece_identity(self):
        space = chain_of_three_paths()
        for v in (2, 3, 4):
            assert space.project(1, v) == v

    def test_tripod_projects_through_center(self):
        arm = 3
        space = tripod_space(arm=arm, basepoint=tripod_tip(arm, 0))
        tip_b = tripod_tip(arm, 1)
        assert space.project(0, tip_b) == 0  # piece 0 = arm A, center vertex is 0
        assert space.project(2, tip_b) == 0

    def test_chain_far_piece(self):
        space = chain_of_three_paths()
        assert space.project(0, 6) == 2
        assert brute_project(space, 0, 6) == 2

    def test_spaces_sharing_a_graph_keep_their_own_tree(self):
        # validating the second space replaces the graph's tables and tree
        g = path_graph(7)
        first = Space(g, [{0, 1, 2}, {2, 3, 4}, {4, 5, 6}], 0)
        second = Space(g, [{0, 1, 2, 3}, {3, 4, 5, 6}], 0)
        assert first.validate().ok and second.validate().ok
        assert [first.project(pid, 6) for pid in range(3)] == [2, 4, 6]
        assert [first.project(pid, 0) for pid in range(3)] == [0, 2, 4]
        assert [second.project(pid, 6) for pid in range(2)] == [3, 6]

    def test_invalid_space_raises(self):
        space = two_triangles_sharing_edge()
        assert space.project(0, 1) == 1  # a member is its own projection, valid or not
        with pytest.raises(InvalidSpaceError):
            space.project(0, 3)

    @settings(max_examples=30, deadline=None)
    @given(small_spaces())
    def test_matches_brute_force_everywhere(self, space: Space):
        for pid in range(len(space.pieces)):
            for x in range(space.graph.vertex_count):
                assert space.project(pid, x) == brute_project(space, pid, x)

    @settings(max_examples=30, deadline=None)
    @given(small_spaces())
    def test_unique_nearest_vertex(self, space: Space):
        for pid in range(len(space.pieces)):
            for x in range(space.graph.vertex_count):
                assert len(brute_nearest_set(space.graph, space.pieces[pid], x)) == 1


def assert_same_projections(pid: int, fill: np.ndarray, want: list[int], route: str):
    """The fill of piece pid equals want at every vertex; a failure names the
    first vertex where they differ and both answers."""
    differ = np.flatnonzero(fill != np.asarray(want))
    if differ.size:
        x = int(differ[0])
        raise AssertionError(f"piece {pid}, vertex {x}: fill {int(fill[x])}, {route} {want[x]}")


class TestProjection:
    """Space.projection, the fill of every vertex's projection onto a piece."""

    def test_chain_of_three_paths(self):
        space = chain_of_three_paths()  # pieces {0,1,2}, {2,3,4}, {4,5,6}
        assert [space.projection(pid).tolist() for pid in range(3)] == [
            [0, 1, 2, 2, 2, 2, 2],
            [2, 2, 2, 3, 4, 4, 4],
            [4, 4, 4, 4, 4, 5, 6],
        ]
        assert space.projection(1).dtype == np.int64

    @settings(max_examples=30, deadline=None)
    @given(small_spaces())
    def test_matches_brute_force_everywhere(self, space: Space):
        n = space.graph.vertex_count
        for pid in range(len(space.pieces)):
            want = [brute_project(space, pid, x) for x in range(n)]
            assert_same_projections(pid, space.projection(pid), want, "brute force")

    def test_invalid_space_raises(self):
        with pytest.raises(InvalidSpaceError):
            two_triangles_sharing_edge().projection(0)


class TestPieceIds:
    """A piece id outside 0 .. pieces - 1 is refused, not read from the end."""

    @pytest.mark.parametrize("pid", [-1, 3])
    @pytest.mark.parametrize(
        "read",
        [
            lambda space, pid: space.project(pid, 5),
            lambda space, pid: space.projection(pid),
            lambda space, pid: space.piece_table(pid),
            lambda space, pid: space.piece_dist_from(pid, 5),
        ],
        ids=["project", "projection", "piece_table", "piece_dist_from"],
    )
    def test_unknown_piece_id_raises(self, read, pid):
        space = chain_of_three_paths()
        with pytest.raises(GraphError, match=f"unknown piece id {pid}"):
            read(space, pid)


class TestDeepGluingTrees:
    """Projections on long chains of cuts and on cuts shared by three or
    more pieces, with the root piece anywhere in the tree."""

    @settings(max_examples=40, deadline=None)
    @given(deep_spaces(), st.data())
    def test_project_matches_brute_force(self, space: Space, data):
        assert space.validate().ok
        pids = st.integers(0, len(space.pieces) - 1)
        xs = st.integers(0, space.graph.vertex_count - 1)
        for pid, x in data.draw(st.lists(st.tuples(pids, xs), min_size=1, max_size=30)):
            assert space.project(pid, x) == brute_project(space, pid, x)
        pid = data.draw(pids)
        assert space.basepoints()[pid] == brute_project(space, pid, space.basepoint)

    @settings(max_examples=30, deadline=None)
    @given(deep_spaces(), st.data())
    def test_projection_matches_the_climb_and_brute_force(self, space: Space, data):
        assert space.validate().ok
        n = space.graph.vertex_count
        fills = [space.projection(pid) for pid in range(len(space.pieces))]
        for pid, fill in enumerate(fills):
            assert_same_projections(pid, fill, [space.project(pid, x) for x in range(n)], "climb")
        pids = st.integers(0, len(space.pieces) - 1)
        xs = st.integers(0, n - 1)
        for pid, x in data.draw(st.lists(st.tuples(pids, xs), min_size=1, max_size=30)):
            assert int(fills[pid][x]) == brute_project(space, pid, x), f"piece {pid}, vertex {x}"

    @settings(max_examples=30, deadline=None)
    @given(deep_spaces(), st.data())
    def test_composed_rows_match_bfs(self, space: Space, data):
        assert space.validate().ok
        g = space.graph
        assert len(g._tables.size) == len(space.pieces)  # rows are composed along the tree
        sources = data.draw(st.lists(st.integers(0, g.vertex_count - 1), min_size=1, max_size=12))
        block = g.dist_block(sources)
        for u, row in zip(sources, block.tolist()):
            want = bfs_dists(g, u)
            if row != want:
                x = next(x for x, (a, b) in enumerate(zip(row, want)) if a != b)
                raise AssertionError(f"source {u}, vertex {x}: composed {row[x]}, BFS {want[x]}")

    def test_long_edge_piece_path(self):
        n = 200
        for basepoint in (0, n // 2):
            space = edge_piece_path(n, basepoint)
            # piece i is the edge {i, i + 1}: vertices below it enter at i, above it at i + 1
            for pid in (0, 1, n // 2, n - 1):
                for x in (0, n // 3, n // 2, n):
                    expected = x if x in (pid, pid + 1) else (pid if x < pid else pid + 1)
                    assert space.project(pid, x) == expected


class TestBasepoints:
    def test_root_piece_keeps_basepoint(self):
        space = single_piece_path(5, basepoint=3)
        assert space.basepoints()[0] == 3

    def test_tripod_from_tip(self):
        arm = 3
        space = tripod_space(arm=arm, basepoint=tripod_tip(arm, 0))
        bps = space.basepoints()
        assert bps[0] == tripod_tip(arm, 0)
        assert bps[1] == 0 and bps[2] == 0

    @settings(max_examples=30, deadline=None)
    @given(small_spaces())
    def test_equals_brute_nearest(self, space: Space):
        for pid, bp in space.basepoints().items():
            assert bp == brute_project(space, pid, space.basepoint)


class TestEveryGeodesicPassesProjection:
    @settings(max_examples=25, deadline=None)
    @given(small_spaces(max_budget=3))
    def test_all_geodesics_into_piece_contain_projection(self, space: Space):
        from treegraded.oracles import enumerate_geodesics

        g = space.graph
        if g.vertex_count > 40:
            return
        for pid, piece in enumerate(space.pieces):
            for x in range(0, g.vertex_count, 3):
                proj = space.project(pid, x)
                for target in sorted(piece)[:3]:
                    for path in enumerate_geodesics(g, x, target):
                        assert proj in path.vertices


class TestGeodesicConvexity:
    def test_edge_piece_chain(self):
        space = chain_of_three_paths()
        for pid, piece in enumerate(space.pieces):
            for u in piece:
                for v in piece:
                    path = space.graph.canonical_geodesic(u, v)
                    assert set(path.vertices) <= piece

    @settings(max_examples=30, deadline=None)
    @given(small_spaces(max_budget=5))
    def test_canonical_geodesics_stay_in_pieces(self, space: Space):
        for pid, piece in enumerate(space.pieces):
            members = sorted(piece)
            for u in members[:6]:
                for v in members[-6:]:
                    path = space.graph.canonical_geodesic(u, v)
                    assert set(path.vertices) <= piece


class TestDegenerateSpaces:
    def test_uncovered_vertex_is_invalid(self):
        from treegraded.graph import Graph

        space = Space(Graph(1, []), [], 0)
        axioms = [v.axiom for v in space.validate().violations]
        assert axioms == ["EDGE_COVER"]
