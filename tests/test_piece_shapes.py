"""Piece shapes read from the piece tables, against the adjacency route they
replaced: tree, cycle, plain and subdivided grids, relabelled and near-grid
pieces."""

from __future__ import annotations

import random
from collections import deque
from typing import Mapping, Sequence

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treegraded.coloring import PieceShape, classify_piece
from treegraded.forge import PieceTemplate, subdivide_space
from treegraded.graph import Graph, normalize_edge
from treegraded.space import InvalidSpaceError, Space

from conftest import two_triangles_sharing_edge, validated_spaces

# -- reference: the adjacency route --------------------------------------------


def reference_shape(space: Space, pid: int) -> PieceShape:
    """The piece's shape found from the graph's adjacency restricted to it: a
    BFS for plain grids, a thread walk and a coarse-grid BFS for subdivided
    ones."""
    piece = space.pieces[pid]
    adj = {v: tuple(w for w in space.graph.adj[v] if w in piece) for v in piece}
    n = len(piece)
    m = sum(len(ws) for ws in adj.values()) // 2
    if m == n - 1:
        return PieceShape("tree")
    if m == n and all(len(ws) == 2 for ws in adj.values()):
        start = min(piece)
        order = [start, min(adj[start])]
        while len(order) < n:
            prev, cur = order[-2], order[-1]
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            order.append(nxt)
        return PieceShape("cycle", anchor=start, cycle_order=tuple(order))
    coords = reference_grid(piece, adj) or reference_subdivided_grid(piece, adj)
    if coords is not None:
        anchor = next(v for v, ij in coords.items() if ij == (0, 0))
        return PieceShape("grid", anchor=anchor, grid_coords=coords)
    return PieceShape("unknown")


def reference_grid(piece: frozenset[int], adj: Mapping[int, Sequence[int]]) -> dict[int, tuple[int, int]] | None:
    """Coordinatize an a x b grid in BFS layers from its smallest degree-2 vertex."""
    corners = sorted(v for v in piece if len(adj[v]) == 2)
    if not corners:
        return None
    c = corners[0]
    dist = {c: 0}
    order = [c]
    queue = deque([c])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                order.append(w)
                queue.append(w)
    if len(dist) != len(piece):
        return None
    first, second = sorted(adj[c])
    coords: dict[int, tuple[int, int]] = {c: (0, 0), first: (0, 1), second: (1, 0)}
    for v in order:
        if v in coords:
            continue
        placed = [coords[w] for w in adj[v] if w in coords and dist[w] == dist[v] - 1]
        if len(placed) == 2:
            coords[v] = (max(placed[0][0], placed[1][0]), max(placed[0][1], placed[1][1]))
        elif len(placed) == 1:
            i, j = placed[0]
            if i == 0 and j > 0:
                coords[v] = (0, j + 1)
            elif j == 0 and i > 0:
                coords[v] = (i + 1, 0)
            else:
                return None
        else:
            return None
    rows = 1 + max(i for i, _ in coords.values())
    cols = 1 + max(j for _, j in coords.values())
    if rows * cols != len(piece) or len(set(coords.values())) != len(piece):
        return None
    for v in piece:
        iv, jv = coords[v]
        expected = (iv > 0) + (iv < rows - 1) + (jv > 0) + (jv < cols - 1)
        if len(adj[v]) != expected:
            return None
        for w in adj[v]:
            iw, jw = coords[w]
            if abs(iv - iw) + abs(jv - jw) != 1:
                return None
    return coords


def reference_subdivided_grid(
    piece: frozenset[int], adj: Mapping[int, Sequence[int]]
) -> dict[int, tuple[int, int]] | None:
    """Coordinatize a grid whose every edge is a path of k >= 2 edges: cut the
    threads between branch vertices every k steps, coordinatize the coarse
    grid, and interpolate along its edges."""
    threads = []
    for a in sorted(v for v in piece if len(adj[v]) > 2):
        for w in adj[a]:
            thread = [a, w]
            while len(adj[thread[-1]]) == 2:
                x, y = adj[thread[-1]]
                thread.append(x if x != thread[-2] else y)
            if len(adj[thread[-1]]) < 2 or thread[-1] == a:
                return None
            if (a, w) < (thread[-1], thread[-2]):  # each thread once
                threads.append(thread)
    if not threads:
        return None
    k = min(len(t) - 1 for t in threads)
    if k < 2 or any((len(t) - 1) % k for t in threads):
        return None
    edges = [t[i : i + k + 1] for t in threads for i in range(0, len(t) - 1, k)]
    coarse_adj: dict[int, list[int]] = {}
    for e in edges:
        coarse_adj.setdefault(e[0], []).append(e[-1])
        coarse_adj.setdefault(e[-1], []).append(e[0])
    coarse = reference_grid(frozenset(coarse_adj), {v: sorted(ws) for v, ws in coarse_adj.items()})
    if coarse is None:
        return None
    coords = {}
    for e in edges:
        (i0, j0), (i1, j1) = coarse[e[0]], coarse[e[-1]]
        for t, v in enumerate(e):
            coords[v] = (k * i0 + t * (i1 - i0), k * j0 + t * (j1 - j0))
    if len(set(coords.values())) != len(piece):
        return None
    return coords


# -- drawn pieces ------------------------------------------------------------------


def one_piece(count: int, edges) -> Space:
    return Space(Graph(count, edges), [set(range(count))], 0)


def template_edges(kind: str, size: int, width: int, rnd: random.Random) -> tuple[int, list[tuple[int, int]]]:
    if kind == "random-tree":  # each vertex hangs from a random earlier one
        return size, [(rnd.randrange(v), v) for v in range(1, size)]
    return PieceTemplate(kind, size, width).build()


def near_grid(count: int, edges: list[tuple[int, int]], change: str, rnd: random.Random):
    """One defect: an extra chord, a dropped edge, one edge subdivided once
    more, or a pendant vertex. A dropped edge may disconnect the piece."""
    edges = sorted(set(edges))
    if change == "chord":
        present = set(edges)
        missing = [(u, v) for u in range(count) for v in range(u + 1, count) if (u, v) not in present]
        if missing:
            edges.append(rnd.choice(missing))
    elif change == "drop":
        edges.remove(rnd.choice(edges))
    elif change == "stretch":
        u, v = edges.pop(rnd.randrange(len(edges)))
        edges += [(u, count), (v, count)]
        count += 1
    elif change == "pendant":
        edges.append((rnd.randrange(count), count))
        count += 1
    return count, edges


def relabelled(count: int, edges, rnd: random.Random) -> tuple[int, list[tuple[int, int]]]:
    ids = list(range(count))
    rnd.shuffle(ids)
    return count, [normalize_edge(ids[u], ids[v]) for u, v in edges]


def connected(count: int, edges) -> bool:
    adj: dict[int, list[int]] = {v: [] for v in range(count)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == count


@st.composite
def drawn_pieces(draw) -> Space:
    """One-piece spaces: a path, cycle, tree or grid template of random size,
    subdivided k = 1..4 times, perhaps given one near-grid defect, and
    randomly relabelled."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["path", "cycle", "tree", "random-tree", "grid", "grid"]))
    size = draw(st.integers(*{"path": (1, 12), "cycle": (3, 12), "tree": (1, 3)}.get(kind, (2, 8))))
    width = draw(st.integers(1, 7)) if kind == "grid" else 0
    assume(kind != "grid" or size * width >= 2)
    count, edges = template_edges(kind, size, width, rnd)
    k = draw(st.integers(1, 4))
    space = subdivide_space(one_piece(count, edges), k)
    count, edges = space.graph.vertex_count, sorted(space.graph.edges)
    change = draw(st.sampled_from([None, None, "chord", "drop", "stretch", "pendant"]))
    count, edges = near_grid(count, edges, change, rnd)
    assume(connected(count, edges))
    return one_piece(*relabelled(count, edges, rnd))


class TestTableRouteMatchesAdjacencyRoute:
    @settings(max_examples=400, deadline=None)
    @given(drawn_pieces())
    def test_drawn_pieces(self, space: Space):
        assert space.validate().ok  # one connected piece is convex
        assert classify_piece(space, 0) == reference_shape(space, 0), sorted(space.graph.edges)

    @settings(max_examples=40, deadline=None)
    @given(validated_spaces)
    def test_every_piece_of_generated_spaces(self, space: Space):
        for pid in range(len(space.pieces)):
            assert classify_piece(space, pid) == reference_shape(space, pid), pid

    @pytest.mark.parametrize("a", [3, 4, 5, 6])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_square_grids(self, a, k):
        space = subdivide_space(one_piece(*PieceTemplate("grid", a, a).build()), k)
        shape = classify_piece(space, 0)
        assert shape == reference_shape(space, 0)
        assert shape.kind == "grid" and shape.anchor == 0
        # the j axis runs toward the anchor's smaller lattice neighbour: vertex 1
        assert shape.grid_coords[1] == (0, k) and shape.grid_coords[a] == (k, 0)

    @pytest.mark.parametrize("b", [3, 4, 7])
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("tall", [False, True])
    def test_subdivided_two_row_grids(self, b, k, tall):
        # the midpoints of the short sides lie at the diameter too, so the
        # corners are not the vertices of largest eccentricity
        rows, cols = (b, 2) if tall else (2, b)
        space = subdivide_space(one_piece(*PieceTemplate("grid", rows, cols).build()), k)
        assert max(space.graph.dist_row(0)) == k * (rows + cols - 2)
        shape = classify_piece(space, 0)
        assert shape == reference_shape(space, 0)
        assert shape.kind == "grid" and shape.anchor == 0
        assert set(shape.grid_coords.values()) == {
            (i, j)
            for i in range(k * (rows - 1) + 1)
            for j in range(k * (cols - 1) + 1)
            if i % k == 0 or j % k == 0
        }

    def test_relabelled_grid_keeps_its_anchor_convention(self):
        # a 3 x 4 grid with its ids reversed: its far corner becomes vertex 0 and anchors
        count, edges = PieceTemplate("grid", 3, 4).build()
        ids = list(range(count))[::-1]
        space = one_piece(count, [normalize_edge(ids[u], ids[v]) for u, v in edges])
        shape = classify_piece(space, 0)
        assert shape == reference_shape(space, 0)
        assert shape.anchor == 0 and shape.grid_coords[1] == (0, 1) and shape.grid_coords[4] == (1, 0)

    def test_invalid_space_raises(self):
        with pytest.raises(InvalidSpaceError):
            classify_piece(two_triangles_sharing_edge(), 0)
