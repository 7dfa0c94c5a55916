"""Shared space builders and hypothesis strategies."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from treegraded.forge import ForgeSpec, PieceTemplate, gen_free_product_model, gen_random, subdivide_space
from treegraded.graph import Graph
from treegraded.space import Space


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(m: int) -> Graph:
    return Graph(m, [(i, (i + 1) % m) for i in range(m)])


def edge_piece_path(length: int, basepoint: int = 0) -> Space:
    """Path graph where every edge is its own piece."""
    return Space(path_graph(length + 1), [{i, i + 1} for i in range(length)], basepoint)


def single_piece_path(length: int, basepoint: int = 0) -> Space:
    return Space(path_graph(length + 1), [set(range(length + 1))], basepoint)


def tripod_space(arm: int = 3, basepoint: int | None = None) -> Space:
    """Three path pieces of `arm` edges glued at a central vertex 0.

    Arm a uses vertices 0, a*arm+1 .. a*arm+arm; tips are 0-indexed arm ends.
    """
    edges = []
    pieces = []
    for a in range(3):
        verts = [0] + [a * arm + k for k in range(1, arm + 1)]
        pieces.append(set(verts))
        edges.extend((min(x, y), max(x, y)) for x, y in zip(verts, verts[1:]))
    g = Graph(3 * arm + 1, edges)
    return Space(g, pieces, basepoint if basepoint is not None else 0)


def tripod_tip(arm: int, a: int) -> int:
    return a * arm + arm


def chain_of_three_paths() -> Space:
    """Pieces {0,1,2}, {2,3,4}, {4,5,6} on a 7-vertex path."""
    return Space(path_graph(7), [{0, 1, 2}, {2, 3, 4}, {4, 5, 6}], 0)


def two_triangles_sharing_edge() -> Space:
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    return Space(g, [{0, 1, 2}, {1, 2, 3}], 0)


def pieces_in_a_cycle() -> Space:
    """Three path pieces glued pairwise through cut vertices 0, 2, 4 in a loop."""
    g = cycle_graph(6)
    return Space(g, [{0, 1, 2}, {2, 3, 4}, {4, 5, 0}], 0)


TEMPLATE_POOL = (
    "path:1",
    "path:3",
    "path:6",
    "cycle:5",
    "cycle:8",
    "tree:2",
    "grid:3x4",
)


@st.composite
def forge_specs(
    draw,
    max_budget: int = 6,
    pool: tuple[str, ...] = TEMPLATE_POOL,
    max_spacing: int = 3,
    subdivisions: tuple[int, ...] = (1,),
) -> ForgeSpec:
    names = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    weights = [draw(st.integers(min_value=1, max_value=3)) for _ in names]
    return ForgeSpec(
        templates=tuple((PieceTemplate.parse(t), w) for t, w in zip(names, weights)),
        piece_budget=draw(st.integers(min_value=1, max_value=max_budget)),
        max_tree_depth=draw(st.integers(min_value=1, max_value=5)),
        attach_spacing=draw(st.integers(min_value=1, max_value=max_spacing)),
        branch_cap=draw(st.integers(min_value=1, max_value=3)),
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        subdivide=draw(st.sampled_from(subdivisions)),
    )


@st.composite
def small_spaces(draw, max_budget: int = 6) -> Space:
    return gen_random(draw(forge_specs(max_budget=max_budget)))


def _validated(space: Space) -> Space:
    assert space.validate().ok  # the metric is composed along the gluing tree
    return space


# validated spaces, whose metric is composed from their pieces' tables:
# generated, subdivided and free-product spaces
validated_spaces = st.one_of(
    small_spaces(max_budget=4),
    st.builds(subdivide_space, small_spaces(max_budget=2), st.integers(2, 3)),
    st.builds(
        lambda left, right, depth, seed: gen_free_product_model(
            PieceTemplate.parse(left), PieceTemplate.parse(right), depth, attach_spacing=2, seed=seed
        ),
        st.sampled_from(TEMPLATE_POOL),
        st.sampled_from(TEMPLATE_POOL),
        st.integers(1, 2),
        st.integers(0, 2**32),
    ),
).map(_validated)


@st.composite
def deep_spaces(draw, max_spine: int = 200, max_teeth: int = 12) -> Space:
    """Deep gluing trees: edge_piece_path(n), n up to max_spine, as a spine,
    with up to max_teeth cycles and grids hung off spine vertices (a comb),
    so that a cut can be shared by three or more pieces. The pieces are
    listed in a drawn order, so piece 0 can sit anywhere in the tree; the
    basepoint is a leaf of the spine or its middle cut."""
    n = draw(st.integers(1, max_spine))
    edges = [(i, i + 1) for i in range(n)]
    pieces = [{i, i + 1} for i in range(n)]
    size = n + 1
    for v in draw(st.lists(st.integers(0, n), max_size=max_teeth)):
        rows, cols = draw(st.sampled_from([(1, 3), (1, 4), (1, 6), (2, 2), (2, 3), (3, 3)]))
        if rows == 1:  # a cycle of cols + 1 vertices through v
            ring = [v] + list(range(size, size + cols))
            edges += [(a, b) for a, b in zip(ring, ring[1:] + ring[:1])]
            cells = ring
        else:  # a rows x cols grid with its corner at v
            cells = [v] + list(range(size, size + rows * cols - 1))
            edges += [(cells[i * cols + j], cells[i * cols + j + 1]) for i in range(rows) for j in range(cols - 1)]
            edges += [(cells[i * cols + j], cells[(i + 1) * cols + j]) for i in range(rows - 1) for j in range(cols)]
        pieces.append(set(cells))
        size += len(cells) - 1
    order = draw(st.permutations(range(len(pieces))))
    basepoint = draw(st.sampled_from([0, n, n // 2]))
    return Space(Graph(size, edges), [pieces[i] for i in order], basepoint)


@st.composite
def connected_graphs(draw, max_n: int = 24) -> Graph:
    """Random connected graph: a random tree plus a few extra edges."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((u, v))
    extra = draw(st.integers(min_value=0, max_value=min(6, n * (n - 1) // 2)))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, edges)


@pytest.fixture
def tripod() -> Space:
    return tripod_space(arm=3)
