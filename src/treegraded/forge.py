"""Seeded generators of valid tree-graded spaces.

Pieces are instantiated from four template kinds (path:L, cycle:m, grid:AxB,
tree:depth — complete binary trees) and glued one at a time at single
vertices, so T1 and the tree axiom hold by construction and every template
induces a convex subgraph. Generation is driven entirely by the pinned
splitmix64 stream; identical specs produce byte-identical space files.

`gen_random` keeps the set of eligible attachment vertices between glues
instead of rescanning every vertex before each one. A vertex is eligible while
its attach count is below the branch cap, the shallowest piece holding it is
shallower than the depth cap, and no other attachment point of a piece holding
it is within piece distance attach_spacing - 1. All three only ever tighten: attach
counts and attachment sets grow; a vertex's shallowest piece is fixed when it
is born, since a piece glued at v is deeper than every piece already holding
v; and gluing never changes the internal metric of an existing piece. So a
glue at v clears only v itself, once its count reaches the cap, and the
vertices near v in the pieces that held v before the glue, which gain v as an
attachment point. The new piece's fresh vertices enter with their own test.

`gen_free_product_model` builds the alternating coset tree of a free product
at desk scale: a root piece of the left template whose spaced-out vertices
each sprout a right-template piece, and so on for `depth` levels.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import Graph, normalize_edge
from .rng import SplitMix64
from .space import Space


@dataclass(frozen=True)
class PieceTemplate:
    kind: str  # path | cycle | grid | tree
    a: int
    b: int = 0

    def __post_init__(self):
        if self.kind not in ("path", "cycle", "grid", "tree"):
            raise ValueError(f"unknown template kind {self.kind!r}")
        if self.kind == "path" and self.a < 1:
            raise ValueError("path template needs length >= 1")
        if self.kind == "cycle" and self.a < 3:
            raise ValueError("cycle template needs >= 3 vertices")
        if self.kind == "grid" and (self.a < 1 or self.b < 1 or self.a * self.b < 2):
            raise ValueError("grid template needs at least 2 vertices")
        if self.kind == "tree" and self.a < 1:
            raise ValueError("tree template needs depth >= 1")

    @classmethod
    def parse(cls, text: str) -> "PieceTemplate":
        """Parse 'path:6', 'cycle:8', 'grid:4x6', or 'tree:3'."""
        try:
            kind, spec = text.split(":")
            if kind == "grid":
                a, b = spec.split("x")
                return cls(kind, int(a), int(b))
            return cls(kind, int(spec))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"bad template {text!r}") from exc

    def __str__(self) -> str:
        if self.kind == "grid":
            return f"grid:{self.a}x{self.b}"
        return f"{self.kind}:{self.a}"

    def build(self) -> tuple[int, list[tuple[int, int]]]:
        """Local vertex count and edge list, ids 0..k-1."""
        if self.kind == "path":
            return self.a + 1, [(i, i + 1) for i in range(self.a)]
        if self.kind == "cycle":
            return self.a, [normalize_edge(i, (i + 1) % self.a) for i in range(self.a)]
        if self.kind == "grid":
            a, b = self.a, self.b
            edges = []
            for i in range(a):
                for j in range(b):
                    v = i * b + j
                    if j + 1 < b:
                        edges.append((v, v + 1))
                    if i + 1 < a:
                        edges.append((v, v + b))
            return a * b, edges
        # complete binary tree of the given depth
        count = 2 ** (self.a + 1) - 1
        edges = []
        for v in range(count):
            for child in (2 * v + 1, 2 * v + 2):
                if child < count:
                    edges.append((v, child))
        return count, edges


@dataclass(frozen=True)
class ForgeSpec:
    templates: tuple[tuple[PieceTemplate, int], ...]  # (template, weight)
    piece_budget: int
    max_tree_depth: int = 8
    attach_spacing: int = 1
    branch_cap: int = 3
    seed: int = 0
    subdivide: int = 1

    def __post_init__(self):
        if self.piece_budget < 1:
            raise ValueError("piece budget must be positive")
        if self.attach_spacing < 1:
            raise ValueError("attach spacing must be >= 1")
        if self.branch_cap < 1:
            raise ValueError("branch cap must be >= 1")
        if self.max_tree_depth < 1:
            raise ValueError("max tree depth must be >= 1")
        if self.subdivide < 1:
            raise ValueError("subdivision factor must be >= 1")
        if not self.templates or all(w <= 0 for _, w in self.templates):
            raise ValueError("need at least one positively weighted template")

    def describe(self) -> str:
        tpl = ",".join(f"{t}={w}" for t, w in self.templates)
        return (
            f"templates={tpl} pieces={self.piece_budget} depth={self.max_tree_depth} "
            f"spacing={self.attach_spacing} cap={self.branch_cap} seed={self.seed} "
            f"subdivide={self.subdivide}"
        )


class _Builder:
    """Accumulates pieces glued at single vertices, with the incidence maps the
    attachment rules read (holders, attachment points, attach counts, piece
    depths) kept current."""

    def __init__(self):
        self.edges: list[tuple[int, int]] = []
        self.pieces: list[list[int]] = []
        self.piece_adj: list[dict[int, list[int]]] = []  # internal adjacency per piece
        self.piece_depth: list[int] = []
        self.attach_points: list[set[int]] = []  # per piece, global vertex ids
        self.attach_count: dict[int, int] = {}
        self.holders: dict[int, list[int]] = {}  # vertex -> piece ids
        self.vertex_count = 0

    def add_piece(
        self,
        template: PieceTemplate,
        glue_local: int | None,
        glue_global: int | None,
        depth: int,
    ) -> int:
        count, local_edges = template.build()
        mapping: dict[int, int] = {}
        if glue_local is not None and glue_global is not None:
            mapping[glue_local] = glue_global
        for lv in range(count):
            if lv not in mapping:
                mapping[lv] = self.vertex_count
                self.vertex_count += 1
        adj: dict[int, list[int]] = {mapping[lv]: [] for lv in range(count)}
        for lu, lv in local_edges:
            u, v = mapping[lu], mapping[lv]
            self.edges.append(normalize_edge(u, v))
            adj[u].append(v)
            adj[v].append(u)
        pid = len(self.pieces)
        members = [mapping[lv] for lv in range(count)]
        self.pieces.append(members)
        self.piece_adj.append(adj)
        self.piece_depth.append(depth)
        self.attach_points.append({glue_global} if glue_global is not None else set())
        for v in members:
            self.holders.setdefault(v, []).append(pid)
        if glue_global is not None:
            for qid in self.holders[glue_global]:
                if qid != pid:
                    self.attach_points[qid].add(glue_global)
            self.attach_count[glue_global] = self.attach_count.get(glue_global, 0) + 1
        return pid

    def piece_ball(self, pid: int, v: int, radius: int) -> dict[int, int]:
        """Piece-internal distances from v to the vertices of piece pid within
        the radius."""
        adj = self.piece_adj[pid]
        dist = {v: 0}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            if dist[u] >= radius:
                continue
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def spacing_ok(self, v: int, spacing: int) -> bool:
        """No other attachment point within piece-internal distance < spacing,
        in any piece holding v."""
        if spacing <= 1:
            return True
        for pid in self.holders[v]:
            others = self.attach_points[pid] - {v}
            if others and not others.isdisjoint(self.piece_ball(pid, v, spacing - 1)):
                return False
        return True

    def to_space(self, basepoint: int, subdivide: int = 1) -> Space:
        space = Space(Graph(self.vertex_count, self.edges), self.pieces, basepoint)
        if subdivide > 1:
            space = subdivide_space(space, subdivide)
        return space


def gen_random(spec: ForgeSpec) -> Space:
    """Grow a random piece tree: start from a root template, then repeatedly
    glue a weighted-random template at an eligible vertex until the budget
    (or the constraints) run out. Deterministic in the seed.

    The eligible set is kept across glues and updated by the rules in the
    module docstring; the draw picks by index into its ascending vertex ids."""
    rng = SplitMix64(spec.seed)
    templates = [t for t, _ in spec.templates]
    weights = [w for _, w in spec.templates]
    near = spec.attach_spacing - 1  # piece distance within which an attachment point blocks
    builder = _Builder()
    builder.add_piece(templates[rng.weighted_index(weights)], None, None, depth=1)
    eligible = np.full(builder.vertex_count, 1 < spec.max_tree_depth)

    while len(builder.pieces) < spec.piece_budget:
        candidates = np.flatnonzero(eligible)
        if not candidates.size:
            break
        v = int(candidates[rng.randint(0, candidates.size - 1)])
        tpl = templates[rng.weighted_index(weights)]
        count, _ = tpl.build()
        glue_local = rng.randint(0, count - 1)
        old_holders = list(builder.holders[v])
        depth = 1 + min(builder.piece_depth[p] for p in old_holders)
        first_fresh = builder.vertex_count
        pid = builder.add_piece(tpl, glue_local, v, depth)
        # v is now an attachment point of every piece that held it
        for p in old_holders:
            eligible[list(builder.piece_ball(p, v, near))] = False
        # v's own spacing is unchanged by a glue at v; only its count moved
        eligible[v] = builder.attach_count[v] < spec.branch_cap
        # the new piece's own vertices: its depth, and their distance to v, its one attachment point
        fresh = np.full(builder.vertex_count - first_fresh, depth < spec.max_tree_depth)
        fresh[[u - first_fresh for u in builder.piece_ball(pid, v, near) if u != v]] = False
        eligible = np.concatenate([eligible, fresh])
    return builder.to_space(basepoint=0, subdivide=spec.subdivide)


def gen_free_product_model(
    left: PieceTemplate,
    right: PieceTemplate,
    depth: int,
    attach_spacing: int = 2,
    branch_cap: int = 1,
    seed: int = 0,
) -> Space:
    """Alternating coset tree: left-template root, right-template pieces at its
    spaced attachment vertices, and so on for `depth` levels."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if attach_spacing < 1 or branch_cap < 1:
        raise ValueError("attach spacing and branch cap must be >= 1")
    rng = SplitMix64(seed)
    builder = _Builder()
    root = builder.add_piece(left, None, None, depth=1)
    frontier = [root]
    for level in range(2, depth + 1):
        template = right if level % 2 == 0 else left
        next_frontier = []
        for pid in frontier:
            for v in sorted(builder.pieces[pid]):
                if builder.attach_count.get(v, 0) >= branch_cap:
                    continue
                if v in builder.attach_points[pid]:
                    continue
                if not builder.spacing_ok(v, attach_spacing):
                    continue
                count, _ = template.build()
                glue_local = rng.randint(0, count - 1)
                next_frontier.append(builder.add_piece(template, glue_local, v, depth=level))
        frontier = next_frontier
    return builder.to_space(basepoint=0)


def subdivide_space(space: Space, k: int) -> Space:
    """Replace every edge by a path of k edges; original ids are preserved,
    pieces absorb the subdivision vertices of their edges, and every distance
    scales exactly by k."""
    if k < 1:
        raise ValueError("subdivision factor must be >= 1")
    if k == 1:
        return Space(space.graph, space.pieces, space.basepoint)
    fresh = space.graph.vertex_count
    new_edges: list[tuple[int, int]] = []
    extra_by_edge: dict[tuple[int, int], list[int]] = {}
    for u, v in sorted(space.graph.edges):
        chain = [u] + [fresh + i for i in range(k - 1)] + [v]
        fresh += k - 1
        extra_by_edge[(u, v)] = chain[1:-1]
        new_edges.extend(normalize_edge(a, b) for a, b in zip(chain, chain[1:]))
    new_pieces: list[set[int]] = [set(p) for p in space.pieces]
    for (u, v), extras in extra_by_edge.items():
        pid = space.edge_piece(u, v)
        new_pieces[pid].update(extras)
    return Space(Graph(fresh, new_edges), new_pieces, space.basepoint)
