"""Brute-force oracles: independent second routes for every metric claim.

Everything here is dependency-free pure Python (deque BFS, hand-rolled
disjoint set, exhaustive enumeration) so the production engine (numpy/scipy
backed) is never checked against itself.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import Iterable, Mapping

from .assemble import evaluate_trace, trace_from_path
from .coloring import PieceColoring, ScaleSetup
from .graph import ChainPredicate, Graph, Path
from .space import Space


def bfs_dists(graph: Graph, src: int) -> list[int]:
    dist = [-1] * graph.vertex_count
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in graph.adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def floyd_warshall(graph: Graph) -> list[list[int]]:
    n = graph.vertex_count
    inf = 10**9
    dist = [[inf] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for u, v in graph.edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


class DisjointSet:
    def __init__(self, items: Iterable[int]):
        self.parent = {x: x for x in items}
        self.rank = {x: 0 for x in self.parent}

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def brute_scale_components(
    graph: Graph, subset: Iterable[int], pred: ChainPredicate
) -> list[frozenset[int]]:
    members = sorted(set(subset))
    ds = DisjointSet(members)
    rows = {v: bfs_dists(graph, v) for v in members}
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            if pred.step_ok(rows[u][v]):
                ds.union(u, v)
    groups: dict[int, set[int]] = {}
    for v in members:
        groups.setdefault(ds.find(v), set()).add(v)
    return sorted((frozenset(g) for g in groups.values()), key=min)


def brute_set_diameter(graph: Graph, subset: Iterable[int]) -> int:
    members = sorted(set(subset))
    best = 0
    for v in members:
        row = bfs_dists(graph, v)
        best = max(best, max(row[w] for w in members))
    return best


def brute_magnitude(graph: Graph, colors: Mapping[int, int], pred: ChainPredicate) -> int:
    classes: dict[int, list[int]] = {}
    for v, c in colors.items():
        classes.setdefault(c, []).append(v)
    best = 0
    for members in classes.values():
        for comp in brute_scale_components(graph, members, pred):
            best = max(best, brute_set_diameter(graph, comp))
    return best


def brute_nearest_set(graph: Graph, piece: Iterable[int], x: int) -> set[int]:
    """All vertices of the piece realizing d(x, piece)."""
    row = bfs_dists(graph, x)
    members = sorted(set(piece))
    d = min(row[v] for v in members)
    return {v for v in members if row[v] == d}


def brute_project(space: Space, pid: int, x: int) -> int:
    nearest = brute_nearest_set(space.graph, space.pieces[pid], x)
    if len(nearest) != 1:
        raise AssertionError(
            f"projection onto piece {pid} from {x} is not unique: {sorted(nearest)}"
        )
    return next(iter(nearest))


def enumerate_geodesics(graph: Graph, u: int, v: int) -> list[Path]:
    """Every shortest path from u to v (exponential; small graphs only)."""
    row = bfs_dists(graph, u)
    out: list[Path] = []

    def walk(cur: int, acc: list[int]):
        if cur == u:
            out.append(Path(tuple(reversed(acc))))
            return
        for w in graph.adj[cur]:
            if row[w] == row[cur] - 1:
                acc.append(w)
                walk(w, acc)
                acc.pop()

    walk(v, [v])
    return out


def geodesic_invariance(
    space: Space,
    setup: ScaleSetup,
    colorings: Mapping[int, PieceColoring],
    max_vertices: int = 12,
) -> tuple[bool, list[dict]]:
    """Evaluate the combined-color formula over every geodesic from the
    basepoint to every vertex; report vertices where geodesics disagree."""
    n = space.graph.vertex_count
    if n > max_vertices:
        raise ValueError(f"space too large for exhaustive geodesics ({n} > {max_vertices})")
    witnesses = []
    for x in range(n):
        seen: dict[int, Path] = {}
        for gamma in enumerate_geodesics(space.graph, space.basepoint, x):
            tr = trace_from_path(space, setup, colorings, gamma)
            color = evaluate_trace(space, setup, colorings, tr).total
            seen.setdefault(color, gamma)
        if len(seen) > 1:
            witnesses.append(
                {
                    "vertex": x,
                    "colors": sorted(seen),
                    "geodesics": [list(seen[c].vertices) for c in sorted(seen)],
                }
            )
    return not witnesses, witnesses


def min_magnitude(
    graph: Graph,
    pred: ChainPredicate,
    n: int,
    max_vertices: int = 14,
    state_cap: int = 200_000,
) -> int:
    """Exact minimal magnitude over all (n+1)-colorings of the whole graph."""
    if n < 0:
        raise ValueError(f"need n >= 0 (at least one color), got {n}")
    count = graph.vertex_count
    if count > max_vertices:
        raise ValueError(f"instance too large ({count} > {max_vertices} vertices)")
    states = (n + 1) ** count
    if states > state_cap:
        raise ValueError(f"instance too large ({states} colorings)")
    dist = floyd_warshall(graph)
    best = None
    for assignment in product(range(n + 1), repeat=count):
        mag = 0
        for color in set(assignment):
            members = [v for v in range(count) if assignment[v] == color]
            ds = DisjointSet(members)
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    if pred.step_ok(dist[u][v]):
                        ds.union(u, v)
            comps: dict[int, list[int]] = {}
            for v in members:
                comps.setdefault(ds.find(v), []).append(v)
            for comp in comps.values():
                for i, u in enumerate(comp):
                    for v in comp[i + 1 :]:
                        mag = max(mag, dist[u][v])
            if best is not None and mag >= best:
                break
        if best is None or mag < best:
            best = mag
        if best == 0:
            break
    assert best is not None
    return best


def find_crossing_cycle(space: Space) -> list[int] | None:
    """A simple cycle whose edges span more than one piece, if one exists among
    the fundamental cycles of a DFS tree (used as a witness finder)."""
    g = space.graph
    parent: dict[int, int] = {0: -1}
    order = []
    stack = [0]
    seen = {0}
    while stack:
        u = stack.pop()
        order.append(u)
        for w in g.adj[u]:
            if w not in seen:
                seen.add(w)
                parent[w] = u
                stack.append(w)
    depth = {v: 0 for v in seen}
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    tree_edges = {tuple(sorted((v, parent[v]))) for v in seen if parent[v] >= 0}
    for u, v in sorted(g.edges):
        if (u, v) in tree_edges:
            continue
        pu, pv = [u], [v]
        a, b = u, v
        while depth[a] > depth[b]:
            a = parent[a]
            pu.append(a)
        while depth[b] > depth[a]:
            b = parent[b]
            pv.append(b)
        while a != b:
            a, b = parent[a], parent[b]
            pu.append(a)
            pv.append(b)
        cycle = pu + list(reversed(pv[:-1]))
        pieces = {space.edge_piece(x, y) for x, y in zip(cycle, cycle[1:] + [cycle[0]])}
        if len(pieces) > 1:
            return cycle
    return None
