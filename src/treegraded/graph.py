"""Graph metric primitives: distances, canonical geodesics, balls, scale components.

Graphs are finite, connected, undirected, with unit-length edges, so every
distance is an exact integer. Scale-r chains come in two flavors captured by
ChainPredicate: strict chains step d < r, weak chains step d <= r. All
distances are measured in the ambient graph even when an operation is
restricted to a vertex subset.

Every route runs on one symmetric float64 CSR adjacency matrix, built with
the graph. Scipy's dijkstra is called on it with directed=True: the matrix is
already symmetric, and the call then neither re-casts nor transposes it.

All-pairs distances are one int32 matrix, and only this module writes or
knows that layout: callers read it through dist_row, dist_block and
dist_pairs. It is filled one of two ways:

  composed   when a validated tree-graded Space hands over its placement
             (compose_distances): scipy runs on each piece's induced subgraph
             alone, and the pieces' tables are glued along the gluing tree
             through their cut vertices;
  generic    on the first distance query of any other graph: scipy runs from
             every source over the whole graph, a block of source rows at a
             time.

Both give the same exact integer matrix on a tree-graded space.

The two measurement queries never allocate an array of |S|^2 entries for a
vertex set S:

  scale_components   one multi-source BFS from all of S to depth floor(s/2),
                     s the chain step, gives every reached vertex w its
                     distance delta(w) to S and a nearest member src(w). Each
                     edge (w, w') with delta(w) + 1 + delta(w') <= s joins
                     src(w) and src(w'). This is sound by the triangle
                     inequality. It is complete: on a geodesic p_0 .. p_L
                     between members with L <= s, delta(p_j) <= min(j, L - j),
                     so every p_j is reached and every edge of it joins. No
                     distance matrix is read.
  diameter_witness   the first maximum, row-major, of the sorted |S| x |S|
                     distance block, read from matrix rows one block of at
                     most _BLOCK_ENTRIES entries at a time. Its pair (x, y) is
                     the first member x of largest eccentricity within S and
                     the first member y at that distance from x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.typing import ArrayLike
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _sparse_components
from scipy.sparse.csgraph import dijkstra as _dijkstra

# entries per block of rows: in an all-pairs build scipy returns each block as
# float64, so this keeps its temporary near 32 MB at any graph size, and
# diameter_witness copies int32 blocks of at most this many entries
_BLOCK_ENTRIES = 2**22


def _all_pairs(sp: csr_matrix) -> np.ndarray:
    """int32 all-pairs distances of the connected unit-edge graph sp
    (symmetric float64 CSR with unit weights)."""
    n = sp.shape[0]
    height = max(1, _BLOCK_ENTRIES // n)
    dist = np.empty((n, n), dtype=np.int32)
    for lo in range(0, n, height):
        hi = min(lo + height, n)
        dist[lo:hi] = _dijkstra(sp, directed=True, indices=np.arange(lo, hi))
    return dist


def _union_labels(k: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Component labels of nodes 0..k-1 joined by the pairs (a[i], b[i]).

    Each node is labelled with the smallest node of its component. Every round
    hooks the larger root of each joined pair onto the smaller one, then jumps
    pointers until every node points at a root; pointers only decrease, so the
    roots are the component minima.
    """
    labels = np.arange(k)
    while True:
        la, lb = labels[a], labels[b]
        differ = la != lb
        if not differ.any():
            return labels
        la, lb = la[differ], lb[differ]
        np.minimum.at(labels, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = labels[labels]
            if np.array_equal(up, labels):
                break
            labels = up


class GraphError(ValueError):
    """Malformed graph or invalid vertex id."""


@dataclass(frozen=True)
class ChainPredicate:
    """Step rule for scale-r chains.

    mode "strict": consecutive points at distance < r (the measurement default);
    mode "weak": consecutive points at distance <= r.
    """

    mode: str
    r: int

    def __post_init__(self):
        if self.mode not in ("strict", "weak"):
            raise ValueError(f"unknown chain mode {self.mode!r}")
        if self.r < 1:
            raise ValueError("scale r must be a positive integer")

    @property
    def max_step(self) -> int:
        return self.r - 1 if self.mode == "strict" else self.r

    def step_ok(self, d: int) -> bool:
        return d <= self.max_step


def strict_chain(r: int) -> ChainPredicate:
    return ChainPredicate("strict", r)


def weak_chain(r: int) -> ChainPredicate:
    return ChainPredicate("weak", r)


@dataclass(frozen=True)
class Path:
    """Vertex sequence with consecutive vertices adjacent; length = edge count."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a path has at least one vertex")

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def subpath(self, i: int, j: int) -> "Path":
        """Closed subpath from index i to index j inclusive, 0 <= i <= j."""
        if not (0 <= i <= j < len(self.vertices)):
            raise IndexError(f"bad subpath [{i}, {j}] of {len(self.vertices)} vertices")
        return Path(self.vertices[i : j + 1])

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __getitem__(self, i: int) -> int:
        return self.vertices[i]


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable connected unit-edge graph with cached metric queries."""

    __slots__ = ("vertex_count", "edges", "adj", "_ends", "_csr", "_matrix")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 1:
            raise GraphError("graph needs at least one vertex")
        norm: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop edge at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
            norm.add(normalize_edge(u, v))
        self.vertex_count = vertex_count
        self.edges = frozenset(norm)
        adj: list[list[int]] = [[] for _ in range(vertex_count)]
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        us = np.fromiter((u for u, _ in norm), dtype=np.int64, count=len(norm))
        vs = np.fromiter((v for _, v in norm), dtype=np.int64, count=len(norm))
        self._ends = (us, vs)
        self._csr = csr_matrix(
            (np.ones(2 * len(norm)), (np.concatenate([us, vs]), np.concatenate([vs, us]))),
            shape=(vertex_count, vertex_count),
        )
        self._matrix: np.ndarray | None = None
        self._check_connected()

    def _check_connected(self):
        # the matrix is symmetric, so its strong components are the components
        _, labels = _sparse_components(self._csr, directed=True, connection="strong")
        missing = np.nonzero(labels != labels[0])[0]
        if missing.size:
            raise GraphError(f"graph is disconnected (vertex {int(missing[0])} unreachable from 0)")

    def _ensure_matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = _all_pairs(self._csr)
        return self._matrix

    def compose_distances(self, pieces: Sequence[ArrayLike], cuts: Sequence[int]):
        """Fill the distance matrix from per-piece tables glued along a tree.

        pieces holds vertex arrays, root piece first; cuts[0] is -1 and
        cuts[i] is the one vertex piece i shares with the pieces before it.
        The caller guarantees that every path from piece i to an earlier piece
        passes through cuts[i] and that every piece's induced subgraph is
        connected and convex, which a validated tree-graded space does. Then
        d(x, y) = d(x, c) + d_P(c, y) for x placed before piece P and y in P,
        so every entry comes from one piece table and one placed entry. Does
        nothing when the matrix is already filled.
        """
        if self._matrix is not None:
            return
        n = self.vertex_count
        sp = self._csr
        dist = np.empty((n, n), dtype=np.int32)
        placed = np.zeros(n, dtype=bool)
        for verts, cut in zip(pieces, cuts):
            verts = np.unique(self._vertex_array(verts))
            fresh = verts != cut
            new, before = verts[fresh], np.flatnonzero(placed)
            if before.size and (fresh.all() or not placed[cut]):
                raise GraphError(f"cut vertex {cut} is not shared with an earlier piece")
            if placed[new].any():
                raise GraphError(f"piece {verts.tolist()[:4]} overlaps the earlier pieces beyond its cut")
            local = _all_pairs(sp[verts][:, verts])
            if before.size:
                outward = dist[before, cut][:, None] + local[verts == cut][:, fresh]
                dist[np.ix_(before, new)] = outward
                dist[np.ix_(new, before)] = outward.T
            dist[np.ix_(new, new)] = local[np.ix_(fresh, fresh)]
            placed[new] = True
        if not placed.all():
            raise GraphError(f"vertex {int(np.argmin(placed))} lies in no piece")
        self._matrix = dist

    def dist_row(self, u: int) -> np.ndarray:
        """Distances from u to every vertex, as an int32 array."""
        self.check_vertex(u)
        return self._ensure_matrix()[u]

    def dist_block(self, rows: ArrayLike, cols: ArrayLike | None = None) -> np.ndarray:
        """int32 distances from each vertex of rows (axis 0) to each vertex of
        cols (axis 1; every vertex when cols is None), in the order given."""
        rows = self._vertex_array(rows)
        if cols is None:
            return self._ensure_matrix()[rows]
        return self._ensure_matrix()[np.ix_(rows, self._vertex_array(cols))]

    def dist_pairs(self, us: ArrayLike, vs: ArrayLike) -> np.ndarray:
        """int32 distances d(us[i], vs[i]), pair by pair, for equal-length us and vs."""
        us, vs = self._vertex_array(us), self._vertex_array(vs)
        if us.shape != vs.shape:
            raise GraphError(f"dist_pairs needs equal shapes, got {us.shape} and {vs.shape}")
        return self._ensure_matrix()[us, vs]

    def _vertex_array(self, vertices: ArrayLike) -> np.ndarray:
        arr = np.asarray(vertices, dtype=np.int64)
        bad = arr[(arr < 0) | (arr >= self.vertex_count)]
        if bad.size:
            raise GraphError(f"unknown vertex id {int(bad[0])}")
        return arr

    def check_vertex(self, v: int):
        if not (0 <= v < self.vertex_count):
            raise GraphError(f"unknown vertex id {v}")

    def shortest_dist(self, u: int, v: int) -> int:
        self.check_vertex(v)
        return int(self.dist_row(u)[v])

    def canonical_geodesic(self, u: int, v: int) -> Path:
        """Deterministic shortest path: walking back from v, always step to the
        smallest-id neighbor one unit closer to u (BFS smallest-parent rule)."""
        self.check_vertex(v)
        row = self.dist_row(u)
        verts = [v]
        cur = v
        while cur != u:
            target = row[cur] - 1
            cur = min(w for w in self.adj[cur] if row[w] == target)
            verts.append(cur)
        verts.reverse()
        return Path(tuple(verts))

    def canonical_parents(self, root: int) -> np.ndarray:
        """Parent array of the canonical geodesic tree rooted at root.

        parents[root] = -1; for every other v, parents[v] is the smallest-id
        neighbor one unit closer to root, so following parents reproduces
        canonical_geodesic(root, v) for every v at once.
        """
        row = self.dist_row(root)
        parents = np.full(self.vertex_count, -1, dtype=np.int64)
        for v in range(self.vertex_count):
            if v == root:
                continue
            target = row[v] - 1
            parents[v] = min(w for w in self.adj[v] if row[w] == target)
        return parents

    def ball(self, center: int, radius: int) -> frozenset[int]:
        """Closed ball: all v with d(center, v) <= radius."""
        if radius < 0:
            raise GraphError("radius must be non-negative")
        row = self.dist_row(center)
        return frozenset(int(v) for v in np.nonzero(row <= radius)[0])

    def is_path(self, path: Path) -> bool:
        return all(
            normalize_edge(a, b) in self.edges
            for a, b in zip(path.vertices, path.vertices[1:])
        )

    def set_diameter(self, subset: Iterable[int]) -> int:
        return self.diameter_witness(subset)[0]

    def _members(self, subset: Iterable[int]) -> np.ndarray:
        """Sorted distinct vertex ids of subset, checked."""
        return self._vertex_array(sorted(set(subset)))

    def diameter_witness(self, subset: Iterable[int]) -> tuple[int, tuple[int, int]]:
        """Max pairwise ambient distance plus the first achieving pair
        (row-major, over the sorted subset)."""
        arr = self._members(subset)
        if not arr.size:
            raise GraphError("diameter of an empty subset")
        dist = self._ensure_matrix()
        height = max(1, _BLOCK_ENTRIES // arr.size)
        best, pair = -1, (0, 0)
        for lo in range(0, arr.size, height):
            block = dist[np.ix_(arr[lo : lo + height], arr)]
            i, j = divmod(int(np.argmax(block)), arr.size)
            if block[i, j] > best:
                best, pair = int(block[i, j]), (int(arr[lo + i]), int(arr[j]))
            del block  # so that the next block is never held beside this one
        return best, pair

    def scale_components(self, subset: Iterable[int], pred: ChainPredicate) -> list[frozenset[int]]:
        """Partition of subset into maximal scale-r connected components under pred.

        Distances are ambient; parts come back sorted by their smallest vertex.
        """
        members = self._members(subset)
        if not members.size:
            return []
        if members.size == 1:
            return [frozenset(members.tolist())]
        step = pred.max_step
        delta, _, nearest = _dijkstra(
            self._csr, directed=True, indices=members, min_only=True,
            return_predecessors=True, limit=step // 2,
        )
        us, vs = self._ends
        joined = delta[us] + delta[vs] < step  # delta(w) + 1 + delta(w') <= step
        labels = _union_labels(
            members.size,
            np.searchsorted(members, nearest[us[joined]]),
            np.searchsorted(members, nearest[vs[joined]]),
        )
        # a label is its part's smallest member, so parts appear by smallest vertex
        parts: dict[int, list[int]] = {}
        for v, label in zip(members.tolist(), labels.tolist()):
            parts.setdefault(label, []).append(v)
        return [frozenset(part) for part in parts.values()]

    def diameter(self) -> int:
        return self.set_diameter(range(self.vertex_count))
