"""Graph metric primitives: distances, canonical geodesics, near masks, scale components.

Graphs are finite, connected, undirected, with unit-length edges, so every
distance is an exact integer. Scale-r chains come in two flavors captured by
ChainPredicate: strict chains step d < r, weak chains step d <= r. All
distances are measured in the ambient graph even when an operation is
restricted to a vertex subset.

Every route runs on one symmetric float64 CSR adjacency matrix, built with
the graph. Scipy's dijkstra is called on it with directed=True: the matrix is
already symmetric, and the call then neither re-casts nor transposes it.

The stored metric is one int32 table per piece, and only this module knows
that layout: callers read distances through dist_row, dist_block and
dist_pairs, and a validated Space reads the distances inside one of its
pieces from the views of the tables that compose_distances hands back (they
stay exact if later tables replace them). All tables share one int32 array,
allocated from the piece sizes, and scipy's fill writes each table once,
straight into its slice, so no table is ever held twice. The tables are kept
one of two ways:

  composed   when a validated tree-graded Space hands over its placement
             (compose_distances): scipy runs on each piece's induced subgraph
             alone (induced, the slice of the CSR adjacency that Space's
             searches of invalid spaces also read), and the tables hang on the
             gluing tree through their cut vertices;
  one piece  on the first distance query of any other graph: the whole graph
             is one piece, and its table is scipy's fill from every source,
             a block of source rows at a time.

A graph kept as one piece reads every row straight from its table. Otherwise
rows are composed on demand and memoised per source. Every vertex x has a
home piece, the one that places it fresh. For the sources of one piece k,
each vertex x has a projection pi(x) onto k, the vertex of k that every path
from x into k passes, and d(u, x) = d_k(u, pi(x)) + d(pi(x), x) by the
separation proved in space.py. One walk of the piece tree gives every
piece's attachment to k and its gate toward k (_gates), and one numpy gather
from k's table then gives the rows of all of k's sources. Composed rows are
kept in one row store, so dist_block and dist_pairs read them with one
gather each, after composing the rows they miss in one pass.

Known limit: memory is the sum of |P|^2 over the pieces plus the rows that
have been read, so one huge piece, a graph that is not split into pieces, or a
caller that reads every row is still quadratic.

The three set queries never allocate an array of |S|^2 entries for a vertex
set S:

  scale_components   one multi-source BFS from all of S to depth floor(s/2),
                     s the chain step, gives every reached vertex w its
                     distance delta(w) to S and a nearest member src(w). Each
                     edge (w, w') with delta(w) + 1 + delta(w') <= s joins
                     src(w) and src(w'). This is sound by the triangle
                     inequality. It is complete: on a geodesic p_0 .. p_L
                     between members with L <= s, delta(p_j) <= min(j, L - j),
                     so every p_j is reached and every edge of it joins. No
                     distance is read.
  near_mask          the same multi-source BFS from all of S, cut off at a
                     radius rho (scipy's dijkstra with min_only and limit
                     rho): a vertex is reached exactly when its distance to S
                     is at most rho, so one search marks them all, with no
                     row read and no |S| x V block.
  diameter_witness   the first maximum, row-major, of the sorted |S| x |S|
                     distance block: the first member x of largest
                     eccentricity within S, then the first member y at that
                     distance from x. Eccentricities come from a rerooting
                     pass over the pieces S spans (the union of the tree
                     paths between the home pieces of its members). Each
                     piece P has anchors: its members, valued 0; each spanned
                     child's cut, valued by the farthest member below it
                     (computed children first); and its own cut, valued by
                     the farthest member outside P's subtree (computed
                     parents first, as the max over P's parent's other
                     anchors). Then ecc(x) = max over anchors a of P of
                     value(a) + d_P(a, x), read from P's table. The pass
                     costs anchors x (members + spanned children) entries per
                     spanned piece, so a subset inside one piece reads one
                     block of that piece's table. A walk of the spanned
                     pieces out from x's home piece, each entered at one
                     vertex, then gives x's distance to every member, and y.

Inside one kept piece P the table already holds every distance, so
piece_diameters, handed P's table, measures all classes of a labelling of P
in one numpy pass over P's rows, with no per-class search: it splits each
class into chain components (the pairs of a block within the step, joined as in
scale_components) and takes each component's diameter as the largest entry
between its members. Skipped vertices are left out, and the labelled rows
are read a block of at most _BLOCK_ENTRIES / 2 entries at a time: views of the
table when every vertex is labelled, else a gathered block of the labelled
rows and columns. So a pass holds at most one such block and a few boolean
masks of one, the block's pairs still apart when classes split, and O(|P|)
arrays: within the bytes of one int32 block of _BLOCK_ENTRIES entries, plus
the pairs.
diameters measures many disjoint sets at once: those inside one piece in one
pass per piece, the others, which span pieces, by diameter_witness. A pass
finds no witness pair; a caller that needs one asks diameter_witness for that
one set.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.typing import ArrayLike
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _sparse_components
from scipy.sparse.csgraph import dijkstra as _dijkstra

# entries per block of rows: in an all-pairs build scipy returns each block as
# float64, so this keeps its temporary near 32 MB at any graph size; composed
# rows and the table blocks of diameter_witness are made this many at a time
_BLOCK_ENTRIES = 2**22


def _all_pairs(sp: csr_matrix, out: np.ndarray):
    """Write the all-pairs distances of the connected unit-edge graph sp
    (symmetric float64 CSR with unit weights) into out, an int32 n x n view
    of the one array that keeps every table, a block of source rows at a time."""
    n = sp.shape[0]
    height = max(1, _BLOCK_ENTRIES // n)
    for lo in range(0, n, height):
        hi = min(lo + height, n)
        out[lo:hi] = _dijkstra(sp, directed=True, indices=np.arange(lo, hi))


def _union_labels(labels: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The component labels of labels (each node pointing at the smallest node
    of its component; np.arange for no joins) after also joining the pairs
    (a[i], b[i]).

    Every round hooks the larger root of each joined pair onto the smaller
    one, then jumps pointers until every node points at a root; pointers only
    decrease, so the roots are the component minima.
    """
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


class _Tables(NamedTuple):
    """The kept metric: one int32 table per piece, and the tree that glues them.

    Pieces are numbered in placement order, root first, so a piece's parent
    comes before it. Piece k's table is flat[off[k] : off[k] + size[k]**2],
    row-major over its sorted vertices. Every vertex x is placed fresh by one
    piece, home[x], at row local[x] of that table. cut[k] is the vertex piece k
    shares with its parent piece parent[k] (-1 for the root): row cut_row[k] of
    piece k's table and row local[cut[k]] of its parent's. Per-vertex fields
    are arrays, per-piece fields are lists, read one piece at a time.
    """

    flat: np.ndarray
    home: np.ndarray
    local: np.ndarray
    off: list[int]
    size: list[int]
    parent: list[int]
    cut: list[int]
    cut_row: list[int]

    def table(self, k: int) -> np.ndarray:
        size, off = self.size[k], self.off[k]
        return self.flat[off : off + size * size].reshape(size, size)


def _parts(members: np.ndarray, labels: np.ndarray) -> list[frozenset[int]]:
    """Sorted members grouped by label, so parts appear by smallest vertex."""
    parts: dict[int, list[int]] = {}
    for v, label in zip(members.tolist(), labels.tolist()):
        parts.setdefault(label, []).append(v)
    return [frozenset(part) for part in parts.values()]


def _anchored_max(
    table: np.ndarray, anchors: np.ndarray, values: np.ndarray | None, targets: np.ndarray, own: range
) -> np.ndarray:
    """For each target t, the max over anchors a of values[a] + table[a, t]
    (values None: all 0), leaving out the pairs (i, i) for i in own. Takes
    a run of anchor rows at a time, then their block, so that the two hold
    at most _BLOCK_ENTRIES entries together."""
    best = None
    height = max(1, _BLOCK_ENTRIES // (table.shape[1] + targets.size))
    for lo in range(0, anchors.size, height):
        block = table.take(anchors[lo : lo + height], 0).take(targets, 1)
        if values is not None:
            block += values[lo : lo + height, None]
        mine = range(max(lo, own.start), min(lo + height, own.stop))
        if mine:
            block[np.subtract(mine, lo), mine] = -1
        reach = block.max(axis=0)
        best = reach if best is None else np.maximum(best, reach)
        del block  # so that the next block is never held beside this one
    return best


def piece_diameters(
    table: np.ndarray, labels: ArrayLike, max_step: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Components of the classes of one piece and their diameters, read from
    the piece's distance table alone (rows and columns over its sorted
    vertices, as Space.piece_table hands it out).

    labels holds a class for each vertex of the piece, in sorted vertex order;
    a negative label skips the vertex. Without max_step each class is one
    component; with it, each class splits into its chain components (steps
    d <= max_step). Components are numbered by class, then by smallest
    vertex. Returns each vertex's component (-1 when skipped) and each
    component's diameter.

    The table is read for the labelled vertices only, a block of at most
    _BLOCK_ENTRIES entries at a time: one pass joins the chain steps, one
    takes each row's farthest member of its own component.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (table.shape[0],):
        raise GraphError(f"piece of {table.shape[0]} vertices got labels of shape {labels.shape}")
    at = np.flatnonzero(labels >= 0)
    n = at.size
    labels = labels[at].astype(np.int32)  # int32 compares twice as fast as int64
    # half blocks: a gathered int32 block and its masks then stay within
    # the bytes of one int32 block of _BLOCK_ENTRIES entries
    height = max(1, _BLOCK_ENTRIES // (2 * max(n, 1)))

    def rows(lo: int) -> np.ndarray:  # from labelled vertices lo.. to every labelled vertex
        if n == table.shape[0]:
            return table[lo : lo + height]  # a view
        return table[np.ix_(at[lo : lo + height], at)]

    if max_step is None:  # each class is one component, headed by its first vertex
        _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
        roots = first[inverse]
    else:
        roots = np.arange(n, dtype=np.int32)
        for lo in range(0, n, height):
            near = (rows(lo) <= max_step) & (labels[lo : lo + height, None] == labels)
            here = np.arange(lo, lo + near.shape[0])
            # join each row to its first near column, then the pairs still apart
            roots = _union_labels(roots, here, near.argmax(axis=1))
            near &= roots[here, None] != roots
            i = np.flatnonzero(near)
            roots = _union_labels(roots, i // n + lo, i % n)
    # number the components by class, then by smallest vertex
    heads = np.flatnonzero(roots == np.arange(n))
    heads = heads[np.argsort(labels[heads], kind="stable")]
    rank = np.empty(n, dtype=np.int32)
    rank[heads] = np.arange(heads.size)
    mine = rank[roots]
    diam = np.zeros(heads.size, dtype=table.dtype)
    for lo in range(0, n, height):
        own = mine[lo : lo + height]
        np.maximum.at(diam, own, rows(lo).max(axis=1, where=own[:, None] == mine, initial=0))
    comp = np.full(table.shape[0], -1, dtype=np.int32)
    comp[at] = mine
    return comp, diam


class Graph:
    """Immutable connected unit-edge graph with cached metric queries."""

    __slots__ = ("vertex_count", "edges", "adj", "_ends", "_csr", "_tables", "_rows", "_slot", "_filled")

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
        self._tables: _Tables | None = None
        # composed rows, memoised: row _slot[u] of _rows holds u's row (-1: not yet)
        self._rows = np.empty((0, vertex_count), dtype=np.int32)
        self._slot = np.full(vertex_count, -1, dtype=np.int64)
        self._filled = 0
        self._check_connected()

    def _check_connected(self):
        # the matrix is symmetric, so its strong components are the components
        _, labels = _sparse_components(self._csr, directed=True, connection="strong")
        missing = np.nonzero(labels != labels[0])[0]
        if missing.size:
            raise GraphError(f"graph is disconnected (vertex {int(missing[0])} unreachable from 0)")

    def _ensure_tables(self) -> _Tables:
        if self._tables is None:
            self.compose_distances([np.arange(self.vertex_count)], [-1])  # the one-piece case
        return self._tables

    def compose_distances(self, pieces: Sequence[ArrayLike], cuts: Sequence[int]) -> list[np.ndarray]:
        """Keep per-piece distance tables glued along a tree as the graph's metric,
        and return them, in the order of pieces: views over each piece's sorted
        vertices, which callers read and do not write.

        pieces holds vertex arrays, root piece first; cuts[0] is -1 and
        cuts[i] is the one vertex piece i shares with the pieces before it.
        The caller guarantees that every path from piece i to an earlier piece
        passes through cuts[i] and that every piece's induced subgraph is
        connected and convex, which a validated tree-graded space does. Then
        d(x, y) = d(x, c) + d_P(c, y) for x placed before piece P and y in P,
        which is how rows are composed from the tables. Tables kept before
        are replaced; rows composed before stay, being exact either way.
        """
        n = self.vertex_count
        placed = np.zeros(n, dtype=bool)
        home = np.full(n, -1, dtype=np.int64)
        local = np.zeros(n, dtype=np.int64)
        pieces = [np.unique(self._vertex_array(verts)) for verts in pieces]
        size = [verts.size for verts in pieces]
        off = np.cumsum([0] + [s * s for s in size], dtype=np.int64).tolist()
        flat = np.empty(off[-1], dtype=np.int32)  # every table, written in place
        parent, cut_row = [], []
        for k, (verts, cut) in enumerate(zip(pieces, cuts)):
            fresh = verts != cut
            new = verts[fresh]
            rooted = not placed.any()
            if not rooted and (fresh.all() or not placed[cut]):
                raise GraphError(f"cut vertex {cut} is not shared with an earlier piece")
            if placed[new].any():
                raise GraphError(f"piece {verts.tolist()[:4]} overlaps the earlier pieces beyond its cut")
            _all_pairs(self.induced(verts), flat[off[k] : off[k + 1]].reshape(size[k], size[k]))
            parent.append(-1 if rooted else int(home[cut]))
            cut_row.append(-1 if rooted else int(np.flatnonzero(~fresh)[0]))
            home[new], local[new] = k, np.flatnonzero(fresh)
            placed[new] = True
        if not placed.all():
            raise GraphError(f"vertex {int(np.argmin(placed))} lies in no piece")
        cut = [-1 if q < 0 else int(c) for c, q in zip(cuts, parent)]
        self._tables = _Tables(
            flat=flat,
            home=home,
            local=local,
            off=off[:-1],
            size=size,
            parent=parent,
            cut=cut,
            cut_row=cut_row,
        )
        return [self._tables.table(k) for k in range(len(pieces))]

    def induced(self, verts: ArrayLike) -> csr_matrix:
        """The CSR adjacency of the subgraph induced by verts, its rows and
        columns in the order of verts."""
        verts = self._vertex_array(verts)
        return self._csr[verts][:, verts]

    def _gates(self, k: int) -> tuple[list[int], list[int], list[int]]:
        """How every vertex projects onto piece k, listed by piece Q.

        The projection onto k of a vertex x of Q (Q != k) is the vertex of k
        that every path from x into k passes, at row attach[Q] of k's table;
        Q's gate, the vertex of Q every such path leaves by, is row gate[Q] of
        Q's table, at distance gap[Q] from that projection. The walk climbs
        from k to the root, then runs down the other pieces in placement
        order, each after its parent.
        """
        t = self._tables
        flat, local, off, size, parent, cut = t.flat, t.local, t.off, t.size, t.parent, t.cut
        attach, gate, gap = [0] * len(parent), [0] * len(parent), [0] * len(parent)
        climbed = {k}
        p, d = k, 0
        while parent[p] >= 0:  # pieces above k project onto k's cut
            q, e = parent[p], local.item(cut[p])
            attach[q], gate[q], gap[q] = t.cut_row[k], e, d
            climbed.add(q)
            if parent[q] >= 0:
                d += flat.item(off[q] + e * size[q] + t.cut_row[q])
            p = q
        for p in range(1, len(parent)):
            if p not in climbed:
                q = parent[p]
                gate[p] = t.cut_row[p]
                if q == k:  # p hangs off k at its own cut
                    attach[p], gap[p] = local.item(cut[p]), 0
                else:
                    attach[p] = attach[q]
                    gap[p] = gap[q] + flat.item(off[q] + gate[q] * size[q] + local.item(cut[p]))
        return attach, gate, gap

    def _compose(self, sources: np.ndarray) -> np.ndarray:
        """int32 distances from each source to every vertex, composed from the
        tables and not memoised.

        For the sources placed by one piece k, d(u, x) = d_k(u, pi(x)) +
        d(pi(x), x), with pi(x) the projection of x onto k (_gates): one
        gather from k's table for all of them.
        """
        t = self._ensure_tables()
        home, local = t.home, t.local
        off, size = np.array(t.off, dtype=np.int64), np.array(t.size, dtype=np.int64)
        homes = home[sources]
        out = np.empty((sources.size, home.size), dtype=np.int32)
        for k in np.unique(homes).tolist():
            attach, gate, gap = (np.array(a, dtype=np.int64) for a in self._gates(k))
            row = off + gate * size  # per piece: where its gate's row starts in flat
            inside = home == k
            proj = np.where(inside, local, attach[home])
            dist = np.where(inside, 0, gap[home] + t.flat[row[home] + local])
            at = np.flatnonzero(homes == k)
            block = t.table(k)[t.local[sources[at]][:, None], proj]
            block += dist
            out[at] = block
        return out

    def _fill(self, sources: np.ndarray):
        """Memoise the rows of sources; the missing ones are composed together,
        a block of at most _BLOCK_ENTRIES entries at a time. The row store
        grows by doubling, up to one row per vertex."""
        missing = np.unique(sources[self._slot[sources] < 0])
        if not missing.size:
            return
        n, filled = self.vertex_count, self._filled
        if filled + missing.size > len(self._rows):
            grown = np.empty((min(n, max(filled + missing.size, 2 * filled)), n), dtype=np.int32)
            grown[:filled] = self._rows[:filled]
            self._rows = grown
        height = max(1, _BLOCK_ENTRIES // n)
        for lo in range(0, missing.size, height):
            chunk = missing[lo : lo + height]
            self._rows[filled : filled + chunk.size] = self._compose(chunk)
            self._slot[chunk] = np.arange(filled, filled + chunk.size)
            filled += chunk.size
        self._filled = filled

    def _rows_of(self, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """An array holding the rows of sources, and their row indices in it:
        the table itself when the graph is kept as one piece, else the row
        store once the missing rows are composed."""
        t = self._ensure_tables()
        if len(t.size) == 1:
            return t.table(0), sources
        self._fill(sources)
        return self._rows, self._slot[sources]

    def dist_row(self, u: int) -> np.ndarray:
        """Distances from u to every vertex, as an int32 array."""
        self.check_vertex(u)
        slot = self._slot.item(u)
        if slot >= 0:
            return self._rows[slot]
        store, at = self._rows_of(np.array([u]))
        return store[at.item(0)]

    def dist_block(self, rows: ArrayLike, cols: ArrayLike | None = None) -> np.ndarray:
        """int32 distances from each vertex of rows (axis 0) to each vertex of
        cols (axis 1; every vertex when cols is None), in the order given."""
        store, at = self._rows_of(self._vertex_array(rows))
        if cols is None:
            return store[at]
        return store[at[:, None], self._vertex_array(cols)]

    def dist_pairs(self, us: ArrayLike, vs: ArrayLike) -> np.ndarray:
        """int32 distances d(us[i], vs[i]), pair by pair, for equal-length us and vs."""
        us, vs = self._vertex_array(us), self._vertex_array(vs)
        if us.shape != vs.shape:
            raise GraphError(f"dist_pairs needs equal shapes, got {us.shape} and {vs.shape}")
        store, at = self._rows_of(us)
        return store[at, vs]

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
        smallest-id neighbor one unit closer to u (BFS smallest-parent rule).
        Each adjacency tuple is sorted, so that neighbor is the first one found
        at the next distance down."""
        self.check_vertex(v)
        row = self.dist_row(u)
        adj = self.adj
        verts = [v]
        cur = v
        for d in range(row.item(v) - 1, -1, -1):
            for w in adj[cur]:
                if row.item(w) == d:
                    break
            cur = w
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
        us, vs = self._ends
        near, far = np.concatenate([us, vs]), np.concatenate([vs, us])
        closer = row[near] == row[far] - 1
        parents = np.full(self.vertex_count, self.vertex_count, dtype=np.int64)
        np.minimum.at(parents, far[closer], near[closer])
        parents[root] = -1
        return parents

    def set_diameter(self, subset: Iterable[int]) -> int:
        return self.diameter_witness(subset)[0]

    def _members(self, subset: Iterable[int]) -> np.ndarray:
        """Sorted distinct vertex ids of subset, checked."""
        members = sorted(set(subset))
        if members and not (0 <= members[0] and members[-1] < self.vertex_count):
            self._vertex_array(members)  # raises on the first unknown id
        return np.array(members, dtype=np.int64)

    def diameter_witness(self, subset: Iterable[int]) -> tuple[int, tuple[int, int]]:
        """Max pairwise ambient distance plus the first achieving pair
        (row-major, over the sorted subset): the first member x of largest
        eccentricity within the subset, and the first member y at that
        distance from x. Eccentricities come from the rerooting pass over the
        pieces the subset spans (module docstring)."""
        arr = self._members(subset)
        if arr.size < 2:
            if not arr.size:
                raise GraphError("diameter of an empty subset")
            return 0, (int(arr[0]), int(arr[0]))
        t = self._ensure_tables()
        rows = t.local[arr].tolist()  # each member's row in its home piece's table
        held: dict[int, list[int]] = {}  # piece -> indices of the members it places
        for i, p in enumerate(t.home[arr].tolist()):
            held.setdefault(p, []).append(i)
        # the pieces the subset spans: lift the last-placed piece until one is left
        kids: dict[int, list[int]] = {}
        lifted: list[int] = []  # every spanned piece but the top, children first
        frontier = [-p for p in held]
        heapq.heapify(frontier)
        spanned = set(held)
        while len(frontier) > 1:
            p = -heapq.heappop(frontier)
            q = t.parent[p]
            lifted.append(p)
            kids.setdefault(q, []).append(p)
            if q not in spanned:
                spanned.add(q)
                heapq.heappush(frontier, -q)
        top = -frontier[0]

        def anchors(p: int) -> tuple[list[int], list[int]]:
            """Rows of p's members (value 0) and of its spanned children's
            cuts (value: the farthest member beyond the cut)."""
            mine, ks = held.get(p, []), kids.get(p, [])
            at = [rows[i] for i in mine] + [t.local.item(t.cut[q]) for q in ks]
            return at, [0] * len(mine) + [down[q] for q in ks]

        down: dict[int, int] = {}  # piece -> farthest member in its subtree, from its cut
        for p in lifted:
            at, val = anchors(p)
            down[p] = int((t.table(p)[at, t.cut_row[p]] + val).max())
        best, i = -1, 0  # the largest eccentricity, and the first member with it
        up: dict[int, int] = {}  # piece -> farthest member outside its subtree, from its cut
        for p in [top] + lifted[::-1]:
            at, val = anchors(p)
            mine, ks = held.get(p, []), kids.get(p, [])
            if p != top:  # the parent's side, seen from p's cut
                at.append(t.cut_row[p])
                val.append(up[p])
            at = np.array(at)
            # a child's own subtree is left out of what lies beyond it
            own = range(len(mine), len(mine) + len(ks))
            reach = _anchored_max(t.table(p), at, np.array(val) if any(val) else None, at[: own.stop], own)
            if mine:  # members are held in index order, so argmax is the first
                j = int(reach[: len(mine)].argmax())
                e = reach.item(j)
                if e > best or (e == best and mine[j] < i):
                    best, i = e, mine[j]
            up.update(zip(ks, reach[len(mine) :].tolist()))
        x = arr.item(i)
        # y: walk the spanned pieces out from x's home piece; paths from x
        # enter each piece at one vertex, whose row and distance from x are kept
        entry = {t.home.item(x): (rows[i], 0)}
        stack = list(entry)
        dists = np.empty(arr.size, dtype=np.int64)
        while stack:
            p = stack.pop()
            row, d = entry[p]
            table = t.table(p)
            mine = held.get(p, [])
            dists[mine] = d + table[row, [rows[j] for j in mine]]
            ways = [(q, t.cut_row[q], t.local.item(t.cut[q])) for q in kids.get(p, [])]
            if p != top:
                ways.append((t.parent[p], t.local.item(t.cut[p]), t.cut_row[p]))
            for q, there, here in ways:
                if q not in entry:
                    entry[q] = (there, d + table.item(row, here))
                    stack.append(q)
        return best, (x, arr.item(dists.argmax()))

    def diameters(self, parts: Sequence[Iterable[int]]) -> list[tuple[int, tuple[int, int] | None]]:
        """The diameter of each of the disjoint, non-empty vertex sets parts,
        with its diameter_witness pair when the set spans pieces.

        The sets inside one kept piece are measured together, one pass over
        each such piece's table (piece_diameters), and get no pair; the
        others are measured by diameter_witness.
        """
        t = self._ensure_tables()
        sizes = [len(part) for part in parts]
        if 0 in sizes:
            raise GraphError("diameter of an empty subset")
        members = self._vertex_array(
            np.fromiter(itertools.chain.from_iterable(parts), dtype=np.int64, count=sum(sizes))
        )
        which = np.repeat(np.arange(len(parts)), sizes)
        homes = t.home[members]
        top = np.zeros(len(parts), dtype=np.int64)  # the last-placed piece each set meets
        np.maximum.at(top, which, homes)
        k = top[which]
        inside = (homes == k) | (members == np.array(t.cut, dtype=np.int64)[k])
        spans = np.zeros(len(parts), dtype=bool)
        spans[which[~inside]] = True
        out: list[tuple[int, tuple[int, int] | None]] = [(0, None)] * len(parts)
        for i in np.flatnonzero(spans).tolist():
            out[i] = self.diameter_witness(parts[i])
        at = np.flatnonzero(~spans[which])
        at = at[np.argsort(k[at], kind="stable")]
        held, starts = np.unique(k[at], return_index=True)
        for q, run in zip(held.tolist(), np.split(at, starts[1:])):
            labels = np.full(t.size[q], -1, dtype=np.int64)
            labels[np.where(homes[run] == q, t.local[members[run]], t.cut_row[q])] = which[run]
            for i, diam in zip(np.unique(which[run]).tolist(), piece_diameters(t.table(q), labels)[1].tolist()):
                out[i] = (diam, None)
        return out

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
            np.arange(members.size),
            np.searchsorted(members, nearest[us[joined]]),
            np.searchsorted(members, nearest[vs[joined]]),
        )
        return _parts(members, labels)

    def near_mask(self, subset: Iterable[int], radius: int) -> np.ndarray:
        """Boolean mask of the vertices within distance radius of subset (the
        members included), from one multi-source BFS cut off at radius."""
        members = self._members(subset)
        if not members.size:
            raise GraphError("distance to an empty subset")
        if radius < 0:
            raise GraphError("radius must be non-negative")
        delta = _dijkstra(self._csr, directed=True, indices=members, min_only=True, limit=radius)
        return delta <= radius

    def diameter(self) -> int:
        return self.set_diameter(range(self.vertex_count))
