"""Piece decompositions of graphs and the tree-graded axioms.

A Space is a connected graph plus a list of pieces (vertex sets, each owning
the edges between its vertices) and a base vertex. The validator certifies the
five axiom families:

  CONNECTED_PIECE  every piece induces a connected subgraph with >= 1 edge
  EDGE_COVER       every edge lies in some piece; no piece contains another
  T1               two pieces share at most one vertex
  TREE             the piece / cut-vertex incidence structure is a tree
  CONVEX           piece-internal distances equal ambient distances

A space passing all five is tree-graded: the TREE axiom forces every simple
loop into a single piece, and T1 makes cut vertices the only piece overlaps.

The gluing tree is kept once. TREE is checked by one search of the
incidence structure from piece 0, which reaches every piece through the cut
it hangs by; on a valid space that visit order is the placement that
Graph.compose_distances keeps, rooted at piece 0, with every piece after its
parent. The space keeps that placement and the slot of each piece in it.
Projections onto a piece are read off it two ways, which agree: arrays (the
property checks) by projection, one walk of the tree that Graph also composes
rows from, and points (basepoints) by project, a climb from the point's home
piece in O(tree depth). The brute-force nearest vertex is in oracles.py.

CONVEX follows from the other four, so validate checks it by an ambient pass
only when one of them fails (the pass then adds witnesses). Proof: let c be a
vertex of piece P and B a branch of the incidence tree hanging off the cut node
c away from P. Every edge lies in one piece (EDGE_COVER), so it joins two
vertices of one piece; and a vertex other than c lying in pieces on both sides
of c would close a cycle through c in the incidence structure, which TREE
forbids. So every path from P into B leaves P at c and can only come back
through c: c separates B from P. A geodesic between two vertices of P is a
simple path, so it never leaves P, and every edge it uses has both ends in P
and belongs to P (by T1 no other piece holds two vertices of P). Hence
piece-internal distances equal ambient ones. The same separation gives
d(x, y) = d(x, c) + d_P(c, y) for y in P and x on the far side of c, so the
placement that a successful validate hands to Graph.compose_distances keeps
the pieces' own tables as the whole metric: rows and diameters are composed
from them along the tree, and no shortest-path search runs over the whole
graph. Memory is the sum of |P|^2 over the pieces plus the rows that have
been read, so no V x V array is built unless a caller reads every row or the
space is a single piece.

A piece of two or more vertices is connected once EDGE_COVER and TREE hold,
so validate searches pieces for a second component only when EDGE_COVER, T1
or TREE fails; a piece of one vertex has no edge, which a size test finds on
every space. Proof: suppose such a piece P is disconnected. The graph is
connected, so some path runs from one component of P to another. Its steps
between two vertices of P are edges of P's induced subgraph and stay in one
component, so some stretch of it leaves P at a vertex c and first comes back
at a vertex d of another component, c != d. Every edge of that stretch lies
in a piece other than P (EDGE_COVER), so c and d are cut vertices, and the
stretch runs from c to d through pieces and cut vertices other than P. With
the incidences P-c and d-P it closes a cycle in the incidence structure, so
TREE fails.

The piece-internal metric is that of the kept tables: piece_table hands out
a piece's table and piece_dist_from reads a row of it, so both need a valid
space. A valid space also keeps its canonical geodesic tree from the
basepoint (geodesic_tree), which does not depend on any scale. The two
searches of invalid spaces, for components and for CONVEX witnesses, run
scipy on each piece's induced subgraph (Graph.induced).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .graph import Graph, GraphError, _Tables, normalize_edge


class InvalidSpaceError(ValueError):
    """Operation that requires a valid tree-graded space got an invalid one."""


@dataclass(frozen=True)
class Violation:
    axiom: str  # EDGE_COVER | T1 | TREE | CONVEX | CONNECTED_PIECE
    witness: dict

    def describe(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.witness.items())
        return f"{self.axiom}: {parts}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class GeodesicTree(NamedTuple):
    """The canonical geodesic tree from the basepoint, which no scale changes.

    dist[v] is d(basepoint, v) and parents[v] the smallest neighbor one unit
    closer (-1 at the basepoint), so walking parents back from v gives
    canonical_geodesic(basepoint, v); order lists the vertices by distance,
    stably, so each comes after its parent; owner[v] is the piece owning the
    edge (parents[v], v) (-1 at the basepoint).
    """

    dist: np.ndarray
    parents: np.ndarray
    order: np.ndarray
    owner: np.ndarray


class Space:
    """Graph + piece decomposition + basepoint. Immutable once validated."""

    def __init__(self, graph: Graph, pieces: Sequence[Iterable[int]], basepoint: int):
        graph.check_vertex(basepoint)
        self.graph = graph
        self.pieces: tuple[frozenset[int], ...] = tuple(frozenset(p) for p in pieces)
        self.basepoint = basepoint
        for pid, piece in enumerate(self.pieces):
            for v in piece:
                graph.check_vertex(v)
            if not piece:
                raise GraphError(f"piece {pid} is empty")
        self._pieces_of_vertex: tuple[tuple[int, ...], ...] | None = None
        self._piece_of_edge: dict[tuple[int, int], int] | None = None
        self._piece_shapes: dict[int, object] = {}  # coloring.classify_piece, by piece id
        self._report: ValidationReport | None = None
        # once valid: the kept tables and gluing tree, and each piece's slot in them
        self._placement: _Tables | None = None
        self._slot: list[int] = []
        self._basepoints: dict[int, int] | None = None
        self._geodesic_tree: GeodesicTree | None = None

    # -- derived incidence data -------------------------------------------------

    @property
    def pieces_of_vertex(self) -> tuple[tuple[int, ...], ...]:
        if self._pieces_of_vertex is None:
            incid: list[list[int]] = [[] for _ in range(self.graph.vertex_count)]
            for pid, piece in enumerate(self.pieces):
                for v in piece:
                    incid[v].append(pid)
            self._pieces_of_vertex = tuple(tuple(x) for x in incid)
        return self._pieces_of_vertex

    @property
    def cut_vertices(self) -> frozenset[int]:
        return frozenset(
            v for v, pids in enumerate(self.pieces_of_vertex) if len(pids) >= 2
        )

    @property
    def piece_of_edge(self) -> dict[tuple[int, int], int]:
        """Owning piece of every edge (smallest piece id containing both ends)."""
        if self._piece_of_edge is None:
            owner: dict[tuple[int, int], int] = {}
            incid = self.pieces_of_vertex
            for u, v in self.graph.edges:
                pids = [p for p in incid[u] if v in self.pieces[p]]
                if pids:
                    owner[(u, v)] = min(pids)
            self._piece_of_edge = owner
        return self._piece_of_edge

    def edge_piece(self, u: int, v: int) -> int:
        e = normalize_edge(u, v)
        try:
            return self.piece_of_edge[e]
        except KeyError:
            raise InvalidSpaceError(f"edge {e} belongs to no piece") from None

    # -- piece-internal metric --------------------------------------------------

    def _check_piece(self, pid: int):
        if not 0 <= pid < len(self.pieces):  # a negative pid would index from the end
            raise GraphError(f"unknown piece id {pid}")

    def piece_table(self, pid: int) -> np.ndarray:
        """Piece pid's distance table, rows and columns over its sorted
        vertices, which a valid space keeps; callers read it and do not write."""
        self._check_piece(pid)
        self.require_valid()
        return self._placement.table(self._slot[pid])

    def piece_dist_from(self, pid: int, src: int) -> dict[int, int]:
        """Distances from src to every vertex of piece pid inside the piece,
        read from the piece's table, which a valid space keeps."""
        table = self.piece_table(pid)
        if src not in self.pieces[pid]:
            raise GraphError(f"vertex {src} not in piece {pid}")
        verts = sorted(self.pieces[pid])
        return dict(zip(verts, table[verts.index(src)].tolist()))

    # -- validation ---------------------------------------------------------------

    def validate(self) -> ValidationReport:
        if self._report is not None:
            return self._report
        tree, placement = self._check_tree()
        violations = self._check_edge_cover() + self._check_t1() + tree
        # pieces can be disconnected only when one of those fails (module docstring)
        violations = self._check_connected_pieces(search=bool(violations)) + violations
        if violations:
            violations += self._check_convex()
        else:
            # CONVEX holds by the theorem in the module docstring
            self._placement = self.graph.compose_distances(
                [sorted(self.pieces[pid]) for pid, _ in placement], [cut for _, cut in placement]
            )
            self._slot = [0] * len(placement)
            for k, (pid, _) in enumerate(placement):
                self._slot[pid] = k
        self._report = ValidationReport(tuple(violations))
        return self._report

    def _check_connected_pieces(self, search: bool) -> list[Violation]:
        """Every piece of one vertex has no edge; with search, every larger
        piece is also searched for a second component of its induced subgraph."""
        from scipy.sparse.csgraph import connected_components  # invalid spaces only

        out = []
        for pid, piece in enumerate(self.pieces):
            if len(piece) < 2:
                out.append(
                    Violation("CONNECTED_PIECE", {"piece": pid, "reason": "no edge", "vertices": sorted(piece)})
                )
            elif search:
                verts = sorted(piece)
                _, labels = connected_components(self.graph.induced(verts), directed=False)
                missing = [v for v, label in zip(verts, labels.tolist()) if label != labels[0]]
                if missing:
                    out.append(
                        Violation("CONNECTED_PIECE", {"piece": pid, "reason": "disconnected", "unreached": missing[:4]})
                    )
        return out

    def _check_edge_cover(self) -> list[Violation]:
        out = []
        incid = self.pieces_of_vertex
        for v in range(self.graph.vertex_count):
            if not incid[v]:
                out.append(Violation("EDGE_COVER", {"vertex": v, "reason": "vertex in no piece"}))
        for e in sorted(self.graph.edges.difference(self.piece_of_edge)):
            out.append(Violation("EDGE_COVER", {"edge": e, "reason": "uncovered"}))
        for p, piece in enumerate(self.pieces):
            # a piece holding all of p's vertices holds its smallest one
            for q in incid[min(piece)]:
                if p != q and piece < self.pieces[q]:
                    out.append(
                        Violation("EDGE_COVER", {"reason": "piece contained in piece", "inner": p, "outer": q})
                    )
        return out

    def _check_t1(self) -> list[Violation]:
        shared: dict[tuple[int, int], list[int]] = {}
        for v, pids in enumerate(self.pieces_of_vertex):
            for i in range(len(pids)):
                for j in range(i + 1, len(pids)):
                    shared.setdefault((pids[i], pids[j]), []).append(v)
        return [
            Violation("T1", {"pieces": pair, "shared_vertices": verts[:2]})
            for pair, verts in sorted(shared.items())
            if len(verts) >= 2
        ]

    def _check_tree(self) -> tuple[list[Violation], list[tuple[int, int]]]:
        """TREE, and the pieces in the order a breadth-first search of the
        piece / cut-vertex incidence structure from piece 0 reaches them, each
        with the cut it was reached through (-1 for piece 0): once TREE holds,
        the gluing tree, every piece after the piece holding its cut."""
        k = len(self.pieces)
        if k == 0:
            return [], []  # nothing to glue; coverage violations speak for themselves
        incid = self.pieces_of_vertex
        cuts = sorted(self.cut_vertices)
        nodes = k + len(cuts)
        edge_count = sum(len(incid[c]) for c in cuts)
        placement = [(0, -1)]
        seen_p = {0}
        seen_c: set[int] = set()
        for x, _ in placement:  # grows as pieces are reached
            for v in self.pieces[x]:
                if len(incid[v]) >= 2 and v not in seen_c:
                    seen_c.add(v)
                    for p in incid[v]:
                        if p not in seen_p:
                            seen_p.add(p)
                            placement.append((p, v))
        out = []
        if len(seen_p) != k:
            out.append(
                Violation("TREE", {"reason": "piece structure disconnected", "unreached_piece": min(set(range(k)) - seen_p)})
            )
        elif edge_count != nodes - 1:
            out.append(
                Violation(
                    "TREE",
                    {"reason": "cycle among pieces", "incidences": edge_count, "nodes": nodes},
                )
            )
        return out, placement

    def _check_convex(self) -> list[Violation]:
        """The first pair of each piece, row-major over its sorted vertices,
        that the piece joins by a path longer than the ambient distance."""
        from scipy.sparse.csgraph import dijkstra  # invalid spaces only

        out = []
        for pid, piece in enumerate(self.pieces):
            verts = sorted(piece)
            internal = dijkstra(self.graph.induced(verts), directed=False)
            ambient = self.graph.dist_block(verts, verts)
            # a piece path is an ambient path; an unreached pair reads inf
            longer = (internal > ambient) & (internal < len(verts))
            if longer.any():
                i, j = divmod(int(longer.argmax()), len(verts))
                d_in, d = int(internal[i, j]), int(ambient[i, j])
                out.append(Violation("CONVEX", {"piece": pid, "pair": (verts[i], verts[j]), "internal": d_in, "ambient": d}))
        return out

    def require_valid(self):
        # called on every read of a piece table (piece_table, piece_dist_from): a cached report is read directly
        report = self._report if self._report is not None else self.validate()
        if not report.ok:
            raise InvalidSpaceError(
                "space violates tree-graded axioms: "
                + "; ".join(v.describe() for v in report.violations[:3])
            )

    # -- projections -----------------------------------------------------------------

    def project(self, pid: int, x: int) -> int:
        """Nearest vertex of piece pid to x (the projection onto the piece).

        Answered by a climb of the kept gluing tree: it is the cut vertex
        through which the branch holding x attaches to the piece.
        """
        self.graph.check_vertex(x)
        self._check_piece(pid)
        if x in self.pieces[pid]:
            return x
        self.require_valid()
        return self._placement.project(self._slot[pid], x)

    def projection(self, pid: int) -> np.ndarray:
        """project(pid, x) for every vertex x, as an int64 array: one walk of the gluing tree."""
        self._check_piece(pid)
        self.require_valid()
        rows, _ = self._placement.projection(self._slot[pid])
        return np.asarray(sorted(self.pieces[pid]), dtype=np.int64)[rows]

    def geodesic_tree(self) -> GeodesicTree:
        """The canonical geodesic tree from the basepoint, built once on a
        valid space in O(V): one distance row, canonical_parents, and one edge
        owner lookup per vertex."""
        if self._geodesic_tree is None:
            self.require_valid()
            g, root = self.graph, self.basepoint
            dist = g.dist_row(root).copy()  # not a view that would keep the row store alive
            # int32 throughout, like the rows: the tree lives as long as the space
            parents = g.canonical_parents(root).astype(np.int32)
            edge_owner = self.piece_of_edge
            owner = np.fromiter(
                (-1 if u < 0 else edge_owner[(u, v) if u < v else (v, u)] for v, u in enumerate(parents.tolist())),
                dtype=np.int32,
                count=parents.size,
            )
            order = dist.argsort(kind="stable").astype(np.int32)
            self._geodesic_tree = GeodesicTree(dist, parents, order, owner)
        return self._geodesic_tree

    def basepoints(self) -> dict[int, int]:
        """Per-piece base vertex: the projection of the space basepoint."""
        if self._basepoints is None:
            self._basepoints = {
                pid: self.project(pid, self.basepoint) for pid in range(len(self.pieces))
            }
        return self._basepoints

