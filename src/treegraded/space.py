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
Projections onto a piece are answered from the gluing tree in O(tree depth);
the brute-force nearest-vertex computation lives in oracles.py as a test-side
check, not here.

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
d(x, y) = d(x, c) + d_P(c, y) for y in P and x on the far side of c, so a
successful validate hands the gluing tree's placement to
Graph.compose_distances, which keeps the pieces' own tables as the whole
metric: rows and diameters are composed from them along the tree, and no
shortest-path search runs over the whole graph. Memory is the sum of |P|^2
over the pieces plus the rows that have been read, so no V x V array is built
unless a caller reads every row or the space is a single piece.

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

The piece-internal metric is that of the kept tables: piece_dist_from reads
a row of its piece's table, so it needs a valid space. The two searches of
invalid spaces, for components and for CONVEX witnesses, run scipy on each
piece's induced subgraph (Graph.induced).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import Graph, GraphError, normalize_edge


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


@dataclass(frozen=True)
class PieceTree:
    """Bipartite gluing tree: piece nodes and cut-vertex nodes.

    Parent pointers are rooted at the piece containing the basepoint (smallest
    piece id when the basepoint is itself a cut vertex). Piece depths are even,
    cut depths odd.
    """

    root_piece: int
    piece_parent: dict[int, int | None]  # piece id -> parent cut vertex
    cut_parent: dict[int, int]  # cut vertex -> parent piece id
    piece_depth: dict[int, int]
    cut_depth: dict[int, int]

    @property
    def node_count(self) -> int:
        return len(self.piece_parent) + len(self.cut_parent)

    @property
    def edge_count(self) -> int:
        # every non-root piece hangs off one cut; every cut hangs off one piece
        return sum(1 for c in self.piece_parent.values() if c is not None) + len(self.cut_parent)


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
        self._tree: PieceTree | None = None
        self._piece_tables: dict[int, object] = {}  # piece id -> its kept distance table, once valid
        self._basepoints: dict[int, int] | None = None

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

    def piece_dist_from(self, pid: int, src: int) -> dict[int, int]:
        """Distances from src to every vertex of piece pid inside the piece,
        read from the piece's table, which a valid space keeps."""
        self.require_valid()
        piece = self.pieces[pid]
        if src not in piece:
            raise GraphError(f"vertex {src} not in piece {pid}")
        verts = sorted(piece)
        row = self._piece_tables[pid][verts.index(src)]
        return dict(zip(verts, row.tolist()))

    # -- validation ---------------------------------------------------------------

    def validate(self) -> ValidationReport:
        if self._report is not None:
            return self._report
        violations = self._check_edge_cover() + self._check_t1() + self._check_tree()
        # pieces can be disconnected only when one of those fails (module docstring)
        violations = self._check_connected_pieces(search=bool(violations)) + violations
        if violations:
            violations += self._check_convex()
        else:
            # CONVEX holds by the theorem in the module docstring
            self._tree = self._build_gluing_tree()
            placement = list(self._tree.piece_parent.items())
            tables = self.graph.compose_distances(
                [sorted(self.pieces[pid]) for pid, _ in placement],
                [-1 if cut is None else cut for _, cut in placement],
            )
            self._piece_tables = {pid: table for (pid, _), table in zip(placement, tables)}
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

    def _check_tree(self) -> list[Violation]:
        k = len(self.pieces)
        if k == 0:
            return []  # nothing to glue; coverage violations speak for themselves
        cuts = sorted(self.cut_vertices)
        nodes = k + len(cuts)
        edge_count = sum(len(self.pieces_of_vertex[c]) for c in cuts)
        # BFS over the bipartite incidence structure from piece 0
        seen_p = {0} if k else set()
        seen_c: set[int] = set()
        queue: deque[tuple[str, int]] = deque([("P", 0)]) if k else deque()
        while queue:
            kind, x = queue.popleft()
            if kind == "P":
                for v in self.pieces[x]:
                    if len(self.pieces_of_vertex[v]) >= 2 and v not in seen_c:
                        seen_c.add(v)
                        queue.append(("C", v))
            else:
                for p in self.pieces_of_vertex[x]:
                    if p not in seen_p:
                        seen_p.add(p)
                        queue.append(("P", p))
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
        return out

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
        # called per piece and scale by base_component and piece_dist_from: a cached report is read directly
        report = self._report if self._report is not None else self.validate()
        if not report.ok:
            raise InvalidSpaceError(
                "space violates tree-graded axioms: "
                + "; ".join(v.describe() for v in report.violations[:3])
            )

    # -- gluing tree and projections ---------------------------------------------

    def gluing_tree(self) -> PieceTree:
        """The gluing tree, built by a successful validate; raises on an invalid space."""
        if self._tree is None:
            self.require_valid()
        return self._tree

    def _build_gluing_tree(self) -> PieceTree:
        """Piece / cut-vertex tree by BFS from the basepoint's piece; piece_parent
        lists every piece after the piece holding its parent cut."""
        root = min(self.pieces_of_vertex[self.basepoint])
        piece_parent: dict[int, int | None] = {root: None}
        cut_parent: dict[int, int] = {}
        piece_depth = {root: 0}
        cut_depth: dict[int, int] = {}
        queue = deque([root])
        while queue:
            pid = queue.popleft()
            for v in sorted(self.pieces[pid]):
                if len(self.pieces_of_vertex[v]) < 2 or v in cut_parent:
                    continue  # not a cut, or placed already, as the cut we came through is
                cut_parent[v] = pid
                cut_depth[v] = piece_depth[pid] + 1
                for q in self.pieces_of_vertex[v]:
                    if q not in piece_parent:
                        piece_parent[q] = v
                        piece_depth[q] = cut_depth[v] + 1
                        queue.append(q)
        return PieceTree(root, piece_parent, cut_parent, piece_depth, cut_depth)

    def project(self, pid: int, x: int) -> int:
        """Nearest vertex of piece pid to x (the projection onto the piece).

        Answered from the gluing tree: it is the cut vertex through which the
        subtree holding x attaches to the piece.
        """
        self.graph.check_vertex(x)
        if not (0 <= pid < len(self.pieces)):
            raise GraphError(f"unknown piece id {pid}")
        if x in self.pieces[pid]:
            return x
        tree = self.gluing_tree()
        cur = min(self.pieces_of_vertex[x])
        d_target = tree.piece_depth[pid]
        last_cut: int | None = None
        while cur != pid and tree.piece_depth[cur] > d_target:
            last_cut = tree.piece_parent[cur]
            assert last_cut is not None
            cur = tree.cut_parent[last_cut]
        if cur == pid:
            assert last_cut is not None
            return last_cut
        parent = tree.piece_parent[pid]
        assert parent is not None
        return parent

    def basepoints(self) -> dict[int, int]:
        """Per-piece base vertex: the projection of the space basepoint."""
        if self._basepoints is None:
            self._basepoints = {
                pid: self.project(pid, self.basepoint) for pid in range(len(self.pieces))
            }
        return self._basepoints

