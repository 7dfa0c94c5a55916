"""Piece-level colorings and magnitude measurement.

A piece coloring assigns each vertex of a piece one of n+1 colors so that
every scale-r monochromatic component stays below a certified diameter. Three
generated strategies cover the piece shapes the generators emit:

  band  (trees and paths, 2 colors): distance bands of a chosen width from a
        root vertex, alternating colors.
  arc   (cycles, 2 colors): position bands along the cycle from an anchor.
  brick (grids, 3 colors): brickwork pattern, rows of height L, bricks of
        width 2L, consecutive rows shifted by L, colors cycling so touching
        bricks never share a color.

No strategy's bound is ever assumed: the per-piece magnitude is measured by
the same engine that measures whole-space colorings, and the space-level bound
is driven by the measured maximum (clamped below by r).

From a raw piece coloring the assembly pipeline derives the recolored version
(color 0 forced on the closed 2r-ball around the piece base vertex) and the
base component: the scale-r color-0 component of the base vertex, which decides
short/long classification during assembly. Chains in the base component step
by piece-internal distances. A validated piece is convex (the theorem in
space.py), so those equal ambient distances and the table the validated space
keeps for the piece holds them all.

Everything measured inside one piece is therefore read from that piece's
table. The distances that place a piece's colors (band distances from the
root of a tree piece, the path of a one-row brick piece, the recolored 2r-ball
around the base vertex) are rows of it, read by Space.piece_dist_from; shapes
are found from the graph's adjacency restricted to the piece. The magnitude
of a raw piece coloring (compute_piece_magnitude, certify_piece_colorings)
takes one piece_diameters pass over the table the space keeps for the piece
(Space.piece_table). The base component, the chain component of the base
vertex among the piece's color-0 vertices, comes from a frontier search of
that table from the base vertex, and its diameter from the block of its
members. These require a valid space. magnitude_report measures
any coloring of the whole graph: one scale_components search per color
class, then Graph.diameters, which reads the components inside one piece
from that piece's table, and one diameter_witness call per color for the
witness pair. The report keeps those components, and an experiment cell
hands them to its property checks, so that each cell splits its coloring
into classes and scale components once, and labels each vertex with its
component once (component_labels).

A piece's shape does not depend on the scale, so classify_piece computes it
once per space and piece and keeps it on the Space itself: a cache outside
the space would keep every space, and its distance tables, alive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .graph import _BLOCK_ENTRIES, ChainPredicate, Graph, piece_diameters
from .space import Space

PERIOD_FACTOR = 99  # color period = PERIOD_FACTOR * piece magnitude
BASE_COMPONENT_FACTOR = 8  # expected diameter bound of a base component
ASSEMBLED_BOUND_FACTOR = 300  # expected space-level magnitude bound


class CertificationError(ValueError):
    """A piece coloring exceeds the magnitude it was declared to satisfy."""


@dataclass
class ScaleSetup:
    """Scale parameters shared by the whole pipeline.

    piece_magnitude is the certified bound for raw piece colorings at scale r
    (>= r by convention); color_period defaults to 99x it and is recomputed
    when the magnitude is set unless explicitly overridden.
    """

    r: int
    n: int
    piece_magnitude: int | None = None
    color_period: int | None = None
    chain_mode: str = "strict"
    _period_overridden: bool = field(init=False, default=False, repr=False)

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("scale r must be at least 2")
        if self.n < 1:
            raise ValueError("need n >= 1 (at least two colors)")
        if self.chain_mode not in ("strict", "weak"):
            raise ValueError(f"unknown chain mode {self.chain_mode!r}")
        if self.color_period is not None and self.color_period < 1:
            raise ValueError("color period must be positive")
        self._period_overridden = self.color_period is not None
        if self.piece_magnitude is not None:
            self.set_piece_magnitude(self.piece_magnitude)

    @property
    def colors(self) -> int:
        return self.n + 1

    @property
    def recolor_radius(self) -> int:
        return 2 * self.r

    @property
    def reduction_radius(self) -> int:
        return (self.r + 1) // 2

    @property
    def chain(self) -> ChainPredicate:
        return ChainPredicate(self.chain_mode, self.r)

    def set_piece_magnitude(self, magnitude: int):
        if magnitude < self.r:
            raise ValueError(f"piece magnitude {magnitude} below the scale {self.r}")
        self.piece_magnitude = magnitude
        if not self._period_overridden:
            self.color_period = PERIOD_FACTOR * magnitude

    def require_magnitude(self) -> int:
        if self.piece_magnitude is None:
            raise ValueError("piece magnitude not set; run compute_piece_magnitude first")
        return self.piece_magnitude


@dataclass(frozen=True)
class PieceColoring:
    """Raw and recolored colorings of one piece plus its base component."""

    piece_id: int
    raw: dict[int, int]  # before recoloring
    recolored: dict[int, int]  # color 0 forced on the base ball
    basepoint: int
    base_component: frozenset[int]
    base_diameter: int


@dataclass(frozen=True)
class SpaceColoring:
    colors: tuple[int, ...]
    setup: ScaleSetup

    def as_mapping(self) -> dict[int, int]:
        return dict(enumerate(self.colors))

    def __getitem__(self, v: int) -> int:
        return self.colors[v]


@dataclass(frozen=True)
class ColorClassReport:
    color: int
    component_count: int
    max_diameter: int
    witness: tuple[int, int] | None


@dataclass(frozen=True)
class MagnitudeReport:
    per_color: tuple[ColorClassReport, ...]
    magnitude: int
    witness: tuple[int, int] | None
    # scale components of each color class, in color order, each list sorted
    # by smallest vertex, and the vertex count of the measured graph; not part
    # of the report's value
    components: dict[int, list[frozenset[int]]] = field(compare=False, repr=False)
    vertex_count: int = field(compare=False, repr=False)

    @cached_property
    def component_labels(self) -> np.ndarray:
        """Each vertex's component: its index in the components listed color
        by color (-1 for a vertex the coloring leaves out). Built on first
        use, so the checks of a cell share one array."""
        labels = np.full(self.vertex_count, -1, dtype=np.int64)
        for k, comp in enumerate(comp for parts in self.components.values() for comp in parts):
            labels[list(comp)] = k
        return labels

    def to_dict(self) -> dict:
        return {
            "magnitude": self.magnitude,
            "witness": list(self.witness) if self.witness else None,
            "per_color": [
                {
                    "color": c.color,
                    "components": c.component_count,
                    "max_diameter": c.max_diameter,
                    "witness": list(c.witness) if c.witness else None,
                }
                for c in self.per_color
            ],
        }


def magnitude_report(
    graph: Graph, colors: Mapping[int, int], pred: ChainPredicate, color_range: int | None = None
) -> MagnitudeReport:
    """Measure a coloring: per color class, scale components and their diameters.

    The magnitude is the maximum component diameter over all color classes;
    each color's witness is the diameter_witness pair of its first component
    of largest diameter. Works for whole-space colorings and per-piece
    (subset) colorings alike. The report keeps each class's components in
    its components field, which the cell's property checks read.
    """
    classes: dict[int, list[int]] = {}
    for v, c in colors.items():
        classes.setdefault(c, []).append(v)
    if color_range is not None:
        for c in range(color_range):
            classes.setdefault(c, [])
    comps = {
        c: graph.scale_components(members, pred) if members else [] for c, members in sorted(classes.items())
    }
    measured = iter(graph.diameters([comp for parts in comps.values() for comp in parts]))
    per_color = []
    overall = 0
    overall_witness: tuple[int, int] | None = None
    for c, parts in comps.items():
        best, first, best_witness = 0, None, None
        for comp in parts:
            diam, pair = next(measured)
            if diam > best:
                best, first, best_witness = diam, comp, pair
        if first is not None and best_witness is None:
            best_witness = graph.diameter_witness(first)[1]
        per_color.append(ColorClassReport(c, len(parts), best, best_witness))
        if best > overall:
            overall, overall_witness = best, best_witness
    return MagnitudeReport(tuple(per_color), overall, overall_witness, comps, graph.vertex_count)


# -- piece shape detection ----------------------------------------------------


@dataclass(frozen=True)
class PieceShape:
    kind: str  # tree | cycle | grid | unknown
    anchor: int | None = None
    grid_coords: dict[int, tuple[int, int]] | None = None
    cycle_order: tuple[int, ...] | None = None


def classify_piece(space: Space, pid: int) -> PieceShape:
    """Detect which strategy fits a piece: acyclic, cycle, or grid. Memoised
    on the space, per piece."""
    shape = space._piece_shapes.get(pid)
    if shape is None:
        shape = space._piece_shapes[pid] = _detect_shape(space, pid)
    return shape


def _detect_shape(space: Space, pid: int) -> PieceShape:
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
    coords = _grid_coordinates(piece, adj) or _subdivided_grid_coordinates(piece, adj)
    if coords is not None:
        anchor = next(v for v, ij in coords.items() if ij == (0, 0))
        return PieceShape("grid", anchor=anchor, grid_coords=coords)
    return PieceShape("unknown")


def _grid_coordinates(
    piece: frozenset[int], adj: Mapping[int, Sequence[int]]
) -> dict[int, tuple[int, int]] | None:
    """Coordinatize an a x b grid from a degree-2 corner, or return None.

    Processes vertices outward from the corner in BFS layers: a vertex with two
    already-placed neighbors sits at the coordinate-wise max of their positions;
    a vertex with one placed neighbor extends that neighbor's axis.
    """
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


def _subdivided_grid_coordinates(
    piece: frozenset[int], adj: Mapping[int, Sequence[int]]
) -> dict[int, tuple[int, int]] | None:
    """Coordinatize a grid whose every edge is a path of k >= 2 edges, or
    return None.

    Its branch vertices (degree >= 3) are joined by threads of degree-2
    vertices. Cut at every k-th step, the threads make a plain grid whose
    corners are the cut points inside threads. Grid vertices sit on a k-spaced
    lattice and thread vertices are interpolated along their edge.
    """
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
    coarse = _grid_coordinates(frozenset(coarse_adj), {v: sorted(ws) for v, ws in coarse_adj.items()})
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


# -- strategies ----------------------------------------------------------------


def band_coloring(space: Space, pid: int, root: int, width: int) -> dict[int, int]:
    """Two-color distance bands from a root vertex; the piece must be acyclic."""
    if classify_piece(space, pid).kind != "tree":
        raise ValueError(f"piece {pid} not acyclic; band coloring needs a tree or path")
    if width < 1:
        raise ValueError("band width must be positive")
    dist = space.piece_dist_from(pid, root)
    return {v: (dist[v] // width) % 2 for v in space.pieces[pid]}


def arc_coloring(space: Space, pid: int, anchor: int, width: int) -> dict[int, int]:
    """Two-color position bands around a cycle piece."""
    shape = classify_piece(space, pid)
    if shape.kind != "cycle":
        raise ValueError(f"piece {pid} is not a cycle")
    if width < 1:
        raise ValueError("arc width must be positive")
    order = list(shape.cycle_order or ())
    if anchor in order:
        k = order.index(anchor)
        order = order[k:] + order[:k]
    return {v: (i // width) % 2 for i, v in enumerate(order)}


def brick_coloring(space: Space, pid: int, anchor: int, brick: int) -> dict[int, int]:
    """Three-color brickwork on a grid piece.

    Row bands of height L, bricks of width 2L, each row band shifted L columns
    from the previous one; color = (brick index + row band) mod 3, which keeps
    touching bricks in distinct colors.
    """
    if brick < 1:
        raise ValueError("brick size must be positive")
    shape = classify_piece(space, pid)
    if shape.kind == "grid" and shape.grid_coords is not None:
        coords = shape.grid_coords
    else:
        # degenerate 1 x b grid: a path piece laid out along one row, which a
        # tree is exactly when no two of its vertices lie equally far from the anchor
        dist = space.piece_dist_from(pid, anchor) if shape.kind == "tree" else None
        if dist is None or len(set(dist.values())) < len(dist):
            raise ValueError(f"piece {pid} is not a grid")
        coords = {v: (0, d) for v, d in dist.items()}
    if anchor not in coords:
        raise ValueError(f"anchor {anchor} not in piece {pid}")
    ai, aj = coords[anchor]
    colors = {}
    for v, (i, j) in coords.items():
        i, j = abs(i - ai), abs(j - aj)
        t = i // brick
        b = (j + brick * t) // (2 * brick)
        colors[v] = (b + t) % 3
    return colors


@dataclass(frozen=True)
class StrategyPlan:
    """Widths per piece shape; defaults derive from the scale."""

    band_width: int | None = None  # trees/paths; default r
    arc_width: int | None = None  # cycles; default r
    brick_width: int | None = None  # grids; default 2r

    def widths(self, r: int) -> tuple[int, int, int]:
        return (
            self.band_width if self.band_width is not None else r,
            self.arc_width if self.arc_width is not None else r,
            self.brick_width if self.brick_width is not None else 2 * r,
        )


def strategy_dimension(shape: PieceShape) -> int:
    return 2 if shape.kind == "grid" else 1


def raw_piece_colorings(
    space: Space, setup: ScaleSetup, plan: StrategyPlan | None = None
) -> dict[int, dict[int, int]]:
    """Color every piece with the strategy its detected shape calls for."""
    plan = plan or StrategyPlan()
    band_w, arc_w, brick_w = plan.widths(setup.r)
    basepoints = space.basepoints()
    out: dict[int, dict[int, int]] = {}
    for pid in range(len(space.pieces)):
        shape = classify_piece(space, pid)
        if shape.kind == "tree":
            out[pid] = band_coloring(space, pid, basepoints[pid], band_w)
        elif shape.kind == "cycle":
            out[pid] = arc_coloring(space, pid, basepoints[pid], arc_w)
        elif shape.kind == "grid":
            out[pid] = brick_coloring(space, pid, shape.anchor, brick_w)
        else:
            raise CertificationError(
                f"piece {pid} has no generated strategy (not a tree, cycle, or grid); "
                "supply a certified coloring file"
            )
    return out


def natural_color_count(space: Space) -> int:
    """Colors the generated strategies need: 3 when any grid piece is present."""
    dims = [strategy_dimension(classify_piece(space, pid)) for pid in range(len(space.pieces))]
    return max(dims, default=1)


# -- derived piece data ---------------------------------------------------------


def recolor_base_ball(
    raw: Mapping[int, int], space: Space, pid: int, base: int, setup: ScaleSetup
) -> dict[int, int]:
    """Force color 0 on the closed 2r-ball around the piece base vertex
    (piece-internal distances); everything else keeps its raw color."""
    dist = space.piece_dist_from(pid, base)
    radius = setup.recolor_radius
    out = dict(raw)
    for v, d in dist.items():
        if d <= radius:
            out[v] = 0
    return out


def base_component(
    recolored: Mapping[int, int], space: Space, pid: int, base: int, setup: ScaleSetup
) -> tuple[frozenset[int], int]:
    """Scale-r component of the base vertex inside the color-0 set of the piece,
    chained with piece-internal distances, and its diameter.

    Read from the piece's own distance table, which a valid space keeps: only
    then is the piece convex and its table exact. A frontier search from the
    base vertex reads the rows of the component's members alone, then the
    diameter is the largest entry among them; both read at most
    _BLOCK_ENTRIES / 2 entries at a time, as piece_diameters does."""
    table = space.piece_table(pid)
    if recolored[base] != 0:
        raise ValueError(f"base vertex {base} of piece {pid} is not color 0")
    verts = sorted(space.pieces[pid])
    unreached = np.array([recolored[v] == 0 for v in verts])  # color 0, not yet in the component
    height = max(1, _BLOCK_ENTRIES // (2 * len(verts)))
    frontier = np.array([verts.index(base)])
    unreached[frontier] = False
    comp = [frontier]
    while frontier.size:
        near = np.zeros(len(verts), dtype=bool)
        for lo in range(0, frontier.size, height):
            near |= (table[frontier[lo : lo + height]] <= setup.chain.max_step).any(axis=0)
        frontier = np.flatnonzero(near & unreached)
        unreached[frontier] = False
        comp.append(frontier)
    comp = np.sort(np.concatenate(comp))
    diameter = max(int(table[np.ix_(comp[lo : lo + height], comp)].max()) for lo in range(0, comp.size, height))
    return frozenset(verts[i] for i in comp.tolist()), diameter


def finalize_piece_coloring(
    space: Space, pid: int, raw: Mapping[int, int], setup: ScaleSetup
) -> PieceColoring:
    base = space.basepoints()[pid]
    recolored = recolor_base_ball(raw, space, pid, base, setup)
    comp, diameter = base_component(recolored, space, pid, base, setup)
    return PieceColoring(
        piece_id=pid,
        raw=dict(raw),
        recolored=recolored,
        basepoint=base,
        base_component=comp,
        base_diameter=diameter,
    )


def _piece_magnitude(space: Space, pid: int, raw: Mapping[int, int], pred: ChainPredicate) -> int:
    """Magnitude of a coloring of exactly the vertices of piece pid: the same
    number as magnitude_report, read in one pass over the piece's table."""
    table = space.piece_table(pid)
    labels = [raw[v] for v in sorted(space.pieces[pid])]
    return int(piece_diameters(table, labels, pred.max_step)[1].max())


def compute_piece_magnitude(
    space: Space, raw_colorings: Mapping[int, Mapping[int, int]], setup: ScaleSetup
) -> int:
    """Measured magnitude over all raw piece colorings, clamped below by r;
    written back into the setup (which refreshes the color period)."""
    worst = setup.r
    for pid in sorted(raw_colorings):
        worst = max(worst, _piece_magnitude(space, pid, raw_colorings[pid], setup.chain))
    setup.set_piece_magnitude(worst)
    return worst


def certify_piece_colorings(
    space: Space,
    raw_colorings: Mapping[int, Mapping[int, int]],
    setup: ScaleSetup,
    declared: int,
) -> None:
    """Reject (raise) unless every raw piece coloring's magnitude is <= declared
    and every color is within range."""
    for pid in sorted(raw_colorings):
        raw = raw_colorings[pid]
        piece = space.pieces[pid]
        if set(raw) != set(piece):
            raise CertificationError(f"piece {pid}: coloring does not cover the piece exactly")
        bad = {c for c in raw.values() if not (0 <= c <= setup.n)}
        if bad:
            raise CertificationError(f"piece {pid}: colors {sorted(bad)} outside 0..{setup.n}")
        got = _piece_magnitude(space, pid, raw, setup.chain)
        if got > declared:
            raise CertificationError(
                f"piece {pid}: scale-{setup.r} magnitude {got} exceeds declared {declared}"
            )


def build_piece_colorings(
    space: Space,
    setup: ScaleSetup,
    plan: StrategyPlan | None = None,
    raw_colorings: Mapping[int, Mapping[int, int]] | None = None,
    declared: int | None = None,
) -> dict[int, PieceColoring]:
    """Full pipeline: raw colorings (generated or supplied), certification /
    magnitude measurement, then recoloring and base components."""
    space.require_valid()
    if raw_colorings is None:
        raw_colorings = raw_piece_colorings(space, setup, plan)
        compute_piece_magnitude(space, raw_colorings, setup)
    else:
        if declared is None:
            raise ValueError("user-supplied colorings need a declared magnitude")
        certify_piece_colorings(space, raw_colorings, setup, declared)
        setup.set_piece_magnitude(max(declared, setup.r))
    return {
        pid: finalize_piece_coloring(space, pid, raw_colorings[pid], setup)
        for pid in sorted(raw_colorings)
    }
