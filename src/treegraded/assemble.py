"""Assembling a whole-space coloring from certified piece colorings.

For a target vertex x, take the canonical geodesic gamma from the space
basepoint to x. It decomposes into piece runs, each entered at that piece's
base vertex and exited at the projection of x onto the piece. A run is
*short* when its exit still lies in the piece's base component, *long*
otherwise. Every long run, minus the initial stretch of `reduction_radius`
vertices, is a *reduced* run; the closed complement of the reduced runs'
interiors along gamma is the ordered list of *beta* segments.

The combined color of x is

    sum of recolored piece colors at the run exits
  + sum over beta segments of  floor(trunc_len(beta) / color_period)
  (mod n+1)

where trunc_len cuts off the final piece run of the beta segment before
measuring its length. Two deliberately defective baselines share the same
machinery: "naive" keeps only the first sum, "periodic" keeps full beta
lengths without the truncation.

`color_space` walks the canonical geodesic tree once, carrying per-vertex
prefix state, so the whole space costs O(V); `combined_color` rebuilds the
trace explicitly for one vertex and is the reference the fast path is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .coloring import PieceColoring, ScaleSetup, SpaceColoring
from .graph import Path
from .space import Space

VARIANTS = ("combined", "naive", "periodic")


@dataclass(frozen=True)
class PieceSegment:
    piece: int
    start: int  # index into gamma of the entry vertex
    end: int  # index into gamma of the exit vertex
    entry: int
    exit: int
    long: bool

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class GeodesicTrace:
    target: int
    gamma: Path
    segments: tuple[PieceSegment, ...]
    reduced: tuple[tuple[int, int, int], ...]  # (segment index, start idx, end idx)
    betas: tuple[Path, ...]
    beta_ranges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class FloorTerm:
    beta_index: int
    trunc_length: int
    value: int


@dataclass(frozen=True)
class ColorBreakdown:
    target: int
    first_sum: int
    floor_terms: tuple[FloorTerm, ...]
    total: int


def decompose_path(space: Space, path: Path) -> list[tuple[int, int, int]]:
    """Maximal runs of consecutive edges owned by one piece: (piece, i, j)."""
    runs: list[tuple[int, int, int]] = []
    for i in range(path.length):
        p = space.edge_piece(path[i], path[i + 1])
        if runs and runs[-1][0] == p and runs[-1][2] == i:
            runs[-1] = (p, runs[-1][1], i + 1)
        else:
            runs.append((p, i, i + 1))
    return runs


def cut_final_piece(space: Space, beta: Path) -> Path:
    """Drop the final piece run of a geodesic segment.

    The tree-graded structure induced on beta has the maximal trailing edge run
    in one piece as the member containing beta's endpoint; the result is the
    subpath from beta's start to that run's first vertex. A single-vertex
    segment is returned unchanged (nothing to cut).
    """
    if beta.length == 0:
        return beta
    last = len(beta.vertices) - 1
    piece = space.edge_piece(beta[last - 1], beta[last])
    start = last - 1
    while start > 0 and space.edge_piece(beta[start - 1], beta[start]) == piece:
        start -= 1
    return beta.subpath(0, start)


def trace_from_path(
    space: Space,
    setup: ScaleSetup,
    colorings: Mapping[int, PieceColoring],
    gamma: Path,
) -> GeodesicTrace:
    """Trace an explicit geodesic from the basepoint (used directly by the
    geodesic-independence oracle; `trace` wraps it with the canonical one)."""
    segments = []
    for piece, i, j in decompose_path(space, gamma):
        exit_vertex = gamma[j]
        segments.append(
            PieceSegment(
                piece=piece,
                start=i,
                end=j,
                entry=gamma[i],
                exit=exit_vertex,
                long=exit_vertex not in colorings[piece].base_component,
            )
        )
    reduced = tuple(
        (k, seg.start + setup.reduction_radius, seg.end)
        for k, seg in enumerate(segments)
        if seg.long
    )
    beta_ranges = []
    prev = 0
    for _, a, b in reduced:
        beta_ranges.append((prev, a))
        prev = b
    beta_ranges.append((prev, gamma.length))
    betas = tuple(gamma.subpath(i, j) for i, j in beta_ranges)
    return GeodesicTrace(
        target=gamma.end,
        gamma=gamma,
        segments=tuple(segments),
        reduced=reduced,
        betas=betas,
        beta_ranges=tuple(beta_ranges),
    )


def trace(
    space: Space, setup: ScaleSetup, colorings: Mapping[int, PieceColoring], x: int
) -> GeodesicTrace:
    gamma = space.graph.canonical_geodesic(space.basepoint, x)
    return trace_from_path(space, setup, colorings, gamma)


def evaluate_trace(
    space: Space,
    setup: ScaleSetup,
    colorings: Mapping[int, PieceColoring],
    tr: GeodesicTrace,
    variant: str = "combined",
) -> ColorBreakdown:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    period = setup.color_period
    if variant != "naive" and not period:
        raise ValueError("color period not set (piece magnitude missing)")
    first_sum = sum(colorings[seg.piece].recolored[seg.exit] for seg in tr.segments)
    floor_terms: list[FloorTerm] = []
    if variant == "combined":
        for k, beta in enumerate(tr.betas):
            trunc = cut_final_piece(space, beta)
            floor_terms.append(FloorTerm(k, trunc.length, trunc.length // period))
    elif variant == "periodic":
        for k, beta in enumerate(tr.betas):
            floor_terms.append(FloorTerm(k, beta.length, beta.length // period))
    total = (first_sum + sum(t.value for t in floor_terms)) % setup.colors
    return ColorBreakdown(tr.target, first_sum, tuple(floor_terms), total)


def combined_color(
    space: Space, setup: ScaleSetup, colorings: Mapping[int, PieceColoring], x: int
) -> ColorBreakdown:
    """Reference per-vertex evaluation via an explicit trace."""
    return evaluate_trace(space, setup, colorings, trace(space, setup, colorings, x))


def color_space(
    space: Space,
    setup: ScaleSetup,
    colorings: Mapping[int, PieceColoring],
    variant: str = "combined",
) -> SpaceColoring:
    """Color every vertex in one pass over the canonical geodesic tree.

    Per-vertex state consists of prefix sums over completed piece runs plus
    the open run's entry position and the open beta's start position; a child
    inherits its parent's state and updates it in O(1). Results agree with
    `combined_color` vertex by vertex (tested, not assumed).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    space.require_valid()
    period = setup.color_period
    if variant != "naive" and not period:
        raise ValueError("color period not set (piece magnitude missing)")
    g = space.graph
    root = space.basepoint
    dist = g.dist_row(root)
    parents = g.canonical_parents(root)
    rho = setup.reduction_radius
    ncolors = setup.colors

    v_count = g.vertex_count
    first_prefix = [0] * v_count
    floor_prefix = [0] * v_count
    run_piece = [-1] * v_count
    run_entry = [0] * v_count
    beta_start = [0] * v_count
    colors = [0] * v_count

    order = np.argsort(dist, kind="stable")
    for v64 in order:
        v = int(v64)
        if v == root:
            continue
        u = int(parents[v])
        fp = first_prefix[u]
        flp = floor_prefix[u]
        rp = run_piece[u]
        re = run_entry[u]
        bs = beta_start[u]
        p = space.edge_piece(u, v)
        if rp != p:
            if rp != -1:
                pc = colorings[rp]
                fp += pc.recolored[u]
                if u not in pc.base_component:  # completed run was long
                    if variant == "combined":
                        flp += (max(re, bs) - bs) // period
                    elif variant == "periodic":
                        flp += (re + rho - bs) // period
                    bs = int(dist[u])  # next beta opens at the long run's exit
            rp = p
            re = int(dist[u])
        first_prefix[v] = fp
        floor_prefix[v] = flp
        run_piece[v] = rp
        run_entry[v] = re
        beta_start[v] = bs

        pc = colorings[rp]
        total = fp + pc.recolored[v]
        if variant == "combined":
            total += flp + (max(re, bs) - bs) // period
        elif variant == "periodic":
            if v in pc.base_component:  # open run short: final beta reaches v
                total += flp + (int(dist[v]) - bs) // period
            else:  # open run long: beta closes at the reduced run's start
                total += flp + (re + rho - bs) // period
        colors[v] = total % ncolors
    return SpaceColoring(tuple(colors), setup)

